"""Acceptance suite: one test per shipped criterion, at the stated tolerances.

Each test prints a single pass/fail line (run with ``pytest -s`` to see them
live).  Tolerances are fixed here, not tuned at runtime.
"""

import math
import time

import numpy as np

from hybdyn import admissible, berkovich, cxdyn, hybrid
from hybdyn.harness import load_config, run
from hybdyn.laurent import LaurentSeries as L
from hybdyn.parser import parse_family, parse_sections
from hybdyn.presets import FAMILY_TEXTS, shipped_datum_pairs, twisted_lift

R = 0.5
LOG_R = math.log(R)

_collected_measures = []


def _report(num: int, ok: bool, detail: str, elapsed: float, budget: float):
    line = (f"criterion {num}: {'PASS' if ok and elapsed < budget else 'FAIL'}"
            f" - {detail} [{elapsed:.1f}s / {budget:.0f}s]")
    print(line)
    assert ok, line
    assert elapsed < budget, line


def _rand_series(rng, unit_lead=False):
    exps = sorted(rng.choice(np.arange(-3, 6), size=4, replace=False))
    terms = {}
    for i, k in enumerate(exps):
        c = complex(rng.normal(), rng.normal())
        if unit_lead and i == 0:
            c /= abs(c)
        terms[int(k)] = c
    return L(terms)


def test_criterion_1_hybrid_norm_law():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    points = [hybrid.HybridPoint.central(R)]
    for _ in range(99):
        rho = R * (rng.random() ** 3 * 0.999 + 0.001)
        ang = 2 * math.pi * rng.random()
        points.append(hybrid.HybridPoint.interior(
            rho * complex(math.cos(ang), math.sin(ang)), R))
    t_series = L.t_power(1)
    worst_mult = 0.0
    worst_t = 0.0
    for _ in range(1000):
        f, g = _rand_series(rng), _rand_series(rng)
        fg = f * g
        for p in points:
            lhs = hybrid.tau_eval(fg, p)
            rhs = hybrid.tau_eval(f, p) * hybrid.tau_eval(g, p)
            if rhs != 0:
                worst_mult = max(worst_mult, abs(lhs - rhs) / abs(rhs))
    for p in points:
        worst_t = max(worst_t, abs(hybrid.tau_eval(t_series, p) - R))
    elapsed = time.monotonic() - t0
    ok = worst_mult < 1e-9 and worst_t < 1e-12
    _report(1, ok, f"tau multiplicativity rel {worst_mult:.1e} (<1e-9), "
                   f"|t|->r abs {worst_t:.1e} (<1e-12)", elapsed, 5.0)


def test_criterion_2_hybrid_continuity():
    t0 = time.monotonic()
    datum = parse_sections(["t*w0", "t*w1"], d=1)
    errs = []
    for j in range(1, 31):
        tv = R ** j
        x = hybrid.HybridFiberPoint(hybrid.HybridPoint.interior(tv, R), (1.0, 1.0))
        errs.append(abs(hybrid.hybrid_model_value(datum, x) - LOG_R))
    elapsed = time.monotonic() - t0
    ok = errs[-1] < 1e-3
    _report(2, ok, f"model value -> log r, error {errs[-1]:.2e} at |t| = r^30 (<1e-3)",
            elapsed, 1.0)


def test_criterion_3_model_function_algebra():
    t0 = time.monotonic()
    rng = np.random.default_rng(103)
    worst = 0.0
    for F1, F2 in shipped_datum_pairs():
        z = (rng.normal(size=100) + 1j * rng.normal(size=100),
             rng.normal(size=100) + 1j * rng.normal(size=100))
        tv = 0.3 * np.exp(1.1j)
        f12 = admissible.datum_tensor(F1, F2)
        lhs = admissible.phi_complex(f12, z, tv)
        rhs = admissible.phi_complex(F1, z, tv) + admissible.phi_complex(F2, z, tv)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        fmax = admissible.datum_max(F1, F2)
        delta = fmax.degree
        lhs = admissible.phi_complex(fmax, z, tv)
        rhs = np.maximum((delta // F1.degree) * admissible.phi_complex(F1, z, tv),
                         (delta // F2.degree) * admissible.phi_complex(F2, z, tv))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    elapsed = time.monotonic() - t0
    _report(3, worst < 1e-12,
            f"tensor/max laws pointwise to {worst:.1e} (<1e-12) on 3 shipped pairs",
            elapsed, 1.0)


def test_criterion_4_key_estimate():
    t0 = time.monotonic()
    rng = np.random.default_rng(104)
    z = (rng.normal(size=1000) + 1j * rng.normal(size=1000),
         rng.normal(size=1000) + 1j * rng.normal(size=1000))
    worst_ratio = 0.0
    for text in ("z^2", "z^2 + 1/t", "z^2 + t*z"):
        fam = parse_family(text)
        d = fam.degree
        for tv in (R, R ** 3):
            sups = []
            prev = admissible.phi_iterate(fam, 1, z, tv)
            for n in range(1, 6):
                cur = admissible.phi_iterate(fam, n + 1, z, tv)
                sups.append(float(np.max(np.abs(cur - prev))))
                prev = cur
            for a, b in zip(sups, sups[1:]):
                if a < 1e-12 and b < 1e-12:
                    continue  # good reduction: increments identically zero
                worst_ratio = max(worst_ratio, b / a)
    elapsed = time.monotonic() - t0
    bound = 1.1 / 2
    _report(4, worst_ratio <= bound,
            f"iterate increments decay, worst ratio {worst_ratio:.3f} (<= {bound})",
            elapsed, 60.0)


def test_criterion_5_good_reduction():
    t0 = time.monotonic()
    cfg = load_config("[experiment]\nkind = na-measure\nlabel = sq\n"
                      "family = z^2\nr = 0.5\n")
    rec = run(cfg)
    _collected_measures.append(rec.summary["total_mass"])
    gauss_ok = abs(rec.summary["mass_at_gauss"] - 1.0) < 1e-9
    green_zero = all(row[4] == 0.0 and row[5] == 0.0 for row in rec.rows)
    # the same map under the lift [t w0^2, t w1^2]
    fam_tw = twisted_lift(parse_family("z^2"))
    ev = berkovich.GreenEvaluator(fam_tw, R, n_max=40, tol=1e-10)
    tree = berkovich.build_probe_tree(fam_tw, q=2)
    mu = berkovich.tree_ma(lambda v: ev.exponent(v)[0], tree, R)
    _collected_measures.append(mu.total_mass())
    tw_ok = (abs(mu.mass_at_gauss() - 1.0) < 1e-9
             and abs(mu.total_mass() - 1.0) < 1e-9)
    elapsed = time.monotonic() - t0
    _report(5, gauss_ok and green_zero and tw_ok,
            f"z^2 measure is the Dirac mass at the Gauss point "
            f"(mass {rec.summary['mass_at_gauss']:.12f}), potential identically 0, "
            f"twisted lift identical", elapsed, 10.0)


def test_criterion_6_complex_lyapunov_oracles():
    t0 = time.monotonic()
    details = []
    ok = True
    for text, start in (("z^2", 2.0), ("z^2 - 2", 0.3 + 0.2j)):
        rc = cxdyn.specialize(parse_family(text), 0.1)
        s = cxdyn.backward_sample(rc, seed=601, n_burn=100, n_keep=100000, start=start)
        res = cxdyn.integrate_mu(rc, lambda pts: cxdyn.log_det_norm(cxdyn.MapStack([rc]), pts), s)
        dev = abs(res.mean - math.log(2))
        ok = ok and dev <= 3 * res.stderr + 1e-12 and res.stderr < 1e-2
        details.append(f"{text}: {res.mean:.5f}+/-{res.stderr:.1e}")
    bd_ok = True
    for text in FAMILY_TEXTS:
        fam = parse_family(text)
        rc = cxdyn.specialize(fam, 0.07)
        s = cxdyn.backward_sample(rc, seed=602, n_burn=80, n_keep=8000, start=1.1 + 0.3j)
        res = cxdyn.integrate_mu(rc, lambda pts: cxdyn.log_det_norm(cxdyn.MapStack([rc]), pts), s)
        bd_ok = bd_ok and res.mean >= 0.5 * math.log(fam.degree) - 3 * res.stderr
    elapsed = time.monotonic() - t0
    _report(6, ok and bd_ok,
            "lyapunov = log 2 within 3 sigma at 1e5 samples (" + "; ".join(details)
            + "), Briend-Duval bound holds on the shipped suite", elapsed, 30.0)


def test_criterion_7_lyapunov_slope():
    t0 = time.monotonic()
    cfg = load_config("""
[experiment]
kind = lyap-slope
label = quad-pole
family = z^2 + 1/t
r = 0.5
[tgrid]
moduli = 1e-2, 1e-3, 1e-4, 1e-5, 1e-6
phases = 8
[sampler]
seed = 701
n_burn = 100
n_keep = 20000
[green]
n_max = 16
""")
    rec = run(cfg)
    s = rec.summary
    _collected_measures.append(s["measure_total_mass"])
    # signed: the slope and the exact non-Archimedean ratio are both +1/2
    slope_ok = abs(s["slope"] - 0.5) <= 0.05
    # every cell is certified by preimage quadrature, so the oracle check is
    # absolute, not in standard errors
    quad_ok = all(row[8] is True for row in rec.rows)
    oracle_dev = max(abs(row[4] - row[6]) for row in rec.rows)
    oracle_ok = quad_ok and oracle_dev <= 1e-10 and s["max_oracle_deviation_sigmas"] <= 3.0
    na_ok = (s["na_lyapunov_exact"] is True and abs(s["na_ratio"] - 0.5) <= 0.05
             and abs(s["slope_discrepancy"]) <= 0.05)
    elapsed = time.monotonic() - t0
    _report(7, slope_ok and oracle_ok and na_ok,
            f"slope = {s['slope']:+.4f} (+0.5 +/- 0.05), "
            f"{len(rec.rows) - s['uncertified_cells']}/{len(rec.rows)} cells certified, "
            f"oracle within {oracle_dev:.1e} (<=1e-10), "
            f"exact non-Archimedean ratio {s['na_ratio']:+.4f}", elapsed, 300.0)


def test_criterion_8_hybrid_convergence():
    t0 = time.monotonic()
    base = """
[experiment]
kind = hybrid-converge
label = conv-{name}
family = z^2
r = 0.5
[tgrid]
moduli = 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6
phases = 4
[sampler]
seed = 801
n_burn = 80
n_keep = 4000
[datum]
sections = {sections}
"""
    ok = True
    details = []
    for name, sections in (("coord", "w0; w1"), ("twist", "t*w0; t*w1")):
        cfg = load_config(base.format(name=name, sections=sections))
        rec = run(cfg)
        s = rec.summary
        _collected_measures.append(s["measure_total_mass"])
        ok = ok and s["final_abs_error"] < 0.05 and s["monotone_within_stderr"]
        details.append(f"{name}: err@1e-6 = {s['final_abs_error']:.2e}")
    elapsed = time.monotonic() - t0
    _report(8, ok, "integral errors " + ", ".join(details)
            + " (<0.05), nonincreasing within stderr", elapsed, 120.0)


def test_criterion_9_conservation_and_determinism(tmp_path):
    t0 = time.monotonic()
    mass_ok = all(abs(m - 1.0) < 1e-9 for m in _collected_measures)
    extra = []
    for text in FAMILY_TEXTS:
        fam = parse_family(text)
        n_max = 12 if fam.is_polynomial() else 5
        ev = berkovich.GreenEvaluator(fam, R, n_max=n_max)
        tree = berkovich.build_probe_tree(fam, q=2)
        mu = berkovich.tree_ma(lambda v: ev.exponent(v)[0], tree, R)
        extra.append(mu.total_mass())
    mass_ok = mass_ok and all(abs(m - 1.0) < 1e-9 for m in extra)
    cfg_text = ("[experiment]\nkind = lyap-slope\nlabel = det\nfamily = z^2 + 1/t\n"
                "r = 0.5\n[tgrid]\nmoduli = 1e-2, 1e-3, 1e-4\nphases = 2\n"
                "[sampler]\nseed = 901\nn_burn = 40\nn_keep = 1500\n"
                "[green]\nn_max = 16\n")
    cfg = load_config(cfg_text)
    run(cfg, out_dir=str(tmp_path / "a"))
    run(cfg, out_dir=str(tmp_path / "b"))
    b1 = (tmp_path / "a" / "det.csv").read_bytes()
    b2 = (tmp_path / "b" / "det.csv").read_bytes()
    byte_ok = b1 == b2
    elapsed = time.monotonic() - t0
    n_measures = len(_collected_measures) + len(extra)
    _report(9, mass_ok and byte_ok,
            f"{n_measures} tree measures total 1 +/- 1e-9, re-run CSV bodies "
            f"byte-identical", elapsed, 120.0)

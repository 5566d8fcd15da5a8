"""Config validation, fits, persistence, and the experiment surfaces."""

import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import hybdyn
from hybdyn import berkovich, cli, cxdyn
from hybdyn.cli import main as cli_main
from hybdyn.errors import ChartError, ConfigError, PrecisionError
from hybdyn.harness import (_fmt_cell, _grid_cells, cmd_circle_demo, fit_slope,
                            load_config, load_record, run, write_record)
from hybdyn.parser import parse_family

CIRCLE_INI = """
[experiment]
kind = circle-demo
label = unit
r = 0.5

[series]
f = t
j_max = 12
"""

SLOPE_INI = """
[experiment]
kind = lyap-slope
label = square
family = z^2
r = 0.5

[tgrid]
moduli = 1e-1, 1e-2, 1e-3
phases = 2

[sampler]
seed = 23
n_burn = 40
n_keep = 800
"""

# every cell of this grid is certified by preimage quadrature
POLE_SLOPE_INI = """
[experiment]
kind = lyap-slope
label = pole
family = z^2 + 1/t
r = 0.5

[tgrid]
moduli = 1e-2, 1e-3, 1e-4
phases = 2

[sampler]
seed = 29
n_burn = 40
n_keep = 1500
"""

CONVERGE_INI = """
[experiment]
kind = hybrid-converge
label = conv
family = z^2
r = 0.5

[tgrid]
moduli = 1e-2, 1e-4, 1e-6
phases = 2

[sampler]
seed = 23
n_burn = 40
n_keep = 500

[datum]
sections = w0 + w1; w1
"""

# a datum with a fractional power of t, evaluated on the principal branch
RAMIFIED_INI = """
[experiment]
kind = hybrid-converge
label = ramified
family = z^2 + 1/t
r = 0.5

[tgrid]
moduli = 1e-2, 1e-3, 1e-4
phases = 2

[sampler]
seed = 3
n_burn = 40
n_keep = 200

[datum]
sections = t^(1/2)*w0; w1
"""


# ROADMAP item 2's datum, whose non-Archimedean target is wrong today
ITEM2_INI = """
[experiment]
kind = hybrid-converge
label = item2
family = z^2 + 1/t
r = 0.5

[tgrid]
moduli = 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6
phases = 4

[sampler]
n_keep = 4000

[datum]
sections = t*w0^2 + w1^2; t*w1^2
k = 1
d = 2
"""


# malformed or out-of-range values, each appended to NA_INI, and the
# config error each must raise
NA_INI = "[experiment]\nkind = na-measure\nlabel = bad\nfamily = z^2 + 1/t\nr = 0.5\n"
BAD_VALUES = [
    ("[probes]\nq = 0", "probes.q must be >= 1"),
    ("[probes]\ns_min = 3\ns_max = -3", "exceeds probes.s_max"),
    ("[probes]\norbit_len = -1", "probes.orbit_len must be >= 0"),
    ("[probes]\ns_min = 1/0", "probes.s_min must be a rational number"),
    ("[sampler]\nn_keep = abc", "sampler.n_keep must be an integer"),
    ("[sampler]\nstart = north", "sampler.start must be a complex number"),
    ("[tgrid]\nphases = x", "tgrid.phases must be an integer"),
    ("[tgrid]\nmoduli = 1e-2, x", "tgrid.moduli must be a number"),
    ("[tgrid]\nmod_count = 5", "unknown key 'mod_count'"),
    ("[sampler]\nstart = nan", "sampler.start must be finite"),
    ("[sampler]\nstart = inf", "sampler.start must be finite"),
    ("[sampler]\nstart = 2ni", "sampler.start must be a complex number, got '2ni'"),
    ("[probes]\ninclude_critical = maybe", "probes.include_critical must be a boolean"),
    ("[green]\nn_max = -1", "green.n_max must be >= 0"),
    ("[green]\ntol = 0", "green.tol must be > 0"),
    ("[green]\ntol = -1", "green.tol must be > 0"),
    ("[sampler]\nseed = -1", "sampler.seed must be >= 0"),
    ("[series]\nj_max = -1", "series.j_max must be >= 0"),
    ("[datum]\nk = 2", "datum.k must be 1"),
]

SHIPPED_IDS = {
    "circle-demo.ini": "circle-demo-04c7fa7f35191b60",
    "hybrid-converge-square.ini": "hybrid-converge-square-fb944e4bfac6322b",
    "lyap-slope-quad-pole.ini": "lyap-slope-quad-pole-a4826ddb3bd63980",
    "na-measure-quad-pole.ini": "na-measure-quad-pole-3b8825379d1f3579",
    "na-measure-rational.ini": "na-measure-rational-dc07784bad5cb7fa",
}
BENCH_IDS = {
    "lyap-quad-pole": "lyap-slope-quad-pole-090fec771ea6037a",
    "hybrid-cubic": "hybrid-cubic-3a172598541b3a2d",
    "na-deep-tree": "na-deep-tree-9ed7b24a43829ff1",
    "na-rational": "na-rational-6120326719feda68",
}
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the na-deep-tree and na-rational benchmark workloads' configs, verbatim
DEEP_TREE_INI = """\
[experiment]
kind = na-measure
label = na-deep-tree
family = z^2 + 1/t
r = 0.5

[green]
n_max = 16
tol = 1e-3

[probes]
s_min = -4
s_max = 4
q = 4
orbit_len = 3
include_critical = true
"""

RATIONAL_INI = """\
[experiment]
kind = na-measure
label = na-rational
family = (z^2 - t)/z
r = 0.5

[green]
n_max = 8
tol = 1e-3
"""

# sha256 of the na-measure CSVs (exact exponents and chart renderings, no
# numpy kernels, so the same on every platform)
GOLDEN_CSV = {
    "na-measure-quad-pole.ini":
        "9df90cd4775085eb11d9f773a82248226a90813c21789f70e679d58079ae8d9f",
    "na-measure-rational.ini":
        "9bdc00bc9001e3d811cf66a9d5642908a4af3a09bf665ec394e7075e82a30441",
    "deep-tree": "14f3d82aeac159590539ae7833e3e24e98f2b97d52a43121e96de9fd0c130e7d",
    "rational": "0d1890366d495b4437ef492d74068b2a581b4d2d3b141ca9f475a29ddcbb80a5",
}


def bench_configs(monkeypatch):
    """The benchmark workloads' INI texts at seed 401, by workload name."""
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(ROOT, "bench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # for its dataclass
    spec.loader.exec_module(workloads)
    return {name: w.config.format(seed=401) for name, w in workloads.WORKLOADS.items()}


class TestConfig:
    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            load_config("[experiment]\nkind = circle-demo\n[mystery]\nx = 1\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config("[experiment]\nkind = circle-demo\nturbo = on\n")

    def test_bad_radius(self):
        with pytest.raises(ConfigError, match="lie in"):
            load_config("[experiment]\nkind = circle-demo\nr = 1.5\n"
                        "[series]\nf = t\n")

    @pytest.mark.parametrize("label", ["", ".", "..", "sub/x", "../x", "/abs", "a\\b"])
    def test_label_must_be_a_file_name(self, label):
        with pytest.raises(ConfigError, match="experiment.label must be a plain file name"):
            load_config(NA_INI.replace("label = bad", f"label = {label}"))

    def test_modulus_outside_disk(self):
        with pytest.raises(ConfigError, match="outside the punctured disk"):
            load_config("[experiment]\nkind = lyap-slope\nfamily = z^2\nr = 0.5\n"
                        "[tgrid]\nmoduli = 0.7\n")

    def test_kind_mismatch(self):
        with pytest.raises(ConfigError, match="does not match"):
            load_config(CIRCLE_INI, kind="lyap-slope")

    def test_slope_fit_needs_three_moduli(self):
        with pytest.raises(ConfigError, match="degenerate with fewer"):
            load_config("[experiment]\nkind = lyap-slope\nfamily = z^2\nr = 0.5\n"
                        "[tgrid]\nmoduli = 1e-2, 1e-3\n")

    @pytest.mark.parametrize("key, value", [("n_keep", -5), ("n_burn", -3),
                                            ("n_keep", 0), ("n_keep", 1)])
    def test_bad_sampler_size(self, key, value):
        for text in (SLOPE_INI, CONVERGE_INI):
            cfg = load_config(text)
            line = f"{key} = {getattr(cfg, key)}"
            assert line in text
            with pytest.raises(ConfigError, match=f"sampler.{key} must be"):
                load_config(text.replace(line, f"{key} = {value}"))

    def test_budget_must_reach_three_levels(self):
        # three quadrature levels, d^3 points, are the fewest that certify
        for text in (SLOPE_INI, CONVERGE_INI):
            line = f"n_keep = {load_config(text).n_keep}"
            assert load_config(text.replace(line, "n_keep = 8")).n_keep == 8
            with pytest.raises(ConfigError, match=r"sampler.n_keep must be >= d\^3 = 8 "):
                load_config(text.replace(line, "n_keep = 7"))
        cubic = POLE_SLOPE_INI.replace("z^2 + 1/t", "z^3 + t*z")
        with pytest.raises(ConfigError, match=r"d\^3 = 27 for a degree-3 family, got 26"):
            load_config(cubic.replace("n_keep = 1500", "n_keep = 26"))

    def test_family_degree_below_two(self):
        for text in (SLOPE_INI, CONVERGE_INI):
            with pytest.raises(ConfigError, match="experiment.family: family degree 1 < 2"):
                load_config(text.replace("family = z^2", "family = z + t"))

    @pytest.mark.parametrize("extra, match", BAD_VALUES)
    def test_bad_values(self, extra, match):
        with pytest.raises(ConfigError, match=match):
            load_config(NA_INI + extra + "\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="family is required"):
            load_config("[experiment]\nkind = na-measure\n")

    def test_experiment_ids_pinned(self, monkeypatch):
        # the config hash is in every CSV header; these ids are the shipped
        # configs' and the bench configs' at seed 401
        for name, want in SHIPPED_IDS.items():
            with open(os.path.join(ROOT, "configs", name)) as fh:
                assert load_config(fh.read()).experiment_id == want
        configs = bench_configs(monkeypatch)
        for name, want in BENCH_IDS.items():
            assert load_config(configs[name]).experiment_id == want

    def test_output_dir_not_hashed(self):
        a = load_config(CIRCLE_INI)
        b = load_config(CIRCLE_INI + "[output]\ndir = elsewhere\n")
        assert b.out_dir == "elsewhere"
        assert a.config_hash() == b.config_hash()

    def test_malformed_ini(self):
        with pytest.raises(ConfigError, match="malformed config"):
            load_config("kind = circle-demo\n")
        with pytest.raises(ConfigError, match="malformed config"):
            load_config(CIRCLE_INI + "[experiment]\nr = 0.25\n")

    def test_path_to_a_directory(self, tmp_path):
        with pytest.raises(ConfigError, match=re.escape(f"{str(tmp_path)!r} is a directory")):
            load_config(str(tmp_path))

    def test_path_to_no_file(self, tmp_path):
        for missing in ("configs/typo.ini", str(tmp_path / "typo.ini")):
            with pytest.raises(ConfigError, match=re.escape(f"{missing!r} is missing")):
                load_config(missing)

    def test_hash_depends_on_seed(self):
        a = load_config(SLOPE_INI)
        b = load_config(SLOPE_INI)
        b.seed = 99
        assert a.config_hash() != b.config_hash()


class TestFit:
    def test_synthetic_exact(self):
        xs = np.linspace(1.0, 9.0, 7)
        ys = 0.5 * xs + 3.0
        slope, intercept, stderr = fit_slope(xs, ys)
        assert abs(slope - 0.5) < 1e-12
        assert abs(intercept - 3.0) < 1e-12
        assert stderr < 1e-12

    def test_noise_gives_stderr(self):
        rng = np.random.default_rng(0)
        xs = np.linspace(0, 10, 40)
        ys = 2.0 * xs + rng.normal(scale=0.5, size=40)
        slope, _, stderr = fit_slope(xs, ys)
        assert abs(slope - 2.0) < 4 * stderr

    def test_degenerate_fit(self):
        with pytest.raises(ConfigError):
            fit_slope([1.0], [2.0])


class TestCircleDemo:
    def test_t_column_constant(self):
        rec = cmd_circle_demo(load_config(CIRCLE_INI))
        values = [row[2] for row in rec.rows]
        assert all(v == pytest.approx(0.5, abs=1e-12) for v in values)

    def test_inverse_t_column(self):
        # monomials evaluate exactly to r**ord at every point of the circle
        cfg = load_config(CIRCLE_INI.replace("f = t", "f = t^-1"))
        rec = cmd_circle_demo(cfg)
        assert rec.summary["limit"] == pytest.approx(2.0)
        assert all(row[4] < 1e-12 for row in rec.rows)

    def test_nonmonomial_error_decreases(self):
        cfg = load_config(CIRCLE_INI.replace("f = t", "f = t^-1 + 1"))
        rec = cmd_circle_demo(cfg)
        assert rec.summary["limit"] == pytest.approx(2.0)
        assert rec.rows[-1][4] < rec.rows[0][4]

    def test_one_plus_t_tends_to_one(self):
        cfg = load_config(CIRCLE_INI.replace("f = t", "f = 1 + t"))
        rec = cmd_circle_demo(cfg)
        assert rec.summary["limit"] == 1.0
        assert rec.rows[-1][2] == pytest.approx(1.0, abs=1e-3)


class TestPersistence:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = load_config(SLOPE_INI)
        rec1 = run(cfg, out_dir=str(tmp_path))
        body1 = (tmp_path / "square.csv").read_bytes()
        rec2 = run(cfg, out_dir=str(tmp_path))
        body2 = (tmp_path / "square.csv").read_bytes()
        assert body1 == body2
        assert rec1.rows == rec2.rows

    @pytest.mark.parametrize("name", sorted(GOLDEN_CSV))
    def test_golden_na_measure_csv(self, tmp_path, name):
        if name.endswith(".ini"):
            with open(os.path.join(ROOT, "configs", name)) as fh:
                text = fh.read()
        else:
            text = DEEP_TREE_INI if name == "deep-tree" else RATIONAL_INI
        cfg = load_config(text)
        csv_path, _ = write_record(run(cfg), str(tmp_path))
        with open(csv_path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == GOLDEN_CSV[name]

    def test_hash_mismatch_refused(self, tmp_path):
        cfg = load_config(SLOPE_INI)
        run(cfg, out_dir=str(tmp_path))
        other = load_config(SLOPE_INI)
        other.seed = 99
        with pytest.raises(ConfigError, match="refusing to overwrite"):
            write_record(run(other), str(tmp_path))

    def test_load_record_checks_hash(self, tmp_path):
        cfg = load_config(SLOPE_INI)
        run(cfg, out_dir=str(tmp_path))
        assert load_record(str(tmp_path), cfg)["config_hash"] == cfg.config_hash()
        other = load_config(SLOPE_INI)
        other.seed = 99
        with pytest.raises(ConfigError, match="config hash"):
            load_record(str(tmp_path), other)

    def test_numpy_scalars_format_as_python_scalars(self):
        cells = (np.bool_(True), np.int64(-7), np.float32(0.5), np.float64(-0.0),
                 Fraction(-3, 4))
        assert [_fmt_cell(x) for x in cells] == ["true", "-7", "0.5", "0.0", "-3/4"]
        for x in (np.bool_(False), np.int64(3), np.float32(0.1), np.float64(-0.0)):
            assert _fmt_cell(x) == _fmt_cell(x.item())

    def test_no_timestamps_in_csv(self, tmp_path):
        cfg = load_config(CIRCLE_INI)
        run(cfg, out_dir=str(tmp_path))
        text = (tmp_path / "unit.csv").read_text()
        assert "20" not in text.splitlines()[1] or "created" not in text


class TestExperiments:
    def test_lyap_slope_constant_family(self):
        rec = run(load_config(SLOPE_INI))
        s = rec.summary
        assert abs(s["slope"]) < 3 * s["slope_stderr"] + 1e-9
        assert s["na_ratio"] == 0.0
        assert math.copysign(1.0, s["na_lyapunov"]) == 1.0  # no -0.0
        for pm in s["per_modulus"]:
            assert pm["lyapunov"] == pytest.approx(math.log(2), abs=1e-9)
        assert s["briend_duval_ok"]

    def test_lyap_slope_exact_na_value(self):
        # z^2 + 1/t: the critical-point formula gives +1/2 log 2 exactly;
        # the probe tree's value stays beside it, sign unchecked (item 2)
        s = run(load_config(POLE_SLOPE_INI)).summary
        assert s["na_lyapunov"] == pytest.approx(0.5 * math.log(2), abs=1e-15)
        assert s["na_ratio"] == 0.5
        assert s["na_lyapunov_exact"] is True
        assert abs(s["na_lyapunov_tree"]) == pytest.approx(0.5 * math.log(2), abs=1e-12)
        assert s["slope_discrepancy"] == s["slope"] - 0.5
        assert abs(s["slope_discrepancy"]) < 0.05
        assert "observed_sign_relation" not in s and "abs_slope_discrepancy" not in s

    def test_lyap_slope_refuses_a_short_critical_list(self):
        # critical_centers resolves none of the three critical points
        cfg = load_config(POLE_SLOPE_INI.replace("z^2 + 1/t", "2*z^4 + z^3/t + z"))
        with pytest.raises(PrecisionError):
            run(cfg)

    def test_cell_row_independent_of_batch(self):
        # a cell's row is byte-identical whether it runs alone or with the
        # whole grid, on z^2 + 1/t, which certifies every cell, and on
        # (z^2 - t)/z, which certifies none
        cfg = load_config(POLE_SLOPE_INI)
        rational = load_config(POLE_SLOPE_INI.replace("z^2 + 1/t", "(z^2 - t)/z")
                               + "[green]\nn_max = 4\n")
        for c in (cfg, rational):
            family = parse_family(c.family)
            rec = run(c)
            for (j, p, m, t), row in zip(_grid_cells(c), rec.rows):
                stack = cxdyn.MapStack([cxdyn.specialize(family, t, r=c.r)])
                ((mean, err, _, certified),) = cxdyn.preimage_levels(
                    stack, c.n_keep, lambda cell, pts: cxdyn.log_det_norm(stack, pts))
                oracle = cxdyn.przytycki_oracle(family, t) if c is cfg else math.nan
                alone = [j, p, t.real, t.imag, mean, err, oracle, 0, certified]
                assert [_fmt_cell(x) for x in alone] == [_fmt_cell(x) for x in row]

    def test_hybrid_converge_decreasing(self):
        rec = run(load_config(CONVERGE_INI))
        s = rec.summary
        assert s["na_integral"] == 0.0
        errs = [pm["abs_error"] for pm in s["per_modulus"]]
        assert errs[-1] < 0.05
        assert s["monotone_within_stderr"]
        assert errs[0] > errs[-1]  # genuinely nontrivial integrand

    def test_estimates_cover_three_deeper_levels(self, monkeypatch):
        # no cell may stop early on an extrapolation: then every uncertified
        # cell of the hybrid-cubic grid and of (z^2 - t)/z lies within its
        # estimate of the same cell's level three deeper
        monkeypatch.setattr(cxdyn, "_levels_to_certify", lambda step, rho: 0)
        grids = []
        levels = cxdyn.preimage_levels

        def recorded(stack, n_keep, f):
            grids.append((stack, f, levels(stack, n_keep, f)))
            return grids[-1][2]

        monkeypatch.setattr(cxdyn, "preimage_levels", recorded)
        rational = POLE_SLOPE_INI.replace("z^2 + 1/t", "(z^2 - t)/z") + "[green]\nn_max = 4\n"
        for text, uncertified in ((bench_configs(monkeypatch)["hybrid-cubic"], 40),
                                  (rational, 6)):
            run(load_config(text))
            stack, f, results = grids[-1]
            root = cxdyn._repelling_root(stack)[0]
            cells = [i for i, (*_, certified) in enumerate(results) if not certified]
            assert len(cells) >= uncertified
            for i in cells:
                value, err, level, _ = results[i]
                pts = root[:, i: i + 1]
                for _ in range(level + 3):
                    with np.errstate(all="ignore"):
                        pts = cxdyn._solve(stack, np.full(pts.shape[1], i), pts).reshape(2, -1)
                assert abs(value - f(np.full(pts.shape[1], i), pts.T).mean()) <= err

    def test_monotone_flag_reads_false_on_a_rising_error(self):
        # ROADMAP item 2's datum on z^2 + 1/t: the error against the probe
        # tree's target rises from |t| = 1e-1 to 1e-2, far beyond every
        # estimate, so the flag must read false.  Item 2's fix of the
        # target restates this test.
        s = run(load_config(ITEM2_INI)).summary
        errs = [pm["abs_error"] for pm in s["per_modulus"]]
        assert errs[0] == pytest.approx(0.3465642, abs=1e-7)
        assert errs[-1] == pytest.approx(0.3465736, abs=1e-7)
        assert s["uncertified_cells"] == 0
        assert s["monotone_within_stderr"] is False

    def test_na_measure_summary(self):
        cfg = load_config("[experiment]\nkind = na-measure\nlabel = m\n"
                          "family = z^2 + 1/t\nr = 0.5\n[green]\nn_max = 16\n")
        rec = run(cfg)
        s = rec.summary
        assert s["total_mass"] == pytest.approx(1.0, abs=1e-9)
        assert s["na_ratio"] == pytest.approx(0.5, abs=1e-12)
        assert 0.0 <= s["leaf_mass_fraction"] <= 1.0
        assert s["good_reduction_exponent"] == "4/1"

    def test_na_measure_one_green_call_per_vertex(self, monkeypatch):
        calls = []
        exponent = berkovich.GreenEvaluator.exponent

        def counted(self, xi):
            calls.append(xi)
            return exponent(self, xi)

        monkeypatch.setattr(berkovich.GreenEvaluator, "exponent", counted)
        cfg = load_config("[experiment]\nkind = na-measure\nlabel = m\n"
                          "family = (z^2 - t)/z\nr = 0.5\n[green]\nn_max = 4\n")
        rec = run(cfg)
        assert len(calls) == len(rec.rows)
        assert len({id(v) for v in calls}) == len(rec.rows)

    def test_na_measure_one_chart_form_per_vertex(self, monkeypatch):
        # rows and the JSON measure share one record per vertex, and each
        # distinct z-chart center beyond the unit disk is inverted once
        calls, seen = [], []
        invert, forms = berkovich._invert_center, berkovich.chart_forms
        monkeypatch.setattr(berkovich, "_invert_center",
                            lambda a, s: calls.append(a) or invert(a, s))
        monkeypatch.setattr(berkovich, "chart_forms",
                            lambda points: seen.append(list(points)) or forms(points))
        rec = run(load_config(DEEP_TREE_INI))
        assert len(rec.rows) == 149 and len(seen) == 1 and len(seen[0]) == 149
        far = [p.zpair()[0] for p in seen[0] if p.zpair()[0].order() < 0]
        assert len(far) == sum(row[1] == "1/z" and row[2] != "0" for row in rec.rows) == 92
        assert len(calls) == len(set(calls)) == len(set(far)) == 7
        assert [row[1:4] for row in rec.rows] == [
            [m["chart"], m["center"], m["s"]] for m in rec.summary["measure"]]

    def test_na_measure_exact_green(self, tmp_path):
        # z^2 + 1/t: every vertex's orbit reaches the escape region, so each
        # row's bound is 0.0 (shipped config, then the dense probe grid)
        with open(os.path.join(ROOT, "configs", "na-measure-quad-pole.ini")) as fh:
            shipped = load_config(fh.read())
        deep = load_config("[experiment]\nkind = na-measure\nlabel = deep\n"
                           "family = z^2 + 1/t\nr = 0.5\n[green]\nn_max = 16\n"
                           "[probes]\ns_min = -4\ns_max = 4\nq = 4\norbit_len = 3\n")
        for cfg, size in ((shipped, 42), (deep, 149)):
            rec = run(cfg, out_dir=str(tmp_path))
            assert len(rec.rows) == size
            assert all(row[5] == 0.0 for row in rec.rows)
            assert rec.summary["green_exact_vertices"] == size
            assert rec.summary["green_tail_bound"] == 0.0
        with open(tmp_path / "deep.csv") as fh:
            assert fh.readline() == "# schema: hybdyn/na-measure/v5\n"

    def test_na_measure_non_unit_center_lead(self):
        # the critical orbit's centers have leads such as 2/27^3, whose
        # reciprocal does not round back to 1; inverting them used to fail
        cfg = load_config("[experiment]\nkind = na-measure\nlabel = m\n"
                          "family = 2*z^3 + z^2/t + 1/t^2\nr = 0.5\n[green]\nn_max = 16\n")
        s = run(cfg).summary
        assert s["total_mass"] == pytest.approx(1.0, abs=1e-9)
        assert s["clipped_mass"] == 0.0 and s["convention_failures"] == []

    def test_lyap_slope_routes(self, tmp_path):
        # z^2 + 1/t certifies every cell; (z^2 - t)/z certifies none, and
        # its cells report their last level with an estimate
        pole = run(load_config(POLE_SLOPE_INI), out_dir=str(tmp_path))
        rational = run(load_config(POLE_SLOPE_INI.replace("z^2 + 1/t", "(z^2 - t)/z")
                                   + "[green]\nn_max = 4\n"))
        for rec, certified in ((pole, True), (rational, False)):
            assert rec.columns[-1] == "certified"
            assert all(row[-1] is certified for row in rec.rows)
            assert rec.summary["uncertified_cells"] == (0 if certified else len(rec.rows))
        assert 3 <= pole.summary["max_quadrature_level"] <= 10
        assert 4 <= rational.summary["max_quadrature_level"] <= 10
        assert all(row[7] == 0 and row[5] < 1e-11 for row in pole.rows)
        assert all(row[7] == 0 and 1e-11 < row[5] < 0.1 for row in rational.rows)
        with open(tmp_path / "pole.csv") as fh:
            assert fh.readline() == "# schema: hybdyn/lyap-slope/v8\n"
        # a rational family keeps the probe tree's value, which is not exact
        assert rational.summary["na_lyapunov"] == rational.summary["na_lyapunov_tree"]
        assert rational.summary["na_lyapunov_exact"] is False

    def test_na_measure_rational_reports_tail_bound(self):
        cfg = load_config("[experiment]\nkind = na-measure\nlabel = m\n"
                          "family = (z^2 - t)/z\nr = 0.5\n[green]\nn_max = 8\n")
        rec = run(cfg)
        s = rec.summary
        assert s["green_exact_vertices"] == 0
        assert s["green_tail_bound"] > cfg.green_tol
        assert all(row[5] == s["green_tail_bound"] for row in rec.rows)

    def test_green_certified_flag(self, monkeypatch, tmp_path):
        # JSON only: the CSV columns do not change
        configs = bench_configs(monkeypatch)
        for name, certified in (("na-rational", False), ("na-deep-tree", True)):
            rec = run(load_config(configs[name]), out_dir=str(tmp_path))
            assert rec.summary["green_certified"] is certified
            assert "green_certified" not in rec.csv_text()


def _python(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter on this source."""
    src = os.path.dirname(os.path.dirname(hybdyn.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=ROOT, env=dict(os.environ, PYTHONPATH=src))
    return out.stdout.strip()


def test_import_leaves_scipy_unloaded():
    # numpy loads with the complex layer, which only the sampled kinds need
    code = """if True:
        import sys, hybdyn
        from hybdyn.harness import load_config
        print('scipy' in sys.modules, 'numpy' in sys.modules)
        load_config('configs/na-measure-quad-pole.ini')
        load_config('configs/circle-demo.ini')
        print('numpy' in sys.modules)
        load_config('configs/lyap-slope-quad-pole.ini')
        print('numpy' in sys.modules, 'hybdyn.cxdyn' in sys.modules)"""
    assert _python(code).split() == ["False", "False", "False", "True", "True"]


def test_sampled_runs_load_no_numpy_random():
    # every quadrature root is computed, none drawn: a lyap-slope and a
    # hybrid-converge run import neither numpy.random nor numpy.polynomial,
    # nor numpy.ma, which np.unique imports (13 ms in a fresh process)
    code = """if True:
        import sys
        from hybdyn.harness import load_config, run
        for name in ('lyap-slope-quad-pole', 'hybrid-converge-square'):
            cfg = load_config(f'configs/{name}.ini')
            cfg.out_dir = None  # nothing is written
            run(cfg)
        print('numpy' in sys.modules, sorted(
            name for name in sys.modules if name.split('.')[:2] in
            (['numpy', 'random'], ['numpy', 'polynomial'], ['numpy', 'ma'])))"""
    assert _python(code) == "True []"


CXDYN_EXPORTS = ("RationalMapC", "SampleSet", "backward_sample", "integrate_mu",
                 "przytycki_oracle", "specialize")


def test_package_exports_load_the_complex_layer_on_access():
    for name in ("cxdyn", *CXDYN_EXPORTS):
        assert name in dir(hybdyn)
    assert hybdyn.cxdyn is cxdyn
    for name in CXDYN_EXPORTS:
        assert getattr(hybdyn, name) is getattr(cxdyn, name)
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        hybdyn.nonexistent
    code = """if True:
        import sys, hybdyn
        print('hybdyn.cxdyn' in sys.modules)
        from hybdyn import specialize
        print('hybdyn.cxdyn' in sys.modules, specialize.__module__)"""
    assert _python(code).split() == ["False", "True", "hybdyn.cxdyn"]


NO_NUMPY_RUNS = (("na-measure", "configs/na-measure-quad-pole.ini"),
                 ("na-measure", "configs/na-measure-rational.ini"),
                 # the critical points solve the binomial residue edge 3y^2 + 1
                 ("na-measure", "[experiment]\nkind = na-measure\nlabel = cubic-pole\n"
                                "family = z^3 + z/t\nr = 0.5\n"),
                 ("circle-demo", "configs/circle-demo.ini"))


def test_non_archimedean_runs_without_numpy(tmp_path):
    configs = []
    for i, (kind, source) in enumerate(NO_NUMPY_RUNS):
        if source.startswith("["):
            path = tmp_path / f"config{i}.ini"
            path.write_text(source)
            source = str(path)
        configs.append((kind, source))
    code = f"""if True:
        import sys
        sys.modules['numpy'] = None  # any import of numpy now fails
        from hybdyn.cli import main
        for i, (kind, config) in enumerate({configs!r}):
            assert main([kind, '--config', config, '--out', f'{tmp_path}/restricted{{i}}']) == 0
        print(sorted(name for name in sys.modules if name.startswith('numpy')))"""
    assert _python(code).splitlines()[-1] == "['numpy']"  # only the blocked entry
    for i, (kind, config) in enumerate(configs):
        cfg = load_config(os.path.join(ROOT, config), kind=kind)
        run(cfg, out_dir=str(tmp_path / f"free{i}"))
        csv = f"{cfg.label}.csv"
        assert (tmp_path / f"restricted{i}" / csv).read_text() == \
            (tmp_path / f"free{i}" / csv).read_text()


class TestCli:
    def test_end_to_end(self, tmp_path):
        ini = tmp_path / "c.ini"
        ini.write_text(CIRCLE_INI)
        code = cli_main(["circle-demo", "--config", str(ini),
                         "--out", str(tmp_path / "res")])
        assert code == 0
        assert (tmp_path / "res" / "unit.csv").exists()
        payload = json.loads((tmp_path / "res" / "unit.json").read_text())
        assert payload["kind"] == "circle-demo"

    def test_config_error_exit_code(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[experiment]\nkind = circle-demo\nbogus = 1\n")
        assert cli_main(["circle-demo", "--config", str(ini)]) == 2

    def test_budget_below_three_levels_exit_code(self, tmp_path, capsys):
        ini = tmp_path / "small.ini"
        ini.write_text(CONVERGE_INI.replace("n_keep = 500", "n_keep = 4"))
        out = tmp_path / "out"
        assert cli_main(["hybrid-converge", "--config", str(ini), "--out", str(out)]) == 2
        assert "sampler.n_keep must be >= d^3 = 8" in capsys.readouterr().err
        assert not out.exists()

    def test_datum_off_p1_exit_code(self, tmp_path, capsys):
        # every family acts on P^1: a datum in w0, w1, w2 used to run, its
        # w2 dropped by the evaluator
        ini = tmp_path / "wide.ini"
        ini.write_text(CONVERGE_INI.replace("sections = w0 + w1; w1",
                                            "sections = w0^2; w2^2\nk = 2\nd = 2"))
        out = tmp_path / "out"
        assert cli_main(["hybrid-converge", "--config", str(ini), "--out", str(out)]) == 2
        assert "datum.k must be 1" in capsys.readouterr().err
        assert not out.exists()

    def test_datum_vanishing_on_a_grid_fiber_exit_code(self, tmp_path, capsys):
        # the datum vanishes on the fiber t = -0.1, phase 1 of the modulus
        # 0.1, and on no fiber at phase 0
        ini = tmp_path / "fiber.ini"
        ini.write_text("[experiment]\nkind = hybrid-converge\nlabel = fiber\n"
                       "family = z^2\nr = 0.5\n[tgrid]\nmoduli = 1e-1, 1e-2\nphases = 2\n"
                       "[datum]\nsections = (t + 0.1)*w0; (t + 0.1)*w1\n")
        out = tmp_path / "out"
        assert cli_main(["hybrid-converge", "--config", str(ini), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "no two datum sections are free of common zeros at t = (-0.1+" in err
        assert not out.exists()
        # every pair of these three sections shares a zero on every fiber,
        # though the three have none in common: rejected at the first fiber
        ini.write_text(ini.read_text().replace("(t + 0.1)*w0; (t + 0.1)*w1",
                                               "w0*w1; w0*(w0 - w1); w1*(w0 - w1)\nd = 2"))
        assert cli_main(["hybrid-converge", "--config", str(ini), "--out", str(out)]) == 2
        assert "free of common zeros at t = (0.1+0j)" in capsys.readouterr().err
        assert not out.exists()

    def test_short_critical_list_exit_code(self, tmp_path, capsys):
        # newton_puiseux finds 1 of the 3 critical points at the probe
        # tree's target, and a tree with one of them is no result
        ini = tmp_path / "short.ini"
        ini.write_text(NA_INI.replace("z^2 + 1/t", "z^4 + z^3 - 2*z^2*t - 1/t"))
        out = tmp_path / "out"
        assert cli_main(["na-measure", "--config", str(ini), "--out", str(out)]) == 3
        assert "1 of 3 roots resolved" in capsys.readouterr().err
        assert not out.exists()
        # without critical centers the tree is built
        ini.write_text(ini.read_text() + "[probes]\ninclude_critical = false\n")
        assert cli_main(["na-measure", "--config", str(ini), "--out", str(out)]) == 0

    def test_bad_values_exit_code(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        for extra, match in BAD_VALUES:
            ini.write_text(NA_INI + extra + "\n")
            assert cli_main(["na-measure", "--config", str(ini)]) == 2
            assert match in capsys.readouterr().err

    def test_label_outside_out_exit_code(self, tmp_path, capsys):
        ini = tmp_path / "c.ini"
        ini.write_text(CIRCLE_INI.replace("label = unit", "label = ../escape"))
        out = tmp_path / "res"
        assert cli_main(["circle-demo", "--config", str(ini), "--out", str(out)]) == 2
        assert "experiment.label" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["c.ini"]

    def test_ramified_datum_hybrid_converge(self, tmp_path, capsys):
        ini = tmp_path / "r.ini"
        ini.write_text(RAMIFIED_INI)
        assert cli_main(["hybrid-converge", "--config", str(ini),
                         "--out", str(tmp_path)]) == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        lines = (tmp_path / "ramified.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
        assert len(rows) == 6
        assert all(math.isfinite(float(x)) for row in rows for x in row[:-1])
        assert {row[-1] for row in rows} <= {"true", "false"}
        assert summary["final_abs_error"] < 1e-3

    def test_missing_config_file_exit_code(self, tmp_path, capsys):
        missing = str(tmp_path / "typo.ini")
        assert cli_main(["na-measure", "--config", missing]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "typo.ini" in err

    def test_duplicate_section_exit_code(self, tmp_path, capsys):
        ini = tmp_path / "dup.ini"
        ini.write_text(NA_INI + "[experiment]\nr = 0.25\n")
        assert cli_main(["na-measure", "--config", str(ini)]) == 2
        assert "config error: malformed config" in capsys.readouterr().err

    def test_infinite_literal_exit_code(self, tmp_path, capsys):
        ini = tmp_path / "big.ini"
        ini.write_text(NA_INI.replace("z^2 + 1/t", "z^2 + 1e400"))
        assert cli_main(["na-measure", "--config", str(ini)]) == 2
        assert "bad number literal '1e400'" in capsys.readouterr().err

    def test_negative_seed_override_exit_code(self, tmp_path, capsys):
        # there is no --seed flag: the command line rejects it, and a
        # negative seed in the config is a config error
        ini = tmp_path / "s.ini"
        ini.write_text(SLOPE_INI)
        with pytest.raises(SystemExit) as exc:
            cli_main(["lyap-slope", "--config", str(ini), "--seed", "-1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed -1" in capsys.readouterr().err
        ini.write_text(SLOPE_INI.replace("seed = 23", "seed = -1"))
        assert cli_main(["lyap-slope", "--config", str(ini)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "sampler.seed must be >= 0" in err

    def test_chart_error_exit_code(self, tmp_path, monkeypatch, capsys):
        def fail(cfg, out_dir=None):
            raise ChartError("points in different charts")

        monkeypatch.setattr(cli, "run", fail)
        ini = tmp_path / "c.ini"
        ini.write_text(CIRCLE_INI)
        assert cli_main(["circle-demo", "--config", str(ini)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_numerical_error_exit_code(self, tmp_path):
        ini = tmp_path / "degenerate.ini"
        ini.write_text("[experiment]\nkind = na-measure\nlabel = d\n"
                       "family = (z^2 + z)/(z^2 + z)\nr = 0.5\n")
        assert cli_main(["na-measure", "--config", str(ini)]) == 3

    def test_seed_changes_hash_not_rows(self, tmp_path):
        # sampler.seed is still hashed, but no sampled row depends on it
        for kind, text in (("lyap-slope", SLOPE_INI), ("hybrid-converge", CONVERGE_INI)):
            bodies, hashes = [], []
            for seed in ("23", "99"):
                ini = tmp_path / f"{kind}-{seed}.ini"
                ini.write_text(text.replace("seed = 23", f"seed = {seed}"))
                out = tmp_path / f"{kind}-{seed}"
                assert cli_main([kind, "--config", str(ini), "--out", str(out)]) == 0
                (csv,) = out.glob("*.csv")
                bodies.append(csv.read_text().splitlines()[2:])
                hashes.append(json.loads(csv.with_suffix(".json").read_text())["config_hash"])
            assert bodies[0] == bodies[1] and hashes[0] != hashes[1]

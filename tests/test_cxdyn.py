"""Complex-side sampling and Lyapunov estimation against classical oracles."""

import cmath
import itertools
import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from hybdyn import admissible, cxdyn
from hybdyn.cxdyn import (MapStack, RationalMapC, backward_sample, escape_green,
                          integrate_mu, log_det_norm, przytycki_oracle, specialize)
from hybdyn.errors import (DegenerateMapError, NoRepellingCycleError,
                           UnsupportedDegreeError, UnsupportedMapError)
from hybdyn.hybrid import HybridPoint, tau_eval
from hybdyn.laurent import LaurentSeries
from hybdyn.parser import parse_family, parse_sections, parse_series

LOG2 = math.log(2)


class TestSpecialize:
    def test_pole_family(self):
        rc = specialize(parse_family("z^2 + 1/t"), 0.1)
        assert rc.degree == 2
        assert rc.p0c[0] == pytest.approx(10.0)  # z^2 + 10
        assert rc.p0c[2] == pytest.approx(1.0)
        assert list(rc.p1c) == [1, 0, 0]  # denominator 1 in the z chart

    def test_constant_family(self):
        for tv in (0.1, 0.02 + 0.01j):
            rc = specialize(parse_family("z^2"), tv)
            assert rc.p0c[2] == 1.0 and rc.p1c[0] == 1.0 and rc.p0c[0] == 0.0

    def test_t_zero_rejected(self):
        with pytest.raises(DegenerateMapError):
            specialize(parse_family("z^2"), 0.0)

    def test_radius_enforced(self):
        with pytest.raises(DegenerateMapError):
            specialize(parse_family("z^2"), 0.9, r=0.5)

    def test_degenerate_map_detected(self):
        with pytest.raises(DegenerateMapError):
            RationalMapC([-1.0, 0.0, 1.0], [-1.0, 1.0, 0.0])  # share root z = 1

    def test_small_t_not_flagged(self):
        # strongly degenerating lift, still a genuine quadratic
        rc = specialize(parse_family("z^2 + 1/t"), 1e-6)
        assert rc.degree == 2

    def test_pole_families_tiny_t(self):
        # Res = 1 exactly; the float determinant's relative tolerance
        # 1e-15 (s0 s1)^d rejected these at 1e-6 and 1e-8
        for text in ("z^3 + 1/t", "z^2 + 1/t"):
            fam = parse_family(text)
            for tv in (1e-6, 1e-8, 1e-8j, -1e-8):
                rc = specialize(fam, tv)
                assert rc.degree == fam.degree and rc.resultant == 1

    def test_degenerate_specialization_rejected(self):
        # z^2 - t and z - 1/10 share the root 1/10 at t = 1/100
        fam = parse_family("(z^2 - t)/(z - 1/10)")
        with pytest.raises(DegenerateMapError):
            specialize(fam, 0.01)
        assert specialize(fam, 0.0101).degree == 2

    def test_truncated_resultant_keeps_float_check(self):
        # 1/(1 - t) is a truncated series, so the resultant is known only to
        # its truncation order and the float determinant's tolerance decides
        fam = parse_family("(z^3 + 1/t) * (1/(1 - t))")
        assert fam.resultant.trunc is not None
        assert specialize(fam, 1e-2).degree == 3
        with pytest.raises(DegenerateMapError, match="vanishes to tolerance"):
            specialize(fam, 1e-8)

    def test_resultant_series_built_once(self, monkeypatch):
        from hybdyn import berkovich
        fam = parse_family("z^3 + 1/t")
        calls = []
        det = berkovich._det_laurent
        monkeypatch.setattr(berkovich, "_det_laurent",
                            lambda m: calls.append(1) or det(m))
        for k in range(5):
            specialize(fam, 10.0 ** -k / 2)
        assert calls == []
        specialize(parse_family("z^3 + 1/t", validate=False), 0.1)
        assert calls == [1]



def _principal(t, e):
    """t^(1/e) typed in from the modulus and the argument in (-pi, pi]."""
    return cmath.rect(abs(t) ** (1 / e), cmath.phase(t) / e)


def _literal(c):
    return f"({c.real!r}{c.imag:+.17g}i)"


class TestMixedRamification:
    """Coefficients of ramification 2 and 3 are evaluated on the principal
    branch, so together they sit on the principal branch of t^(1/6)."""

    def test_specialize(self):
        rc = specialize(parse_family("z^2 + t^(1/2)*z + t^(1/3)"), 0.01)
        assert rc.p0c == pytest.approx([0.01 ** (1 / 3), 0.1, 1.0], rel=1e-14)

    def test_oracle(self):
        # t^(-1/3) = 4.64... sends the critical point to infinity, so the
        # oracle depends on the coefficient values
        fam = parse_family("z^2 + t^(1/2)*z + 1/t^(1/3)")
        ref = parse_family(f"z^2 + 0.1*z + {0.01 ** (-1 / 3)!r}")
        assert przytycki_oracle(fam, 0.01) == pytest.approx(
            przytycki_oracle(ref, 0.01), rel=1e-12)
        assert przytycki_oracle(fam, 0.01) > LOG2 + 0.5

    @pytest.mark.parametrize("t", [0.01, -0.01, -0.5, 0.6j, 0.5 * cmath.exp(2.5j),
                                   0.3 * cmath.exp(-2j), 0.8 * cmath.exp(3j)],
                             ids=lambda t: format(complex(t), ".3g"))
    def test_principal_branch_in_every_evaluator(self, t):
        """Every evaluator agrees with the same objects whose coefficients
        are typed in as the principal t^(1/2) and t^(1/3)."""
        a, b = _principal(t, 2), _principal(t, 3)
        fam = parse_family("z^2 + t^(1/2)*z + t^(1/3)")
        ref = parse_family(f"z^2 + {_literal(a)}*z + {_literal(b)}")
        rc, rc_ref = specialize(fam, t), specialize(ref, t)
        assert list(rc.p0c) == pytest.approx(list(rc_ref.p0c), rel=1e-14)
        assert list(rc.p1c) == pytest.approx(list(rc_ref.p1c), rel=1e-14)
        assert przytycki_oracle(fam, t) == pytest.approx(przytycki_oracle(ref, t), rel=1e-14)

        datum = parse_sections(["t^(1/2)*w0^2 + w1^2", "t^(1/3)*w0*w1"], k=1, d=2)
        datum_ref = parse_sections([f"{_literal(a)}*w0^2 + w1^2", f"{_literal(b)}*w0*w1"],
                                   k=1, d=2)
        rng = np.random.default_rng(44)
        z = [rng.normal(size=50) + 1j * rng.normal(size=50) for _ in range(2)]
        for s, s_ref in zip(datum.sections, datum_ref.sections):
            np.testing.assert_allclose(s.eval_numeric(z, t), s_ref.eval_numeric(z, t),
                                       rtol=1e-14)
        np.testing.assert_allclose(admissible.phi_canonical(datum, z, t),
                                   admissible.phi_canonical(datum_ref, z, t), rtol=1e-14)
        assert admissible.datum_regular(datum, [t]) is admissible.datum_regular(datum_ref, [t])

        p = HybridPoint.interior(t, 0.9)
        assert tau_eval(parse_series("t^(1/2) + t^(1/3)"), p) == pytest.approx(
            tau_eval(LaurentSeries.const(a + b), p), rel=1e-14)

class TestBackwardSampling:
    def test_circle_measure(self):
        rc = specialize(parse_family("z^2"), 0.1)
        s = backward_sample(rc, seed=7, n_burn=50, n_keep=3000, start=2.0)
        z = s.points[:, 0] / s.points[:, 1]
        assert np.abs(np.abs(z) - 1.0).max() < 1e-6

    def test_chebyshev_interval(self):
        rc = specialize(parse_family("z^2 - 2"), 0.1)
        s = backward_sample(rc, seed=7, n_burn=50, n_keep=3000, start=0.3 + 0.2j)
        z = s.points[:, 0] / s.points[:, 1]
        assert np.abs(z.imag).max() < 1e-6
        assert z.real.min() > -2 - 1e-9 and z.real.max() < 2 + 1e-9

    def test_deterministic(self):
        rc = specialize(parse_family("z^2 + 1/t"), 0.05)
        a = backward_sample(rc, seed=3, n_burn=20, n_keep=100, start=1.0)
        b = backward_sample(rc, seed=3, n_burn=20, n_keep=100, start=1.0)
        assert np.array_equal(a.points, b.points)
        c = backward_sample(rc, seed=4, n_burn=20, n_keep=100, start=1.0)
        assert not np.array_equal(a.points, c.points)

    def test_exceptional_start_recovers(self):
        rc = specialize(parse_family("z^2"), 0.1)
        s = backward_sample(rc, seed=5, n_burn=50, n_keep=500, start=0.0)
        z = s.points[:, 0] / s.points[:, 1]
        assert np.abs(np.abs(z) - 1.0).max() < 1e-6

    def test_matches_scalar_reference(self):
        # burn-in shorter than the checked head, fewer kept points than
        # chains, a last chain cut short, blocks of draws, restarts
        for text, t, start in (("z^2 + 1/t", 1e-3, 1.1 + 0.7j), ("z^2", 0.1, 0.0),
                               ("z^3 + t*z", 1e-2, 2.0), ("(z^2 - t)/z", 0.05, 0.3j)):
            rc = specialize(parse_family(text), t)
            for n_burn in (0, 2, 30):
                for n_keep in (1, 7, 16, 17, 1001, 1500):
                    s = backward_sample(rc, seed=8, n_burn=n_burn, n_keep=n_keep,
                                        start=start)
                    ref = _scalar_walk(rc, 8, n_burn, n_keep, start)
                    assert s.points.tobytes() == ref.tobytes()

    def test_kernel_blocks_do_not_change_the_walk(self, monkeypatch):
        # blocks of 4 preimages: one step of 16 chains, or of a 5-cell
        # burn-in, spans several kernel blocks; the point at infinity under
        # (z^2 - t)/z sends rows through the scalar solve
        cases = [("z^2 + 1/t", 1e-3, 1.1 + 0.7j), ("z^3 + t*z", 1e-2, 2.0),
                 ("(z^2 - t)/z", 0.05, (1, 0))]
        blocks = []
        roots = cxdyn._roots
        monkeypatch.setattr(cxdyn, "_roots", lambda qc: blocks.append(len(qc)) or roots(qc))

        def run():
            out = []
            for text, t, start in cases:
                fam = parse_family(text)
                rc = specialize(fam, t)
                out.append(backward_sample(rc, 9, 30, 500, start).points.tobytes())
                stack = MapStack([specialize(fam, t * 1j ** k) for k in range(5)])
                rngs = [np.random.default_rng(s) for s in range(5)]
                out.append(cxdyn._burn_in(stack, rngs, 30, start).tobytes())
                out.append(b"".join(str(rng.bit_generator.state).encode() for rng in rngs))
            return out

        whole = run()
        assert max(blocks) == 16
        blocks.clear()
        monkeypatch.setattr(cxdyn, "_BLOCK_POINTS", 4)
        assert run() == whole
        assert max(blocks) == 2


class TestIntegration:
    def setup_method(self):
        self.rc = specialize(parse_family("z^2"), 0.1)
        self.s = backward_sample(self.rc, seed=11, n_burn=50, n_keep=4000, start=2.0)

    def test_constant(self):
        res = integrate_mu(self.rc, lambda pts: np.full(len(pts), 3.25), self.s)
        assert res.mean == 3.25 and res.stderr == 0.0 and res.n_excluded == 0

    def test_log_abs_on_circle(self):
        def f(pts):
            z = pts[:, 0] / pts[:, 1]
            return np.log(np.abs(z))

        res = integrate_mu(self.rc, f, self.s)
        assert abs(res.mean) < 3 * max(res.stderr, 1e-12) + 1e-9

    def test_linearity(self):
        f = lambda pts: np.abs(pts[:, 0])
        g = lambda pts: np.abs(pts[:, 1])
        a, b = 2.0, -0.3
        combined = integrate_mu(self.rc, lambda p: a * f(p) + b * g(p), self.s)
        fa = integrate_mu(self.rc, f, self.s)
        gb = integrate_mu(self.rc, g, self.s)
        assert combined.mean == pytest.approx(a * fa.mean + b * gb.mean, abs=1e-12)

    def test_excluded_counted(self):
        def f(pts):
            out = np.zeros(len(pts))
            out[::7] = -np.inf
            return out

        res = integrate_mu(self.rc, f, self.s)
        assert res.n_excluded == len(self.s.points[::7])
        assert res.warn  # > 1% excluded

    def test_invariance(self):
        # the measure is balanced: averaging f over the d preimages of each
        # sample point leaves the integral unchanged
        def f(pts):
            return np.log1p(np.abs(pts[:, 0] / np.where(pts[:, 1] != 0, pts[:, 1], 1)))

        def pulled_back(pts):
            return np.array([f(cxdyn._preimages(self.rc, x)).mean() for x in pts])

        direct = integrate_mu(self.rc, f, self.s)
        pulled = integrate_mu(self.rc, pulled_back, self.s)
        sigma = math.hypot(direct.stderr, pulled.stderr)
        assert abs(direct.mean - pulled.mean) < 3 * sigma + 1e-3


class TestLyapunov:
    def test_squaring(self):
        rc = specialize(parse_family("z^2"), 0.1)
        s = backward_sample(rc, seed=13, n_burn=50, n_keep=20000, start=2.0)
        res = integrate_mu(rc, lambda pts: log_det_norm(MapStack([rc]), pts), s)
        assert res.mean == pytest.approx(LOG2, abs=3 * res.stderr + 1e-9)

    def test_cubing(self):
        rc = specialize(parse_family("(z^3)/(1)"), 0.1)
        s = backward_sample(rc, seed=13, n_burn=50, n_keep=20000, start=2.0)
        res = integrate_mu(rc, lambda pts: log_det_norm(MapStack([rc]), pts), s)
        assert res.mean == pytest.approx(math.log(3), abs=3 * res.stderr + 1e-9)

    def test_chebyshev(self):
        rc = specialize(parse_family("z^2 - 2"), 0.1)
        s = backward_sample(rc, seed=13, n_burn=50, n_keep=40000, start=0.3 + 0.2j)
        res = integrate_mu(rc, lambda pts: log_det_norm(MapStack([rc]), pts), s)
        assert res.mean == pytest.approx(LOG2, abs=3 * res.stderr)

    def test_briend_duval_lower_bound(self):
        from hybdyn.presets import FAMILY_TEXTS
        for text in FAMILY_TEXTS:
            fam = parse_family(text)
            rc = specialize(fam, 0.07)
            s = backward_sample(rc, seed=17, n_burn=50, n_keep=5000, start=1.1 + 0.3j)
            res = integrate_mu(rc, lambda pts: log_det_norm(MapStack([rc]), pts), s)
            bound = 0.5 * math.log(fam.degree)
            assert res.mean >= bound - 3 * res.stderr


def _escape_green_polyval(coeffs, z0, n_max=700):
    """Reference ``escape_green``: the orbit through ``npoly.polyval``."""
    c = np.asarray(coeffs, dtype=complex)
    d = len(c) - 1
    z = complex(z0)
    for n in range(1, n_max + 1):
        z = complex(npoly.polyval(z, c))
        if abs(z) > 1e30:
            return (math.log(abs(z)) + math.log(abs(c[d])) / (d - 1)) / d ** n
    return 0.0


class TestEscapeOracle:
    def test_bounded_orbit(self):
        assert escape_green([0.0, 0.0, 1.0], 0.0) == 0.0  # z^2, critical at 0

    def test_large_c_asymptotics(self):
        c = 1e6
        g = escape_green([c, 0.0, 1.0], 0.0)
        assert abs(g - 0.5 * math.log(c)) < 1e-3

    def test_przytycki_squaring(self):
        assert przytycki_oracle(parse_family("z^2"), 0.1) == pytest.approx(LOG2)

    def test_przytycki_pole_family(self):
        fam = parse_family("z^2 + 1/t")
        tv = 1e-6
        val = przytycki_oracle(fam, tv)
        assert abs(val - (LOG2 + 0.5 * math.log(1 / tv))) < 1e-3

    def test_cross_oracle_agreement(self):
        fam = parse_family("z^2 + 1/t")
        tv = 1e-3
        rc = specialize(fam, tv)
        s = backward_sample(rc, seed=19, n_burn=60, n_keep=20000, start=1 + 1j)
        res = integrate_mu(rc, lambda pts: log_det_norm(MapStack([rc]), pts), s)
        assert abs(res.mean - przytycki_oracle(fam, tv)) < 3 * res.stderr + 1e-6

    def test_non_polynomial_rejected(self):
        with pytest.raises(UnsupportedMapError):
            przytycki_oracle(parse_family("(z^2 - t)/z"), 0.1)

    def test_horner_matches_polyval(self):
        # the Python-complex Horner orbit against the npoly.polyval one, on
        # the shipped polynomial families over 6 moduli x 8 phases, at the
        # critical points and at random points
        from hybdyn.presets import FAMILY_TEXTS
        rng = np.random.default_rng(29)
        families = [parse_family(text) for text in FAMILY_TEXTS]
        families = [fam for fam in families if fam.is_polynomial()]
        escaped = orbits = 0
        for fam in families:
            for m in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
                for p in range(8):
                    t = m * cmath.exp(2j * math.pi * p / 8)
                    coeffs = np.array([c.eval(t) for c in fam.affine_coeffs], dtype=complex)
                    crit = np.roots(npoly.polyder(coeffs)[::-1])
                    starts = list(crit) + list(rng.normal(size=3) + 1j * rng.normal(size=3))
                    for z0 in starts:
                        g = escape_green(coeffs, complex(z0))
                        assert g == _escape_green_polyval(coeffs, complex(z0))
                        escaped += g > 0
                        orbits += 1
        # four quadratics with one critical point, a cubic with two
        assert len(families) == 5 and orbits == 48 * (4 * (1 + 3) + (2 + 3))
        assert escaped > orbits // 2

    def test_derivative_matches_polyder(self):
        # the critical points' derivative and the Wronskian rows of every
        # shipped family on the lyap grid (5 moduli x 8 phases), against the
        # npoly.polyder forms, bit for bit
        from hybdyn.presets import FAMILY_TEXTS

        def wronskian(a, b):
            return cxdyn._polysub(np.convolve(npoly.polyder(a), b),
                                  np.convolve(a, npoly.polyder(b)))

        derivatives = 0
        for fam in (parse_family(text) for text in FAMILY_TEXTS):
            for m in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
                for p in range(8):
                    t = m * cmath.exp(2j * math.pi * p / 8)
                    rc = specialize(fam, t)
                    stack = MapStack([rc])
                    assert stack._wz.tobytes() == wronskian(rc.p0c, rc.p1c).tobytes()
                    assert (stack._wu.tobytes()
                            == wronskian(rc.p1c[::-1], rc.p0c[::-1]).tobytes())
                    if fam.is_polynomial():
                        coeffs = np.array([c.eval(t) for c in fam.affine_coeffs],
                                          dtype=complex)
                        assert (cxdyn._derivative(coeffs).tobytes()
                                == npoly.polyder(coeffs).tobytes())
                        derivatives += 1
        assert derivatives == 5 * 40

    def test_wronskian_built_on_first_read(self):
        # a stack builds the Wronskian rows when they are first read: by the
        # quadrature's root, whose multipliers are log_det_norm sums, or by
        # the Lyapunov integrand
        fam = parse_family("z^3 + t*z")
        names = {"_wz", "_q0", "_q1", "_wu"}
        for first in (lambda st: cxdyn.preimage_levels(st, 100,
                                                       lambda cell, pts: np.zeros(len(pts))),
                      lambda st: log_det_norm(st, np.array([[0.5, 1.0], [1.0, 0.25j]]),
                                              np.array([1, 0]))):
            stack = MapStack([specialize(fam, 1e-2), specialize(fam, 1e-4j)])
            assert not names & set(vars(stack))
            first(stack)
            assert names <= set(vars(stack))
            assert all(stack.__dict__[name].shape[0] == 2 for name in names)

    def test_scaled_lead_conjugation(self):
        # a z^2 is conjugate to z^2: same Lyapunov exponent
        g = escape_green([0.0, 0.0, 5.0], 0.0)
        assert math.log(2) + g == pytest.approx(LOG2)


class TestPreimageDegrees:
    def test_high_degree_unsupported(self):
        coeffs = [0.0] * 9 + [1.0]
        rc = RationalMapC(coeffs, [1.0] + [0.0] * 9)
        with pytest.raises(UnsupportedDegreeError):
            backward_sample(rc, seed=1, n_burn=5, n_keep=5, start=1.5)

    def test_degree_8_roots(self):
        fam = parse_family("(z^8 + t)/(1)")
        rc = specialize(fam, 0.3)
        s = backward_sample(rc, seed=2, n_burn=30, n_keep=200, start=1.2)
        assert len(s.points) == 200


def _chordal(p, q) -> float:
    num = abs(p[0] * q[1] - p[1] * q[0])
    return num / (max(abs(p[0]), abs(p[1])) * max(abs(q[0]), abs(q[1])))


def _scalar_head(R, rng, start):
    """Reference head of one cell's chain: three scalar ``_preimages``
    steps, restarting from a perturbed start, up to 8 times, when all the
    preimages of the current point lie within 1e-12 of it.  Returns the
    point reached and the number of restarts."""
    d = R.degree
    point = cxdyn._as_point(start)
    for restarts in range(8):
        current = point
        for _ in range(3):
            pre = cxdyn._preimages(R, current)
            if all(_chordal(p, current) < 1e-12 for p in pre):
                break
            current = pre[rng.integers(d)]
        else:
            return current, restarts
        eps = 0.25 + 0.5 * rng.random()
        angle = 2 * math.pi * rng.random()
        point = cxdyn._as_point(cxdyn._to_affine(point)
                                + eps * complex(math.cos(angle), math.sin(angle)))
    raise DegenerateMapError("could not move the start off the exceptional set")


def _scalar_walk(R, seed, n_burn, n_keep, start):
    """Reference forked walk, one scalar _preimages solve per step.

    One chain burns in for max(n_burn, 3) steps, restarting from a perturbed
    start when the first three steps find it exceptional.  Its last point
    is copied into K = min(16, n_keep) chains of m = ceil(n_keep / K) steps;
    chain c takes its draws from column c of one (m, K) int64 block.  The
    sample is chain-major, truncated to n_keep.
    """
    rng = np.random.default_rng(seed)
    point = cxdyn._as_point(start)
    d = R.degree
    while True:
        current = point
        for step in range(max(n_burn, 3)):
            pre = cxdyn._preimages(R, current)
            if step < 3 and all(_chordal(p, current) < 1e-12 for p in pre):
                break
            current = pre[rng.integers(d)]
        else:
            break
        eps = 0.25 + 0.5 * rng.random()
        angle = 2 * math.pi * rng.random()
        point = cxdyn._as_point(cxdyn._to_affine(point)
                                + eps * complex(math.cos(angle), math.sin(angle)))
    n_chains = min(16, n_keep)
    n_steps = -(-n_keep // n_chains)
    draws = rng.integers(d, size=(n_steps, n_chains))
    kept = []
    for c in range(n_chains):
        chain = current
        for s in range(n_steps):
            chain = cxdyn._preimages(R, chain)[draws[s, c]]
            kept.append(chain)
    return np.array(kept[:n_keep]).reshape(n_keep, 2)


class TestBatchedHead:
    """``_head`` steps all cells at once; each cell's point and generator
    end as they do in the scalar reference walked alone."""

    @staticmethod
    def _power(d, k):
        return RationalMapC([0] * d + [k], [1] + [0] * d)

    def _grid(self, d):
        # from the start 0: z^d is exceptional and restarts once; K z^d
        # pulls its chain towards 0 so fast that the third step finds it
        # exceptional when the perturbed start lies close enough to 0, so
        # it restarts once or twice with these seeds; the third family
        # walks off at once
        other = specialize(parse_family("z^2 + 1/t" if d == 2 else "z^3 + t*z"), 1e-3)
        k = 8e15 if d == 2 else 1e27
        return [self._power(d, 1), self._power(d, k), other] * 8

    @pytest.mark.parametrize("d", [2, 3])
    def test_equals_scalar_head(self, d):
        maps = self._grid(d)
        seeds = range(100, 100 + len(maps))
        rngs = [np.random.default_rng(s) for s in seeds]
        with np.errstate(all="ignore"):
            head = cxdyn._head(MapStack(maps), rngs, 0.0)
        restarts = []
        for i, (R, seed) in enumerate(zip(maps, seeds)):
            rng = np.random.default_rng(seed)
            with np.errstate(all="ignore"):
                point, n = _scalar_head(R, rng, 0.0)
            restarts.append(n)
            assert head[:, i].tobytes() == point.tobytes()
            assert rngs[i].bit_generator.state == rng.bit_generator.state
        assert restarts[0::3] == [1] * 8 and max(restarts[1::3]) > 1
        assert restarts[2::3] == [0] * 8

    def test_exhausted_restarts_raise(self):
        # K z^2 with K = 1.5e16 finds every perturbed start exceptional
        maps = [self._power(2, 1), self._power(2, 1.5e16)]
        rngs = [np.random.default_rng(s) for s in (1, 2)]
        with pytest.raises(DegenerateMapError, match="exceptional"):
            with np.errstate(all="ignore"):
                _scalar_head(maps[1], np.random.default_rng(2), 0.0)
        with pytest.raises(DegenerateMapError, match="exceptional"):
            with np.errstate(all="ignore"):
                cxdyn._head(MapStack(maps), rngs, 0.0)


def _log_det_norm_polyval(R, pts):
    """Reference ``log_det_norm`` of one map through ``npoly.polyval``."""
    R = MapStack([R])
    pts = np.atleast_2d(pts)
    z_chart = np.abs(pts[:, 0]) <= np.abs(pts[:, 1])
    z = np.where(z_chart, cxdyn._safe_div(pts[:, 0], pts[:, 1]),
                 cxdyn._safe_div(pts[:, 1], pts[:, 0]))
    out = np.empty(len(pts))
    for mask, w, c0, c1 in ((z_chart, R._wz, R.p0c, R.p1c),
                            (~z_chart, R._wu, R._q0, R._q1)):
        zz = z[mask]
        wv = np.abs(npoly.polyval(zz, w[0]))
        v0 = np.abs(npoly.polyval(zz, c0[0]))
        v1 = np.abs(npoly.polyval(zz, c1[0]))
        out[mask] = np.log(wv) + np.log1p(np.abs(zz) ** 2) - np.log(v0 ** 2 + v1 ** 2)
    return out


def _test_points(n, seed):
    """0, infinity, points on the unit circle and random points in both
    charts, shuffled, as homogeneous pairs."""
    rng = np.random.default_rng(seed)
    circle = np.exp(2j * np.pi * rng.random(n))
    z = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** rng.integers(-3, 4, n)
    pts = np.concatenate([np.array([[0, 1], [1, 0]] * 8, dtype=complex),
                          np.stack([circle, np.ones(n)], axis=1),
                          [cxdyn._as_point(x) for x in z]])
    return pts[rng.permutation(len(pts))]


class TestAllCellEvaluators:
    """One call on the points of many cells gives every cell's values bit
    for bit, on batches past numpy's 256 KiB temporary-reuse threshold."""

    def test_log_det_norm(self):
        fam = parse_family("z^2 + 1/t")
        maps = [specialize(fam, tv) for tv in (1e-1, 1e-4j, -1e-8, 0.3 * cmath.exp(2.5j))]
        maps += [specialize(parse_family("z^2"), 0.1),
                 specialize(parse_family("(z^2 - t)/z"), -0.25)]
        # the Wronskian zeros: 0 and infinity for the polynomials, ±sqrt(-t)
        # = ±0.5 for the rational map
        crit = np.array([cxdyn._as_point(z) for z in (0.5, -0.5)])
        pts = np.concatenate([crit, _test_points(9000, 3)])
        cell = np.random.default_rng(4).integers(len(maps), size=len(pts))
        cell[:2] = len(maps) - 1
        with np.errstate(all="ignore"):
            values = log_det_norm(MapStack(maps), pts, cell)
        assert len(pts) * 16 > 256 * 1024
        for i, R in enumerate(maps):
            with np.errstate(all="ignore"):
                alone = log_det_norm(MapStack([R]), pts[cell == i])
                ref = _log_det_norm_polyval(R, pts[cell == i])
            assert values[cell == i].tobytes() == alone.tobytes() == ref.tobytes()
        assert np.isneginf(values[:2]).all()
        at_zero = (pts[:, 0] == 0) & (cell < len(maps) - 1)
        at_inf = (pts[:, 1] == 0) & (cell < len(maps) - 1)
        assert at_zero.any() and at_inf.any()
        assert np.isneginf(values[at_zero | at_inf]).all()

    def test_phi_canonical(self, monkeypatch):
        # coefficient sizes from 1e-8 to 1e4, a fractional power, and a
        # datum vanishing at 0; the grid's coefficient tables are built once,
        # and a call evaluates no coefficient
        ts = [1e-1, 1e-4j, -1e-8, 0.3 * cmath.exp(2.5j), 0.6 * cmath.exp(-2j)]
        pts = _test_points(9000, 5)
        cell = np.random.default_rng(6).integers(len(ts), size=len(pts))
        z = (pts[:, 0], pts[:, 1])
        infinite = []
        for sections, d in ((["w0^2 + t*w1^2", "t^(1/2)*w0*w1"], 2),
                            (["t*w0^2", "w0*w1/t"], 2), (["t*w0", "t*w1"], 1)):
            datum = parse_sections(sections, k=1, d=d)
            tables = admissible.coefficient_tables(datum, ts)
            with monkeypatch.context() as patch:
                patch.setattr(LaurentSeries, "eval", _raise)
                values = admissible.phi_canonical(datum, z, tables, cell)
            infinite.append(int(np.isneginf(values).sum()))
            for i, t in enumerate(ts):
                alone = admissible.phi_canonical(datum, (z[0][cell == i], z[1][cell == i]), t)
                assert values[cell == i].tobytes() == alone.tobytes()
        assert len(pts) * 16 > 256 * 1024
        assert infinite == [0, 8, 0]  # the second datum vanishes at the 8 points z = 0


def _solve(stack, rows, y):
    """The batched kernel on stack rows ``rows``, one point each: all its
    preimages, a (2, n, d) array."""
    with np.errstate(all="ignore"):
        return cxdyn._solve(stack, rows, y)


def _kernel_matches_scalar(stack, rows, targets):
    """Every preimage of the kernel equals the scalar one, bit for bit,
    with all points solved together, on the rows ``rows`` of ``stack``
    (its rows in order with ``rows`` None)."""
    if rows is None:
        rows = np.arange(len(stack.maps))
    y = np.array(targets, dtype=complex).T.copy()  # w0 row, w1 row
    with np.errstate(all="ignore"):
        ref = np.array([cxdyn._preimages(stack.maps[r], y[:, i]) for i, r in enumerate(rows)])
    assert _solve(stack, rows, y).transpose(1, 2, 0).tobytes() == ref.tobytes()


def _one_map(R, targets):
    """``_kernel_matches_scalar`` on every target under the one map R."""
    _kernel_matches_scalar(MapStack([R]), np.zeros(len(targets), dtype=int), targets)


class TestLockstepKernel:
    """Rows where a batched root finder would part from ``_preimages``."""

    def test_roots_on_unit_circle(self):
        # the preimages of unit-circle points under z^2 sit on the circle,
        # where numpy's complex-array abs can round to 1.0000000000000002
        # while the scalar abs gives 1.0
        rng = np.random.default_rng(5)
        angles = rng.uniform(0.0, 2 * math.pi, 256)
        targets = [(complex(math.cos(a), math.sin(a)), 1.0) for a in angles]
        _one_map(RationalMapC([0, 0, 1], [1, 0, 0]), targets)

    def test_exact_zero_constant_term(self):
        # for z^2 the double root 0 makes the quadratic's qq vanish
        for coeffs in ([0, 0, 1], [0, 1, 0, 1], [0, 0, 2, 0, 1], [0, 0, 0, 0, 0, 1j, 1]):
            d = len(coeffs) - 1
            rc = RationalMapC(coeffs, [1] + [0] * d)
            _one_map(rc, [(0.0, 1.0), (0.3 + 0.1j, 1.0), (0.0, 1.0), (1.0, 0.5j)])

    def test_preimages_at_infinity(self):
        # leading coefficient of qc at, just below and just above the
        # 1e-14 * scale cut, and exactly zero
        rc = specialize(parse_family("(z^2 - t)/z"), 0.05)
        cubic = specialize(parse_family("(z^3 + t)/(z^2 + 1)"), 0.05)
        for R in (rc, cubic):
            _one_map(R, [(1.0, 0.0), (1.0, 1e-15), (1.0, 9e-15), (1.0, 5e-14),
                         (1.0, 2e-13), (0.4 - 0.2j, 1.0)])

    def test_degrees_one_to_eight(self):
        # wide batches, every row on its own map and point, about a third
        # of the points in the 1/z chart
        rng = np.random.default_rng(11)
        n = 512
        for d in range(1, 9):
            maps = []
            for _ in range(n):
                p0 = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
                p1 = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
                maps.append(RationalMapC(p0, p1))
            w = rng.normal(size=n) + 1j * rng.normal(size=n)
            targets = [(z, 1.0) if abs(z) <= 1 else (1.0, 1 / z) for z in w]
            # every row in order, and the rows gathered in another order
            _kernel_matches_scalar(MapStack(maps), None, targets)
            _kernel_matches_scalar(MapStack(maps), rng.permutation(n), targets)

    def test_special_rows_among_ordinary_rows(self):
        # at every degree, one shuffled batch of ordinary rows and rows with
        # a leading coefficient around the 1e-14 cut (below, at, within 10x
        # and past it, and exactly zero), an exact zero constant term, the
        # quadratic's double root 0 and the cubic's triple root
        rng = np.random.default_rng(29)
        for d in range(1, 9):
            maps, targets = [], []
            for _ in range(24):
                maps.append(RationalMapC(rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1),
                                         rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)))
                w = complex(rng.normal(), rng.normal())
                targets.append((w, 1.0) if abs(w) <= 1 else (1.0, 1 / w))
            # z^d at the target (1, w1): the preimage polynomial w1 z^d - 1
            power = RationalMapC([0.0] * d + [1.0], [1.0] + [0.0] * d)
            for w1 in (0.0, 1e-15, 1e-14, 2e-14, 9e-14, 1.1e-13, 5e-13, 0.25j):
                maps.append(power)
                targets.append((1.0, w1))
            # z^d at the target 0: the constant term is 0 and, for d >= 2,
            # every root is the multiple root 0
            maps.append(power)
            targets.append((0.0, 1.0))
            # (z - 1)^3 at the target 0: the cubic's triple root 1
            if d == 3:
                maps.append(RationalMapC([-1, 3, -3, 1], [0, 0, 0, 1j]))
                targets.append((0.0, 1.0))
            order = rng.permutation(len(maps))
            _kernel_matches_scalar(MapStack(maps), order, [targets[i] for i in order])

    def test_double_root_needs_no_scalar_solve(self, monkeypatch):
        # z^2 at the target 0: qq vanishes, and the kernel takes the double
        # root 0 itself
        rc = RationalMapC([0, 0, 1], [1, 0, 0])
        y = np.array([[0.0, 0.3 - 0.2j, 0.0], [1.0, 1.0, -1.0]], dtype=complex)
        ref = np.array([cxdyn._preimages(rc, y[:, i]) for i in range(3)])
        monkeypatch.setattr(cxdyn, "_preimages", _raise)
        out = _solve(MapStack([rc]), np.zeros(3, dtype=int), y)
        assert out.transpose(1, 2, 0).tobytes() == ref.tobytes()

    def test_scalar_solve_only_at_the_lead_cut(self, monkeypatch):
        # rows whose preimage polynomial loses its leading coefficient go to
        # _preimages one by one, and no other row does; the kernel solves
        # them as the placeholder z^d
        solved = []
        preimages = cxdyn._preimages

        def counted(R, target):
            solved.append(complex(target[1]))
            return preimages(R, target)

        monkeypatch.setattr(cxdyn, "_preimages", counted)
        for text in ("(z^2 - t)/z", "(z^3 + t)/(z^2 + 1)", "(z^5 + t)/(z^4 + 1)"):
            rc = specialize(parse_family(text), 0.05)
            w1 = [0.0, 0.5, 1e-15, 0.25j, 1.0, 0.0, -0.75]
            y = np.array([[1.0] * len(w1), w1], dtype=complex)
            solved.clear()
            rows = np.zeros(len(w1), dtype=int)
            _solve(MapStack([rc]), rows, y)
            assert solved == [0.0, 1e-15, 0.0]

    @pytest.mark.parametrize("d", range(4, 9))
    def test_zero_constant_term_needs_no_scalar_solve(self, d, monkeypatch):
        # an exact zero constant term at degrees 4 to 8 stays in the
        # companion-matrix solve: the target 0 under z p(z) and under z^d
        rng = np.random.default_rng(d)
        ordinary = np.concatenate([[0.0], rng.normal(size=d) + 1j * rng.normal(size=d)])
        power = [0.0] * d + [1.0]
        stack = MapStack([RationalMapC(ordinary, [1] + [0] * d),
                          RationalMapC(power, [1] + [0] * d)])
        y = np.array([[0.0, 0.0, 0.3], [1.0, 1.0, 1.0]], dtype=complex)
        rows = np.array([0, 1, 0])
        with np.errstate(all="ignore"):
            ref = np.array([cxdyn._preimages(stack.maps[r], y[:, i])
                            for i, r in enumerate(rows)])
        monkeypatch.setattr(cxdyn, "_preimages", _raise)
        out = _solve(stack, rows, y)
        assert out.transpose(1, 2, 0).tobytes() == ref.tobytes()
        # one preimage of 0 under z p(z) is 0 itself, to rounding
        assert np.abs(out[0, 0]).min() < 1e-15 * np.abs(ordinary).max()

    def test_vanishing_preimage_polynomial_raises(self):
        rc = specialize(parse_family("z^2 + 1/t"), 0.1)
        with pytest.raises(DegenerateMapError):
            _one_map(rc, [(0.5, 1.0), (0.0, 0.0)])


def _cubic_branches(coeffs):
    """The three roots ``_cubic_roots`` gives for one ascending coefficient row."""
    return cxdyn._cubic_roots(np.asarray(coeffs, dtype=complex)[None])[0]


def _matched_error(roots, ref):
    """Largest relative distance of ``roots`` from ``ref`` under the best
    matching of the two triples."""
    return min(max(abs(roots[i] - ref[j]) / abs(ref[j]) for i, j in enumerate(perm))
               for perm in itertools.permutations(range(3)))


class TestCubicRoot:
    def test_branches_are_the_roots(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
            ref = np.roots(coeffs[::-1])
            assert _matched_error(_cubic_branches(coeffs), ref) < 1e-12

    def test_pole_and_perturbed_families(self):
        # preimage polynomials of z^3 + 1/t and z^3 + t*z down to |t| = 1e-8
        for tv in (1e-2, 1e-5j, -1e-8, 1e-8 * (0.6 + 0.8j)):
            for y in (0.3 + 0.1j, 1.0, -0.7j):
                for coeffs in ([1 / tv - y, 0, 0, 1], [-y, tv, 0, 1]):
                    ref = np.roots(np.array(coeffs, dtype=complex)[::-1])
                    assert _matched_error(_cubic_branches(coeffs), ref) < 1e-12

    def test_small_roots_beside_a_large_one(self):
        # Cardano alone sees the two small roots as a near-double root at
        # the large one's scale: relative errors of 0.25 here
        roots = [1000.0, 2.0 ** -30, 1.5 * 2.0 ** -30]  # exact coefficients
        assert _matched_error(_cubic_branches(np.poly(roots)[::-1]), roots) < 1e-14
        # preimage rows of a rational cubic near its pole
        rc = specialize(parse_family("(z^3 + t)/(z^2 + 1)"), 0.05)
        for y1 in (1e-4, 1e-8, 1e-10, 1e-12):
            coeffs = y1 * rc.p0c - rc.p1c
            ref = np.roots(coeffs[::-1])
            assert _matched_error(_cubic_branches(coeffs), ref) < 1e-12

    def test_branch_labels(self):
        # branch j, the Cardano root ω^j U of largest modulus, then the
        # other two roots by decreasing modulus: (z + 2)(z - 1)(z - 1/2) has
        # j = 0, and rotating its roots by ω rotates the labels by one
        omega = complex(-0.5, math.sqrt(0.75))
        np.testing.assert_allclose(_cubic_branches([1, -2.5, 0.5, 1]), [-2, 1, 0.5],
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(_cubic_branches([1, -2.5 * omega ** 2, 0.5 * omega, 1]),
                                   [0.5 * omega, -2 * omega, omega], rtol=0, atol=1e-15)

    def test_clustered_roots(self):
        # z^3 - 3z + 2 = (z - 1)^2 (z + 2), and three roots 1e-3 apart: a
        # rounding error e moves them by about sqrt(e) and e / 1e-6, for
        # np.roots as for the closed form
        for coeffs in ([2, -3, 0, 1], np.poly([1.0, 1.001, 1 + 0.001j])[::-1]):
            ref = np.roots(np.array(coeffs, dtype=complex)[::-1])
            assert _matched_error(_cubic_branches(coeffs), ref) < 1e-7

    def test_triple_root_and_zero_constant_term(self, monkeypatch):
        # (z - 1)^3 has D0 = D1 = 0, so U = 0 and the root is -B/3; z^3 + z
        # and z^3 at the target 0 have an exact zero constant term
        assert list(_cubic_branches([-1, 3, -3, 1])) == [1, 1, 1]
        for coeffs, ref in (([0, 1, 0, 1], [0, 1j, -1j]), ([0, 0, 0, 1], [0, 0, 0])):
            roots = _cubic_branches(coeffs)
            assert np.isfinite(roots).all()
            assert max(min(abs(z - r) for r in ref) for z in roots) < 1e-15
        # the batched kernel takes these rows itself, without the scalar
        # solve, and matches it bit for bit
        stack = MapStack([RationalMapC([-1, 3, -3, 1], [0, 0, 0, 1j]),
                          RationalMapC([0, 1, 0, 1], [1, 0, 0, 0])])
        y = np.array([[0.0, 0.0], [1.0, 1.0]], dtype=complex)
        with np.errstate(all="ignore"):
            ref = np.array([cxdyn._preimages(R, y[:, i]) for i, R in enumerate(stack.maps)])
        monkeypatch.setattr(cxdyn, "_preimages", _raise)
        out = _solve(stack, np.arange(2), y)
        assert out.transpose(1, 2, 0).tobytes() == ref.tobytes()
        assert np.isfinite(out).all()
        assert (abs(out[0, 0] - 1) < 1e-15).all() and (out[1, 0] == 1).all()

    def test_degree_three_walk_needs_no_eigvals(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvals", _raise)
        fam = parse_family("z^3 + t*z")
        stack = MapStack([specialize(fam, tv) for tv in (1e-2, 1e-4j)])
        for i, rc in enumerate(stack.maps):
            s = backward_sample(rc, 1, 20, 500, 1.1 + 0.7j)
            assert integrate_mu(rc, lambda pts: log_det_norm(stack, pts, [i] * len(pts)),
                                s).n_used == 500
        results = cxdyn.preimage_levels(stack, 500, _lyapunov(stack))
        assert all(math.isfinite(value) and level >= 3 for value, _, level, _ in results)


class TestRoots:
    @pytest.mark.parametrize("d", range(4, 9))
    def test_companion_roots_match_numpy_roots(self, d):
        # np.roots as an independent reference; it strips a zero constant
        # term and appends the root 0, where _roots solves the whole row.
        # A root 0 is matched within 1e-12 of the row's largest root
        rng = np.random.default_rng(60 + d)
        rows = rng.normal(size=(40, d + 1)) + 1j * rng.normal(size=(40, d + 1))
        rows[::4, 0] = 0  # a simple root 0
        rows[1::8, :2] = 0  # a double root 0
        for row, roots in zip(rows, cxdyn._roots(rows)):
            ref = list(np.roots(row[::-1]))
            scale = max(abs(r) for r in ref)
            assert len(ref) == d
            for z in roots:
                j = min(range(len(ref)), key=lambda i: abs(ref[i] - z))
                assert abs(ref[j] - z) <= 1e-12 * (abs(ref[j]) or scale)
                ref.pop(j)


def _raise(*args, **kwargs):
    raise AssertionError("not expected to be called")


def _lyapunov(stack):
    """The Lyapunov integrand ``f(cell, pts)`` on the rows of ``stack``."""
    return lambda cell, pts: log_det_norm(stack, pts, cell)


class TestPreimageLevels:
    def test_levels_are_all_preimages(self, monkeypatch):
        # preimage k of point p of a level is _preimages' branch k of it,
        # whatever the blocks and the other maps in the batch
        fam = parse_family("z^3 + t*z")
        stack = MapStack([specialize(fam, tv) for tv in (1e-2, 1e-4j)])
        maps = stack.maps
        roots = np.array([[0.3 + 0.1j, 1.0], [1.0, -0.2j]]).T  # one root per map
        level1 = _solve(stack, np.arange(2), roots)
        ref = np.array([cxdyn._preimages(R, roots[:, i]) for i, R in enumerate(maps)])
        assert level1.transpose(1, 2, 0).tobytes() == ref.tobytes()
        level1 = level1.reshape(2, -1)
        rows = np.arange(2).repeat(3)
        level2 = _solve(stack, rows, level1)
        monkeypatch.setattr(cxdyn, "_BLOCK_POINTS", 4)
        assert _solve(stack, rows, level1).tobytes() == level2.tobytes()
        ref = np.array([cxdyn._preimages(maps[p // 3], level1[:, p]) for p in range(6)])
        assert level2.transpose(1, 2, 0).tobytes() == ref.tobytes()
        # the rows in another order: each point on its own row
        rows = np.array([1, 0, 0, 1, 1, 0])
        ref = np.array([cxdyn._preimages(maps[r], level1[:, p]) for p, r in enumerate(rows)])
        assert _solve(stack, rows, level1).transpose(1, 2, 0).tobytes() == ref.tobytes()

    def test_one_kernel_row_per_point(self, monkeypatch):
        # a level solves each point's preimage polynomial once, for all d
        # roots, in blocks of at most 2,048 preimages
        rows = []

        def counted(kernel):
            return lambda qc: rows.append(len(qc)) or kernel(qc)

        monkeypatch.setattr(cxdyn, "_quadratic_roots", counted(cxdyn._quadratic_roots))
        monkeypatch.setattr(cxdyn, "_cubic_roots", counted(cxdyn._cubic_roots))
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda comp: rows.append(len(comp)) or eigvals(comp))
        rng = np.random.default_rng(31)
        for text in ("z^2 + 1/t", "z^3 + t*z", "(z^5 + t)/(z^4 + 1)"):
            fam = parse_family(text)
            stack = MapStack([specialize(fam, tv) for tv in (1e-2, 1e-4j)])
            n, d = 1500, stack.degree
            w = rng.normal(size=n) + 1j * rng.normal(size=n)
            points = np.array([np.where(abs(w) <= 1, w, 1), np.where(abs(w) <= 1, 1, 1 / w)])
            rows.clear()
            assert _solve(stack, np.arange(2).repeat(n // 2), points).shape == (2, n, d)
            assert sum(rows) == n and max(rows) * d <= 2 * 1024

    def test_batch_layout_independent(self, monkeypatch):
        fam = parse_family("z^2 + 1/t")
        maps = [specialize(fam, 10.0 ** -k * complex(math.cos(k), math.sin(k)))
                for k in range(2, 7)]

        def levels(maps):
            stack = MapStack(maps)
            return cxdyn.preimage_levels(stack, 20000, _lyapunov(stack))

        together = levels(maps)
        reversed_ = levels(maps[::-1])[::-1]
        alone = [levels([rc])[0] for rc in maps]
        monkeypatch.setattr(cxdyn, "_BLOCK_POINTS", 6)
        small_blocks = levels(maps)
        assert all(certified for *_, certified in together)
        assert together == reversed_ == alone == small_blocks

    def test_blocks_bounded_by_points(self):
        # 40 cells: a level of all active cells at once would hand the
        # integrand up to 40 * 2^14 points; the blocks hold 2 * 1024
        fam = parse_family("z^2 + 1/t")
        n_cells, n_keep = 40, 20000
        maps = [specialize(fam, 10.0 ** -(1 + k % 5) * complex(math.cos(k), math.sin(k)))
                for k in range(n_cells)]
        calls = []

        def f(cell, pts):
            # the cells' points one cell after another
            assert len(cell) == len(pts) and (np.diff(cell) >= 0).all()
            calls.append(np.bincount(cell, minlength=n_cells))
            return np.zeros(len(pts))

        results = cxdyn.preimage_levels(MapStack(maps), n_keep, f)
        per_block = np.array(calls)
        assert len(calls) > 1 and (per_block.sum(axis=1) <= 2 * 1024).all()
        # a cell's points are its levels 1, ..., n: 2 + 4 + ... + 2^n
        assert list(per_block.sum(axis=0)) == [2 ** (level + 1) - 2
                                               for _, _, level, _ in results]

    def test_high_degree_rejected_before_solving(self):
        rc = RationalMapC([0.0] * 9 + [1.0], [1.0] + [0.0] * 9)
        calls = []
        with pytest.raises(UnsupportedDegreeError):
            cxdyn.preimage_levels(MapStack([rc, rc]), 10 ** 9,
                                  lambda cell, pts: calls.append(pts))
        assert calls == []

    def test_agrees_with_walker(self):
        # the quadrature certifies z^2 at level 3 and z^3 + t*z near its
        # good reduction; both lie within 3 walker stderr of the walker,
        # plus rounding for z^2, whose walker values are all log 2
        for text, t, level in (("z^2", 0.1, 3), ("z^3 + t*z", 1e-6, None)):
            rc = specialize(parse_family(text), t)
            stack = MapStack([rc])
            ((mean, err, n, certified),) = cxdyn.preimage_levels(
                stack, 20000, lambda cell, pts: log_det_norm(stack, pts))
            assert certified and (level is None or n == level)
            assert err < 1e-12
            s = backward_sample(rc, 5, 100, 20000, 1.1 + 0.7j)
            walked = integrate_mu(rc, lambda pts: log_det_norm(stack, pts), s)
            assert abs(mean - walked.mean) <= 3 * walked.stderr + 1e-15

    def test_pole_family_matches_oracle(self):
        fam = parse_family("z^2 + 1/t")
        for tv in (1e-2, -3e-4j, 1e-6 * complex(math.cos(0.7), math.sin(0.7))):
            stack = MapStack([specialize(fam, tv)])
            ((mean, err, n, certified),) = cxdyn.preimage_levels(
                stack, 20000, _lyapunov(stack))
            assert abs(mean - przytycki_oracle(fam, tv)) < 1e-12
            assert certified and 3 <= n <= 10 and err < 1e-11

    def test_one_small_difference_is_no_certificate(self):
        # I_1 = I_2, then I_3 moves: the level-2 difference vanishes, but
        # the certificate needs two, so it comes at level 5, with the
        # value I_5; the ratio |Δ_3 / Δ_2| is inf, so the estimate is the
        # larger of |Δ_4| and |Δ_5|
        rc = specialize(parse_family("z^2 + 1/t"), 1e-3)
        i5 = 2.0 + 2.0 ** -40 + 2.0 ** -42
        by_size = {2: 1.0, 4: 1.0, 8: 2.0, 16: 2.0 + 2.0 ** -40, 32: i5}
        f = lambda cell, pts: np.full(len(pts), by_size[len(pts)])  # noqa: E731
        assert cxdyn.preimage_levels(MapStack([rc]), 20000, f) == [
            (i5, 2.0 ** -40, 5, True)]

    def test_estimate_takes_the_largest_recent_ratio(self):
        # the differences 2^-10, 2^-11, 2^-16, 2^-17 alternate ratios 1/2
        # and 1/32; the last ratio rose, so the cell stops at level 5,
        # short of a certificate, and the tail is the larger of the last
        # two differences times 0.5 / (1 - 0.5), not |Δ_5| times that
        rc = specialize(parse_family("z^2 + 1/t"), 1e-3)
        means = [1.0]
        for k in (10, 11, 16, 17, 22):
            means.append(means[-1] + 2.0 ** -k)
        f = lambda cell, pts: np.full(len(pts), means[len(pts).bit_length() - 2])  # noqa: E731
        assert cxdyn.preimage_levels(MapStack([rc]), 64, f) == [
            (means[4], 2.0 ** -16, 5, False)]
        # exact levels: the estimate is the rounding of the level's sum
        three = lambda cell, pts: np.full(len(pts), -3.0)  # noqa: E731
        assert cxdyn.preimage_levels(MapStack([rc]), 64, three) == [
            (-3.0, 8 * 3.0 * np.finfo(float).eps, 3, True)]

    def test_fallbacks(self, monkeypatch):
        solved = []
        solve = cxdyn._solve

        def counted(stack, rows, y):
            solved.append(y.shape[1])
            return solve(stack, rows, y)

        monkeypatch.setattr(cxdyn, "_solve", counted)
        fam = parse_family("z^2 + 1/t")
        pole = MapStack([specialize(fam, tv) for tv in (1e-2, 1e-4j)])
        # a Mobius map has no measure of maximal entropy: nothing is solved
        mobius = MapStack([RationalMapC([0.5, 1], [1, 0.25j])])
        with pytest.raises(UnsupportedMapError):
            cxdyn.preimage_levels(mobius, 20000, _lyapunov(mobius))
        assert solved == []
        # a budget below d^3 leaves levels 1 and 2, and no certificate
        for (value, err, level, certified), ref in zip(
                cxdyn.preimage_levels(pole, 7, _lyapunov(pole)),
                cxdyn.preimage_levels(pole, 20000, _lyapunov(pole))):
            assert (level, certified) == (2, False) and ref[3]
            assert err >= abs(value - ref[0]) > 0
        # a level with a value that is not finite ends the cell, which keeps
        # the level before it, or reports no value at level 1
        inf = lambda cell, pts: np.full(len(pts), -np.inf)  # noqa: E731
        results = cxdyn.preimage_levels(pole, 20000, inf)
        assert all(math.isnan(value) and (err, level, certified) == (math.inf, 0, False)
                   for value, err, level, certified in results)
        # two cells: level 3 is the first with 16 points
        late = lambda cell, pts: np.full(len(pts), -np.inf if len(pts) == 16 else 1.0)  # noqa: E731
        assert cxdyn.preimage_levels(pole, 20000, late) == [
            (1.0, 4 * np.finfo(float).eps, 2, False)] * 2
        # (z^2 - t)/z: the differences shrink by about 0.4 a level, which
        # cannot reach the tolerance within 2^14 points; the cell ends long
        # before the budget
        rational = parse_family("(z^2 - t)/z")
        stack = MapStack([specialize(rational, tv) for tv in (1e-2, 1e-4j, -1e-6)])
        solved.clear()
        results = cxdyn.preimage_levels(stack, 20000, _lyapunov(stack))
        assert not any(certified for *_, certified in results)
        assert all(4 <= level <= 6 and 1e-12 < err < 1 for _, err, level, _ in results)
        # a level solves the points of the level before it, and the root is
        # solved for, not walked to
        assert sum(solved) <= len(stack.maps) * (1 + 2 + 4 + 8 + 16)


class TestRepellingRoot:
    def test_most_repelling_fixed_point(self):
        # z^2 + c: the fixed point (1 + sqrt(1 - 4c)) / 2 of multiplier 2z;
        # z^3 + t*z: ±sqrt(1 - t), multiplier 3 - 2t, beside the attracting 0
        for text, tv, z, lam in (
                ("z^2 - 2", 0.1, 2.0, 4.0),
                ("z^2 + 1/t", 1e-2j, (1 + cmath.sqrt(1 + 400j)) / 2, 1 + cmath.sqrt(1 + 400j)),
                ("z^3 + t*z", 1e-1, -math.sqrt(0.9), 2.8)):
            root, period, log_mult = cxdyn._repelling_root(
                MapStack([specialize(parse_family(text), tv)]))
            assert period[0] == 1 and log_mult[0] == pytest.approx(math.log(abs(lam)), rel=1e-12)
            assert abs(root[0, 0] / root[1, 0] - z) <= 1e-12 * abs(z)

    def test_two_cycle_without_a_repelling_fixed_point(self):
        # (z^2 - t)/z has one fixed point, the parabolic infinity (multiplier
        # exactly 1); the fixed points of (z^5 + t)/(z^4 + 1) are a parabolic
        # infinity and the attracting t.  Both take a repelling 2-cycle: for
        # (z^2 - t)/z it is ±(t/2)^(1/2), of multiplier 9
        # at |t| = 1e-14 the 2-cycle ±7e-8 of (z^2 - t)/z lies as near 0 as
        # its two points lie to each other, and is found all the same
        ts = (1e-2, 1e-4j, -1e-6, 1e-14)
        for text, log_mult in (("(z^2 - t)/z", math.log(9)), ("(z^5 + t)/(z^4 + 1)", 4.394)):
            stack = MapStack([specialize(parse_family(text), tv) for tv in ts])
            root, period, lam = cxdyn._repelling_root(stack)
            assert list(period) == [2] * 4
            assert lam == pytest.approx([log_mult] * 4, abs=1e-12 if "5" not in text else 1e-3)
            if "5" not in text:
                z = root[0] / root[1]
                assert (abs(z * z - np.array(ts) / 2) <= 1e-15 * np.abs(ts)).all()
        ts = ts[:3]
        # rooted there, level 4 of the Lyapunov quadrature lies within its
        # estimate of the level-17 value 0.86577; at the parabolic infinity it
        # would read 1.000, 1.284 and 1.572
        stack = MapStack([specialize(parse_family("(z^2 - t)/z"), tv) for tv in ts])
        for value, err, level, _ in cxdyn.preimage_levels(stack, 20000, _lyapunov(stack)):
            assert level == 4 and abs(value - 0.86577) <= err < 0.02

    def test_no_parabolic_root(self, monkeypatch):
        # z^2 + 1/4 moved by z -> z + s has a parabolic double fixed point at
        # 1/2 - s, which rounding splits into two zeros about 1e-8 apart with
        # |λ| up to 1 + 1.5e-8, short of the 1.001 a repelling cycle needs;
        # so the root is the 2-cycle of multiplier 5, and the Lyapunov
        # quadrature lies within its estimate of log 2
        for s in (0, 0.3 + 0.17j, 0.1 + 0.7j, -0.23 + 0.41j, 0.37 - 0.29j):
            stack = MapStack([RationalMapC([s * s + 0.25 - s, 2 * s, 1.0], [1.0, 0, 0])])
            _, period, log_mult = cxdyn._repelling_root(stack)
            assert period[0] == 2 and log_mult[0] == pytest.approx(math.log(5), abs=1e-14)
            ((value, err, _, _),) = cxdyn.preimage_levels(stack, 20000, _lyapunov(stack))
            assert abs(value - LOG2) <= err < 0.02
        # with cycles of period 1 only, (z^2 - t)/z has none that repels: an
        # error, not its parabolic fixed point and not a random walk
        monkeypatch.setattr(cxdyn, "_PERIODS", 1)
        monkeypatch.setattr(cxdyn, "_solve", _raise)
        stack = MapStack([specialize(parse_family("(z^2 - t)/z"), 1e-2)])
        with pytest.raises(NoRepellingCycleError, match="period <= 1"):
            cxdyn.preimage_levels(stack, 20000, _lyapunov(stack))

    def test_row_independent_of_batch(self):
        # rows of period 1 and 2, of one degree, in one stack and each alone
        maps = [specialize(parse_family(text), tv)
                for text in ("z^2 + 1/t", "(z^2 - t)/z", "z^2 - 2")
                for tv in (1e-2, 1e-5j)]
        together = cxdyn._repelling_root(MapStack(maps))
        assert list(together[1]) == [1, 1, 2, 2, 1, 1]
        for i, rc in enumerate(maps):
            alone = cxdyn._repelling_root(MapStack([rc]))
            for a, b in zip(alone, together):
                assert a[..., 0].tobytes() == b[..., i].tobytes()
        # degree 5: the 2-cycles of the quintic are solved on companion
        # matrices of degree 26, past the cap of the preimage kernel
        quintic = [specialize(parse_family("(z^5 + t)/(z^4 + 1)"), tv) for tv in (1e-2, 1e-3j)]
        together = cxdyn._repelling_root(MapStack(quintic))
        for i, rc in enumerate(quintic):
            alone = cxdyn._repelling_root(MapStack([rc]))
            assert all(a[..., 0].tobytes() == b[..., i].tobytes()
                       for a, b in zip(alone, together))

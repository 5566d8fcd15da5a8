"""Complex-side sampling and Lyapunov estimation against classical oracles."""

import cmath
import itertools
import math

import numpy as np
import pytest

from hybdyn import admissible, cxdyn
from hybdyn.cxdyn import (RationalMapC, backward_sample, escape_green,
                          integrate_mu, log_det_norm, lyapunov_complex,
                          przytycki_oracle, sample_integrals, specialize)
from hybdyn.errors import (DegenerateMapError, UnsupportedDegreeError,
                           UnsupportedMapError)
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
        z = s.affine()
        assert np.abs(np.abs(z) - 1.0).max() < 1e-6

    def test_chebyshev_interval(self):
        rc = specialize(parse_family("z^2 - 2"), 0.1)
        s = backward_sample(rc, seed=7, n_burn=50, n_keep=3000, start=0.3 + 0.2j)
        z = s.affine()
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
        z = s.affine()
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
        def f(pts):
            return np.log1p(np.abs(pts[:, 0] / np.where(pts[:, 1] != 0, pts[:, 1], 1)))

        direct = integrate_mu(self.rc, f, self.s)
        pushed = integrate_mu(self.rc, lambda p: f(self.rc.apply(p)), self.s)
        sigma = math.hypot(direct.stderr, pushed.stderr)
        assert abs(direct.mean - pushed.mean) < 3 * sigma + 1e-3


class TestLyapunov:
    def test_squaring(self):
        rc = specialize(parse_family("z^2"), 0.1)
        s = backward_sample(rc, seed=13, n_burn=50, n_keep=20000, start=2.0)
        res = lyapunov_complex(rc, s)
        assert res.mean == pytest.approx(LOG2, abs=3 * res.stderr + 1e-9)

    def test_cubing(self):
        rc = specialize(parse_family("(z^3)/(1)"), 0.1)
        s = backward_sample(rc, seed=13, n_burn=50, n_keep=20000, start=2.0)
        res = lyapunov_complex(rc, s)
        assert res.mean == pytest.approx(math.log(3), abs=3 * res.stderr + 1e-9)

    def test_chebyshev(self):
        rc = specialize(parse_family("z^2 - 2"), 0.1)
        s = backward_sample(rc, seed=13, n_burn=50, n_keep=40000, start=0.3 + 0.2j)
        res = lyapunov_complex(rc, s)
        assert res.mean == pytest.approx(LOG2, abs=3 * res.stderr)

    def test_briend_duval_lower_bound(self):
        from hybdyn.presets import FAMILY_TEXTS
        for text in FAMILY_TEXTS:
            fam = parse_family(text)
            rc = specialize(fam, 0.07)
            s = backward_sample(rc, seed=17, n_burn=50, n_keep=5000, start=1.1 + 0.3j)
            res = lyapunov_complex(rc, s)
            bound = 0.5 * math.log(fam.degree)
            assert res.mean >= bound - 3 * res.stderr


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
        res = lyapunov_complex(rc, s)
        assert abs(res.mean - przytycki_oracle(fam, tv)) < 3 * res.stderr + 1e-6

    def test_non_polynomial_rejected(self):
        with pytest.raises(UnsupportedMapError):
            przytycki_oracle(parse_family("(z^2 - t)/z"), 0.1)

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
            if step < 3 and all(cxdyn._chordal(p, current) < 1e-12 for p in pre):
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


def _step(maps, y, k):
    """The batched step on the rows of ``maps``, one point and branch each."""
    with np.errstate(all="ignore"):
        return cxdyn._step(maps, np.array([R.p0c for R in maps]),
                           np.array([R.p1c for R in maps]), y, k)


def _kernel_matches_scalar(maps, targets):
    """Every preimage the batched step picks equals the scalar one, bit for
    bit, with all rows stepped together."""
    n = len(maps)
    y = np.array(targets, dtype=complex).T.copy()  # w0 row, w1 row
    for k in range(maps[0].degree):
        out = _step(maps, y, np.full(n, k))
        with np.errstate(all="ignore"):
            ref = np.array([cxdyn._preimages(R, y[:, i])[k] for i, R in enumerate(maps)])
        assert out.T.tobytes() == ref.tobytes()


class TestLockstepKernel:
    """Rows where a batched root finder would part from ``_preimages``."""

    def test_roots_on_unit_circle(self):
        # the preimages of unit-circle points under z^2 sit on the circle,
        # where numpy's complex-array abs can round to 1.0000000000000002
        # while the scalar abs gives 1.0
        rng = np.random.default_rng(5)
        angles = rng.uniform(0.0, 2 * math.pi, 256)
        targets = [(complex(math.cos(a), math.sin(a)), 1.0) for a in angles]
        rc = RationalMapC([0, 0, 1], [1, 0, 0])
        _kernel_matches_scalar([rc] * len(targets), targets)

    def test_exact_zero_constant_term(self):
        # np.roots strips the zero constant term and appends the root 0
        # last; for z^2 the double root 0 makes the quadratic's qq vanish
        for coeffs in ([0, 0, 1], [0, 1, 0, 1], [0, 0, 2, 0, 1], [0, 0, 0, 0, 0, 1j, 1]):
            d = len(coeffs) - 1
            rc = RationalMapC(coeffs, [1] + [0] * d)
            targets = [(0.0, 1.0), (0.3 + 0.1j, 1.0), (0.0, 1.0), (1.0, 0.5j)]
            _kernel_matches_scalar([rc] * len(targets), targets)

    def test_preimages_at_infinity(self):
        # leading coefficient of qc at, just below and just above the
        # 1e-14 * scale cut, and exactly zero
        rc = specialize(parse_family("(z^2 - t)/z"), 0.05)
        cubic = specialize(parse_family("(z^3 + t)/(z^2 + 1)"), 0.05)
        for R in (rc, cubic):
            targets = [(1.0, 0.0), (1.0, 1e-15), (1.0, 9e-15), (1.0, 5e-14),
                       (1.0, 2e-13), (0.4 - 0.2j, 1.0)]
            _kernel_matches_scalar([R] * len(targets), targets)

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
            _kernel_matches_scalar(maps, targets)

    def test_double_root_needs_no_scalar_solve(self, monkeypatch):
        # z^2 at the target 0: qq vanishes, and the step takes the double
        # root 0 itself
        rc = RationalMapC([0, 0, 1], [1, 0, 0])
        y = np.array([[0.0, 0.3 - 0.2j, 0.0], [1.0, 1.0, -1.0]], dtype=complex)
        ref = [cxdyn._preimages(rc, y[:, i]) for i in range(3)]
        monkeypatch.setattr(cxdyn, "_preimages", _raise)
        for k in range(2):
            out = _step([rc] * 3, y, np.full(3, k))
            assert out.T.tobytes() == np.array([r[k] for r in ref]).tobytes()

    def test_scalar_solve_only_at_the_lead_cut(self, monkeypatch):
        # rows whose preimage polynomial loses its leading coefficient go to
        # _preimages one by one, and no other row does
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
            _step([rc] * len(w1), y, np.zeros(len(w1), dtype=int))
            assert solved == [0.0, 1e-15, 0.0]

    def test_vanishing_preimage_polynomial_raises(self):
        rc = specialize(parse_family("z^2 + 1/t"), 0.1)
        with pytest.raises(DegenerateMapError):
            _kernel_matches_scalar([rc, rc], [(0.5, 1.0), (0.0, 0.0)])


def _cubic_branches(coeffs):
    """The three branches of ``_cubic_root`` for one ascending coefficient row."""
    return cxdyn._cubic_root(np.tile(np.asarray(coeffs, dtype=complex), (3, 1)),
                             np.arange(3))


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
        # the batched step takes these rows itself, without the scalar solve
        maps = [RationalMapC([-1, 3, -3, 1], [0, 0, 0, 1j]),
                RationalMapC([0, 1, 0, 1], [1, 0, 0, 0])]
        monkeypatch.setattr(cxdyn, "_preimages", _raise)
        y = np.array([[0.0, 0.0], [1.0, 1.0]], dtype=complex)
        for k in range(3):
            out = _step(maps, y, np.full(2, k))
            assert np.isfinite(out).all()
            assert abs(out[0, 0] - 1) < 1e-15 and out[1, 0] == 1

    def test_degree_three_walk_needs_no_eigvals(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvals", _raise)
        fam = parse_family("z^3 + t*z")
        maps = [specialize(fam, tv) for tv in (1e-2, 1e-4j)]
        fs = [lambda pts, rc=rc: log_det_norm(rc, pts) for rc in maps]
        results = sample_integrals(maps, [1, 2], 20, 500, 1.1 + 0.7j, fs)
        assert all(res.n_used == 500 for res in results)


def _raise(*args, **kwargs):
    raise AssertionError("not expected to be called")


class TestSampleIntegrals:
    def test_streamed_equals_sampled(self):
        # blocks of kept points straddle the block size and the burn-in
        for text, t, n_burn, n_keep in (("z^2 + 1/t", 1e-3, 2, 2500),
                                        ("z^3 + t*z", 1e-2, 100, 1500),
                                        ("z^2", 0.1, 0, 1024)):
            rc = specialize(parse_family(text), t)
            datum = parse_sections(["w0^2 + t*w1^2", "w1^2"], k=1, d=2)
            for f in (lambda pts: log_det_norm(rc, pts),
                      lambda pts: admissible.phi_canonical(
                          datum, (pts[:, 0], pts[:, 1]), t),
                      lambda pts: np.where(np.abs(pts[:, 0]) < 0.5, -np.inf, 1.0)):
                (streamed,) = sample_integrals([rc], [9], n_burn, n_keep, 1.1 + 0.7j, [f])
                sampled = integrate_mu(rc, f, backward_sample(rc, 9, n_burn, n_keep,
                                                              1.1 + 0.7j))
                assert streamed == sampled

    def test_batch_layout_independent(self):
        fam = parse_family("z^3 + t*z")
        maps = [specialize(fam, 10.0 ** -k * complex(math.cos(k), math.sin(k)))
                for k in range(1, 6)]
        seeds = [31, 32, 33, 34, 35]
        fs = [lambda pts, rc=rc: log_det_norm(rc, pts) for rc in maps]
        args = (20, 1100, 1.1 + 0.7j)
        together = sample_integrals(maps, seeds, *args, fs)
        reversed_ = sample_integrals(maps[::-1], seeds[::-1], *args, fs[::-1])[::-1]
        alone = [sample_integrals([rc], [s], *args, [f])[0]
                 for rc, s, f in zip(maps, seeds, fs)]
        assert together == reversed_ == alone

    def test_blocks_bounded_by_points(self):
        # 40 cells of 16 chains: a block sized by steps would hand each cell
        # 16x more points than the walker's 40 * 1024-point budget allows
        fam = parse_family("z^2 + 1/t")
        n_cells, n_keep = 40, 20000
        maps = [specialize(fam, 10.0 ** -(1 + k % 5) * complex(math.cos(k), math.sin(k)))
                for k in range(n_cells)]
        calls = []
        fs = [lambda pts, i=i: calls.append((i, len(pts))) or np.zeros(len(pts))
              for i in range(n_cells)]
        sample_integrals(maps, list(range(n_cells)), 0, n_keep, 1.1 + 0.7j, fs)
        assert len(calls) % n_cells == 0
        blocks = [calls[k: k + n_cells] for k in range(0, len(calls), n_cells)]
        for block in blocks:
            assert [i for i, _ in block] == list(range(n_cells))
            assert sum(n for _, n in block) <= 40 * 1024
        for i in range(n_cells):
            assert sum(n for j, n in calls if j == i) == n_keep

    def test_high_degree_rejected_before_walking(self):
        rc = RationalMapC([0.0] * 9 + [1.0], [1.0] + [0.0] * 9)
        calls = []
        with pytest.raises(UnsupportedDegreeError):
            sample_integrals([rc, rc], [1, 2], 5, 5, 1.5, [calls.append] * 2)
        assert calls == []


def _lyapunov_integrands(maps):
    return [lambda pts, rc=rc: log_det_norm(rc, pts) for rc in maps]


class TestPreimageLevels:
    def test_levels_are_all_preimages(self, monkeypatch):
        # every point of a level, in order, is _preimages' branch k of its
        # parent, whatever the blocks and the other maps in the batch
        fam = parse_family("z^3 + t*z")
        maps = [specialize(fam, tv) for tv in (1e-2, 1e-4j)]
        roots = np.array([[0.3 + 0.1j, 1.0], [1.0, -0.2j]]).T  # one root per map
        level1 = cxdyn._branches(maps, roots, 1)
        ref = np.concatenate([cxdyn._preimages(R, roots[:, i]) for i, R in enumerate(maps)])
        assert level1.T.tobytes() == ref.tobytes()
        level2 = cxdyn._branches(maps, level1, 3)
        monkeypatch.setattr(cxdyn, "_BLOCK_POINTS", 4)
        assert cxdyn._branches(maps, level1, 3).tobytes() == level2.tobytes()
        ref = np.concatenate([cxdyn._preimages(maps[p // 3], level1[:, p]) for p in range(6)])
        assert level2.T.tobytes() == ref.tobytes()

    def test_batch_layout_independent(self):
        fam = parse_family("z^2 + 1/t")
        maps = [specialize(fam, 10.0 ** -k * complex(math.cos(k), math.sin(k)))
                for k in range(2, 7)]
        seeds = [41, 42, 43, 44, 45]
        fs = _lyapunov_integrands(maps)
        args = (100, 20000, 1.1 + 0.7j)
        together = cxdyn.preimage_levels(maps, seeds, *args, fs)
        reversed_ = cxdyn.preimage_levels(maps[::-1], seeds[::-1], *args, fs[::-1])[::-1]
        alone = [cxdyn.preimage_levels([rc], [s], *args, [f])[0]
                 for rc, s, f in zip(maps, seeds, fs)]
        assert None not in together
        assert together == reversed_ == alone

    def test_agrees_with_walker(self):
        # the quadrature certifies z^2 at level 3 and z^3 + t*z near its
        # good reduction; both lie within 3 walker stderr of the walker,
        # plus rounding for z^2, whose walker values are all log 2
        for text, t, level in (("z^2", 0.1, 3), ("z^3 + t*z", 1e-6, None)):
            rc = specialize(parse_family(text), t)
            f = lambda pts: log_det_norm(rc, pts)  # noqa: E731
            ((mean, err, n),) = cxdyn.preimage_levels([rc], [5], 100, 20000, 1.1 + 0.7j, [f])
            assert level is None or n == level
            assert err < 1e-12
            (walked,) = sample_integrals([rc], [5], 100, 20000, 1.1 + 0.7j, [f])
            assert abs(mean - walked.mean) <= 3 * walked.stderr + 1e-15

    def test_pole_family_matches_oracle(self):
        fam = parse_family("z^2 + 1/t")
        for tv in (1e-2, -3e-4j, 1e-6 * complex(math.cos(0.7), math.sin(0.7))):
            rc = specialize(fam, tv)
            ((mean, err, n),) = cxdyn.preimage_levels(
                [rc], [7], 100, 20000, 1.1 + 0.7j, _lyapunov_integrands([rc]))
            assert abs(mean - przytycki_oracle(fam, tv)) < 1e-12
            assert 3 <= n <= 10 and err < 1e-12

    def test_one_small_difference_is_no_certificate(self):
        # I_1 = I_2, then I_3 moves: the level-2 difference vanishes, but
        # the certificate needs two, so it comes at level 5, with the
        # value I_5 and the tail estimate |Δ_5| ρ / (1 - ρ) at ρ = 1/4
        rc = specialize(parse_family("z^2 + 1/t"), 1e-3)
        i5 = 2.0 + 2.0 ** -40 + 2.0 ** -42
        by_size = {2: 1.0, 4: 1.0, 8: 2.0, 16: 2.0 + 2.0 ** -40, 32: i5}
        f = lambda pts: np.full(len(pts), by_size[len(pts)])  # noqa: E731
        assert cxdyn.preimage_levels([rc], [3], 100, 20000, 1.1 + 0.7j, [f]) == [
            (i5, 2.0 ** -42 * 0.25 / 0.75, 5)]

    def test_fallbacks(self, monkeypatch):
        solved = []
        step = cxdyn._step

        def counted(maps, p0, p1, y, k):
            solved.append(len(k))
            return step(maps, p0, p1, y, k)

        monkeypatch.setattr(cxdyn, "_step", counted)
        fam = parse_family("z^2 + 1/t")
        pole = [specialize(fam, tv) for tv in (1e-2, 1e-4j)]
        # a budget below d^3 leaves no certificate, and a Mobius map has
        # no levels: nothing is solved
        assert cxdyn.preimage_levels(pole, [1, 2], 100, 7, 1.1 + 0.7j,
                                     _lyapunov_integrands(pole)) == [None, None]
        mobius = RationalMapC([0.5, 1], [1, 0.25j])
        assert cxdyn.preimage_levels([mobius], [1], 100, 20000, 0.3,
                                     _lyapunov_integrands([mobius])) == [None]
        assert solved == []
        # non-finite values fall back at once
        inf = [lambda pts: np.full(len(pts), -np.inf)] * 2
        assert cxdyn.preimage_levels(pole, [1, 2], 100, 20000, 1.1 + 0.7j, inf) == [None] * 2
        # (z^2 - t)/z: the differences shrink by about 0.4 a level, which
        # cannot reach the tolerance within 2^14 points; the cell ends long
        # before the budget
        rational = parse_family("(z^2 - t)/z")
        maps = [specialize(rational, tv) for tv in (1e-2, 1e-4j, -1e-6)]
        solved.clear()
        burn = len(maps) * 97  # the lockstep burn-in, one point per cell and step
        assert cxdyn.preimage_levels(maps, [1, 2, 3], 100, 20000, 1.1 + 0.7j,
                                     _lyapunov_integrands(maps)) == [None] * 3
        assert sum(solved) - burn <= len(maps) * (2 + 4 + 8 + 16 + 32)

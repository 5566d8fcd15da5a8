"""Model functions of admissible data on both sides of the degeneration."""

import cmath
import math
from fractions import Fraction as F

import numpy as np
import pytest

from hybdyn.admissible import (datum_max, datum_tensor, g_na,
                               g_na_exponent, iterate_datum, phi_canonical,
                               phi_complex, phi_iterate)
from hybdyn.berkovich import TypeIIPoint, TypeIPoint
from hybdyn.errors import LaurentError, PrecisionError
from hybdyn.laurent import LaurentSeries as L
from hybdyn.parser import parse_family, parse_sections
from hybdyn.poly import HomogeneousPoly, iterate_pair
from hybdyn.presets import shipped_datum_pairs

R = 0.5


def rand_proj_points(rng, n):
    return (rng.normal(size=n) + 1j * rng.normal(size=n),
            rng.normal(size=n) + 1j * rng.normal(size=n))


class TestPhiComplex:
    def test_coordinate_values(self):
        F_c = parse_sections(["w0", "w1"], k=1, d=1)
        assert phi_complex(F_c, (1.0, 0.0), 0.1) == pytest.approx(0.0)
        assert phi_complex(F_c, (1.0, 1.0), 0.1) == pytest.approx(math.log(1 / math.sqrt(2)))

    def test_tensor_square_doubles(self):
        F_sq = parse_sections(["w0^2"], k=1, d=2)
        F_lin = parse_sections(["w0"], k=1, d=1)
        v2 = phi_complex(F_sq, (1.0, 1.0), 0.1)
        v1 = phi_complex(F_lin, (1.0, 1.0), 0.1)
        assert v2 == pytest.approx(2 * v1)
        assert v2 == pytest.approx(math.log(0.5))

    def test_scale_invariance(self):
        rng = np.random.default_rng(31)
        F_d = parse_sections(["w0^2 + t*w1^2", "w1^2", "w0*w1"], k=1, d=2)
        for _ in range(100):
            z = (complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
            lam = complex(rng.normal(), rng.normal())
            if abs(lam) < 1e-3:
                continue
            zl = (lam * z[0], lam * z[1])
            assert phi_complex(F_d, z, 0.2) == pytest.approx(
                phi_complex(F_d, zl, 0.2), abs=1e-12)

    def test_all_sections_vanish_flag(self):
        F_s = parse_sections(["w0^2"], k=1, d=2)
        assert phi_complex(F_s, (0.0, 1.0), 0.1) == -math.inf


class TestOneEvaluator:
    """phi_complex is phi_canonical minus the Fubini-Study term."""

    @staticmethod
    def fubini_study_term(F_d, z):
        scale = np.maximum(np.abs(z[0]), np.abs(z[1]))
        return -(F_d.degree / 2) * np.log(np.abs(z[0] / scale) ** 2
                                          + np.abs(z[1] / scale) ** 2)

    def test_shipped_data_on_random_points(self):
        rng = np.random.default_rng(43)
        z = rand_proj_points(rng, 300)
        data = [F_d for pair in shipped_datum_pairs() for F_d in pair]
        assert len(data) == 6
        for F_d in data:
            for t in (0.3, 1e-4 * np.exp(2j)):
                diff = phi_complex(F_d, z, t) - phi_canonical(F_d, z, t)
                assert np.max(np.abs(diff - self.fubini_study_term(F_d, z))) < 1e-12
                z0 = (z[0][0], z[1][0])
                scalar = phi_complex(F_d, z0, t) - phi_canonical(F_d, z0, t)
                assert isinstance(scalar, float)
                assert abs(scalar - self.fubini_study_term(F_d, z0)) < 1e-12

    def test_ramified_datum_at_each_phase(self):
        rng = np.random.default_rng(44)
        z = rand_proj_points(rng, 300)
        F_r = parse_sections(["t^(1/2)*w0^2 + w1^2", "t^(1/3)*w0*w1"], k=1, d=2)
        values = set()
        for t in 0.01 * np.exp(1j * np.linspace(-np.pi, np.pi, 7)[1:]):
            canonical = phi_canonical(F_r, z, t)
            diff = phi_complex(F_r, z, t) - canonical
            assert np.max(np.abs(diff - self.fubini_study_term(F_r, z))) < 1e-12
            values.add(round(float(canonical[0]), 9))
        assert len(values) > 1  # the phases are genuinely different points


class TestGna:
    def test_gauss_values(self):
        xg = TypeIIPoint.gauss()
        assert g_na(parse_sections(["w0", "w1"], k=1, d=1), xg, R) == 0.0
        assert g_na(parse_sections(["t*w0", "t*w1"], k=1, d=1), xg, R) == pytest.approx(math.log(R))
        assert g_na(parse_sections(["w0^2", "t*w1^2"], k=1, d=2), xg, R) == 0.0

    def test_exponent_is_exact(self):
        xg = TypeIIPoint.gauss()
        q = g_na_exponent(parse_sections(["t*w0", "t*w1"], k=1, d=1), xg)
        assert q == F(1)

    def test_gauss_point_any_k(self):
        F3 = parse_sections(["t^2*w0*w2", "w1^2", "t*w2^2"], k=2, d=2)
        assert g_na_exponent(F3, TypeIIPoint.gauss()) == F(0)

    def test_type_one_point(self):
        F_t = parse_sections(["t*w0", "t*w1"], k=1, d=1)
        x = TypeIPoint([L.one(), L.t_power(1)])
        assert g_na_exponent(F_t, x) == F(1)


class TestAlgebra:
    def test_tensor_sections(self):
        F_c = parse_sections(["w0", "w1"], k=1, d=1)
        FF = datum_tensor(F_c, F_c)
        assert FF.degree == 2 and len(FF.sections) == 4
        assert phi_complex(FF, (1.0, 1.0), 0.1) == pytest.approx(
            2 * phi_complex(F_c, (1.0, 1.0), 0.1))

    def test_tensor_additivity_random(self):
        rng = np.random.default_rng(32)
        for F1, F2 in shipped_datum_pairs():
            F12 = datum_tensor(F1, F2)
            z = rand_proj_points(rng, 100)
            t = 0.3 * np.exp(0.7j)
            lhs = phi_complex(F12, z, t)
            rhs = phi_complex(F1, z, t) + phi_complex(F2, z, t)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_max_law_degree(self):
        F1 = parse_sections(["w0"], k=1, d=1)
        F2 = parse_sections(["w1^2"], k=1, d=2)
        FM = datum_max(F1, F2)
        assert FM.degree == 2  # lcm(1, 2)
        assert len(FM.sections) == 2

    def test_max_simple(self):
        F1 = parse_sections(["w0"], k=1, d=1)
        F2 = parse_sections(["w1"], k=1, d=1)
        FM = datum_max(F1, F2)
        z = (0.3 + 0.1j, 1.2 - 0.4j)
        assert phi_complex(FM, z, 0.1) == pytest.approx(
            max(phi_complex(F1, z, 0.1), phi_complex(F2, z, 0.1)))

    def test_max_law_random(self):
        rng = np.random.default_rng(33)
        for F1, F2 in shipped_datum_pairs():
            FM = datum_max(F1, F2)
            delta = FM.degree
            z = rand_proj_points(rng, 100)
            t = 0.25 * np.exp(1.3j)
            lhs = phi_complex(FM, z, t)
            rhs = np.maximum((delta // F1.degree) * phi_complex(F1, z, t),
                             (delta // F2.degree) * phi_complex(F2, z, t))
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestIterates:
    def test_monomial_iterates(self):
        R_sq = parse_family("z^2")
        F3 = iterate_datum(R_sq, 3)
        assert F3.degree == 8
        assert list(F3.sections[0].coeffs) == [(8, 0)]
        assert list(F3.sections[1].coeffs) == [(0, 8)]

    def test_twisted_composition(self):
        # [w0^2, t w1^2] iterated twice: {w0^4, t^3 w1^4}
        p0 = HomogeneousPoly(2, 2, {(2, 0): L.one()})
        p1 = HomogeneousPoly(2, 2, {(0, 2): L.t_power(1)})
        q0, q1 = iterate_pair(p0, p1, 2)
        assert q0 == HomogeneousPoly(2, 4, {(4, 0): L.one()})
        assert q1 == HomogeneousPoly(2, 4, {(0, 4): L.t_power(3)})

    def test_degree_law(self):
        R_p = parse_family("z^2 + 1/t")
        for n in range(1, 5):
            assert iterate_datum(R_p, n).degree == 2 ** n

    def test_against_numeric_composition(self):
        R_p = parse_family("z^2 + t*z")
        F2 = iterate_datum(R_p, 2)
        t = 0.2 + 0.1j
        rng = np.random.default_rng(34)
        for _ in range(20):
            z = complex(rng.normal(), rng.normal())
            f = lambda w: w * w + t * w
            direct = f(f(z))
            num = F2.sections[0].eval_numeric((z, 1.0), t)
            den = F2.sections[1].eval_numeric((z, 1.0), t)
            assert complex(num / den) == pytest.approx(direct, rel=1e-12)

    def test_truncation_reported(self):
        c = L({1: 1.0}, trunc=6)
        p0 = HomogeneousPoly(2, 2, {(2, 0): L.one(), (0, 2): c})
        p1 = HomogeneousPoly(2, 2, {(0, 2): L.one()})
        from hybdyn.parser import RationalMapFamily
        fam = RationalMapFamily(2, p0, p1)
        F2 = iterate_datum(fam, 2)
        assert F2.truncation_order() < math.inf

    def test_truncation_underflow(self):
        # sections built from a zero-to-truncation coefficient die after
        # composition: every term of the iterate is unknown
        c = L.zero(trunc=2)
        p0 = HomogeneousPoly(2, 2, {(2, 0): L.one()})
        p1 = HomogeneousPoly(2, 2, {(0, 2): c})
        with pytest.raises(PrecisionError, match="underflow"):
            iterate_pair(p0, p1, 2)


class TestHybridConsistency:
    def test_scaled_phi_converges_to_gna(self):
        # monomial datum, constant Laurent coordinate section [1 : t]
        F_t = parse_sections(["t*w0", "t*w1"], k=1, d=1)
        x_na = TypeIPoint([L.one(), L.t_power(1)])
        target = g_na(F_t, x_na, R)
        t = R ** 30
        val = scaling = math.log(R) / math.log(t)
        val = scaling * phi_complex(F_t, (1.0, t), t)
        assert abs(val - target) < 1e-2

    def test_phi_iterate_matches_symbolic(self):
        # the renormalized-orbit evaluation equals the symbolic iterate's
        # model function while both are numerically representable
        rng = np.random.default_rng(36)
        z = rand_proj_points(rng, 50)
        for text in ["z^2 + 1/t", "z^2 + t*z", "(z^2 - t)/z"]:
            fam = parse_family(text)
            d = fam.degree
            for n in (1, 2, 3):
                sym = phi_complex(iterate_datum(fam, n), z, 0.3) / d ** n
                orb = phi_iterate(fam, n, z, 0.3)
                assert np.max(np.abs(sym - orb)) < 1e-9

    def test_phi_iterate_at_a_common_zero(self):
        # at t = 1/2 both sections vanish at [1 : 0]: -inf there, as for the
        # symbolic iterate, and finite values elsewhere
        fam = parse_family("(t - 0.5)*z^2 + z")
        z = (np.array([1.0, 1.0, 0.3]), np.array([0.0, 1.0, 1.0]))
        for n in (1, 2, 3):
            orb = phi_iterate(fam, n, z, 0.5)
            sym = phi_complex(iterate_datum(fam, n), z, 0.5) / 2 ** n
            assert orb[0] == sym[0] == -math.inf
            assert np.max(np.abs(orb[1:] - sym[1:])) < 1e-12

    def test_key_estimate_geometric_decay(self):
        # sup_z |d^-(n+1) phi_{n+1} - d^-n phi_n| <= C d^-n log|t|^-1 with C
        # fitted once at n = 1; sample sups can dip below the envelope and
        # bounce back, so the stable check is the cumulative decay ratio
        rng = np.random.default_rng(35)
        z = rand_proj_points(rng, 200)
        for text in ["z^2 + 1/t", "z^2 + t*z"]:
            fam = parse_family(text)
            d = fam.degree
            for tv in [R, R ** 3]:
                sups = []
                prev = phi_iterate(fam, 1, z, tv)
                for n in range(1, 7):
                    cur = phi_iterate(fam, n + 1, z, tv)
                    sups.append(np.max(np.abs(cur - prev)))
                    prev = cur
                c_fit = sups[0] * d / math.log(1 / tv)
                assert c_fit > 0
                for n, sup in enumerate(sups[1:], start=2):
                    cum_ratio = (sup / sups[0]) ** (1.0 / (n - 1))
                    assert cum_ratio <= 1.1 / d


class TestRegularity:
    def test_regular_datum(self):
        from hybdyn.admissible import datum_regular
        F_c = parse_sections(["w0", "w1"], k=1, d=1)
        assert datum_regular(F_c, [0.1, 0.01])

    def test_singular_fiber_detected(self):
        from hybdyn.admissible import datum_regular
        # all sections vanish identically on the fiber t = 0.1
        F_s = parse_sections(["(t - 0.1)*w0", "(t - 0.1)*w1"], k=1, d=1)
        assert not datum_regular(F_s, [0.1])
        assert datum_regular(F_s, [0.2])
        # among other fibers, in one call
        assert not datum_regular(F_s, [0.2, -0.1, 0.1, 0.3j])
        assert datum_regular(F_s, [0.2, -0.1, 0.3j])

    def test_all_fibers_at_once_match_each_alone(self):
        # one call over a grid decides as the fibers do one by one, for
        # data with fractional powers of t, and for a datum that vanishes on
        # the fiber t = -0.001 (modulus 1e-3, phase 4)
        from hybdyn.admissible import datum_regular

        ts = [m * cmath.exp(2j * math.pi * p / 8) for m in (1e-1, 1e-3, 1e-6)
              for p in range(8)]
        singular = []
        for sections, d in ((["w0^2 + t*w1^2", "t^(1/2)*w0*w1"], 2),
                            (["(t + 0.001)*w0", "(t + 0.001)*w1"], 1),
                            (["t*w0^2 + w1^2/t", "t^(1/3)*w0*w1"], 2)):
            F = parse_sections(sections, k=1, d=d)
            alone = [datum_regular(F, [t]) for t in ts]
            assert datum_regular(F, ts) is all(alone)
            assert datum_regular(F, ts[::-1]) is all(alone)
            assert datum_regular(F, []) is True
            singular.append([i for i, ok in enumerate(alone) if not ok])
        assert singular == [[], [12], []]

    def test_more_sections_need_a_pair_apart(self):
        # a fiber passes when some pair of sections has a nonzero resultant
        # there; w0*w1, w0*(w0 - w1) and w1*(w0 - w1) share no zero, but each
        # pair does, so they are rejected.  One section always has a zero
        from hybdyn.admissible import datum_regular

        apart = parse_sections(["w0*w1", "w0^2 + w1^2", "(t - 0.1)*w1^2"], k=1, d=2)
        assert datum_regular(apart, [0.1, 0.2, -0.3j])
        pairwise = parse_sections(["w0*w1", "w0*(w0 - w1)", "w1*(w0 - w1)"], k=1, d=2)
        assert not datum_regular(pairwise, [0.1])
        assert not datum_regular(parse_sections(["w0 + w1"], k=1, d=1), [0.1])
        with pytest.raises(LaurentError, match="datum on P\\^1"):
            datum_regular(parse_sections(["w0", "w1", "w2"], k=2, d=1), [0.1])

    def test_truncated_resultant_takes_the_float_check(self):
        # 1/(1 - t) is truncated, so the float Sylvester determinant decides
        from hybdyn.admissible import datum_regular

        F = parse_sections(["w0/(1 - t)", "(t - 0.1)*w1"], k=1, d=1)
        assert not datum_regular(F, [0.2, 0.1])
        assert datum_regular(F, [0.2, 0.1j])

    def test_pointwise_common_zero_probe(self):
        # the single section w0^2 vanishes at [0 : 1] on every fiber
        F_s = parse_sections(["w0^2"], k=1, d=2)
        assert phi_canonical(F_s, (0.0, 1.0), 0.1) == -math.inf
        assert phi_canonical(F_s, (1.0, 1.0), 0.1) > -math.inf


class TestCoordinateCount:
    def test_wrong_length_is_rejected(self):
        # a coordinate per variable: neither evaluator drops or pads one
        F_w = parse_sections(["w0^2", "w2^2"], k=2, d=2)
        s = F_w.sections[1]
        for w in ((1.0, 2.0), (1.0, 2.0, 3.0, 4.0)):
            with pytest.raises(LaurentError, match="expected 3 coordinates"):
                s.eval_numeric(w, 0.1)
            with pytest.raises(LaurentError, match="expected 3 coordinates"):
                s.eval_series([L.const(x) for x in w])
        with pytest.raises(LaurentError, match="expected 3 coordinates"):
            phi_canonical(F_w, (1.0, 2.0), 0.1)
        assert s.eval_numeric((1.0, 2.0, 3.0), 0.1) == 9.0
        assert s.eval_series([L.one(), L.one(), L.t_power(1)]) == L.t_power(2)


class TestSingularFlags:
    def test_gna_all_sections_vanish(self):
        from hybdyn.berkovich import TypeIPoint
        F_one = parse_sections(["w0^2"], k=1, d=2)
        x = TypeIPoint([L.zero(), L.one()])
        assert g_na_exponent(F_one, x) == math.inf
        assert g_na(F_one, x, R) == -math.inf

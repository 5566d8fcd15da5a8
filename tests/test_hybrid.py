"""Hybrid-circle evaluation semantics and the glued model values."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from hybdyn.admissible import datum_tensor
from hybdyn.berkovich import TypeIIPoint, TypeIPoint
from hybdyn.hybrid import (HybridFiberPoint, HybridPoint, hybrid_model_value,
                           scaling_n, tau_eval)
from hybdyn.laurent import LaurentSeries as L
from hybdyn.parser import parse_sections

R = 0.5


def rand_series(rng, n_terms=4, unit_lead=False):
    exps = sorted(rng.choice(np.arange(-3, 6), size=n_terms, replace=False))
    terms = {}
    for i, k in enumerate(exps):
        c = complex(rng.normal(), rng.normal())
        if unit_lead and i == 0:
            c /= abs(c)
        terms[int(k)] = c
    return L(terms)


class TestTau:
    def test_t_evaluates_to_r_everywhere(self):
        f = L.t_power(1)
        for tv in [R, R / 3, 1e-4, R * 1e-9]:
            assert tau_eval(f, HybridPoint.interior(tv, R)) == pytest.approx(R, abs=1e-12)
        assert tau_eval(f, HybridPoint.central(R)) == pytest.approx(R, abs=1e-15)

    def test_constant_central(self):
        assert tau_eval(L.const(2), HybridPoint.central(R)) == 1.0

    def test_constant_on_boundary(self):
        assert tau_eval(L.const(2), HybridPoint.interior(R, R)) == pytest.approx(2.0)

    def test_zero_series(self):
        assert tau_eval(L.zero(), HybridPoint.central(R)) == 0.0

    def test_multiplicative(self):
        rng = np.random.default_rng(20)
        pts = [HybridPoint.central(R)]
        for _ in range(20):
            rho = R * rng.random() ** 2
            ang = 2 * math.pi * rng.random()
            pts.append(HybridPoint.interior(rho * complex(math.cos(ang), math.sin(ang)), R))
        for _ in range(60):
            f, g = rand_series(rng), rand_series(rng)
            for p in pts:
                lhs = tau_eval(f * g, p)
                rhs = tau_eval(f, p) * tau_eval(g, p)
                assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_bounded_by_hybrid_norm(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            f = rand_series(rng)
            bound = sum(max(1.0, abs(c)) * R ** float(e) for e, c in f.items())
            for tv in [R, R / 2, R / 16]:
                assert tau_eval(f, HybridPoint.interior(tv, R)) <= bound * (1 + 1e-12)
            assert tau_eval(f, HybridPoint.central(R)) <= bound * (1 + 1e-12)

    def test_central_limit_consistency(self):
        # along t = r 2^-j the interior value converges to the central one;
        # the strict 1e-3 relative tolerance at j = 30 concerns series whose
        # leading coefficient has modulus 1 (the rate is n(t) log|lead|)
        rng = np.random.default_rng(22)
        for _ in range(25):
            f = rand_series(rng, unit_lead=True)
            f = f.truncate(f.order() + 4)
            central = tau_eval(f, HybridPoint.central(R))
            prev_err = None
            for j in range(0, 31, 3):
                v = tau_eval(f, HybridPoint.interior(R * 2.0 ** (-j), R))
                err = abs(v - central) / central
                if prev_err is not None and j >= 9:
                    assert err <= prev_err * 1.2 + 1e-12
                prev_err = err
            assert err < 1e-3

    def test_pole_flag(self):
        f = L({-400: 1.0})
        assert tau_eval(f, HybridPoint.central(R)) == pytest.approx(R ** -400)
        assert math.isinf(tau_eval(f, HybridPoint.interior(1e-300, R)))


class TestScaling:
    def test_values(self):
        assert scaling_n(HybridPoint.interior(R, R)) == pytest.approx(1.0)
        assert scaling_n(HybridPoint.interior(R * R, R)) == pytest.approx(0.5)
        assert scaling_n(HybridPoint.central(R)) == 0.0

    def test_range(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            tv = R * rng.random()
            if tv == 0:
                continue
            n = scaling_n(HybridPoint.interior(tv, R))
            assert 0 < n <= 1


class TestModelValues:
    def test_coordinate_datum_interior(self):
        F_c = parse_sections(["w0", "w1"], d=1)
        x = HybridFiberPoint(HybridPoint.interior(0.3, R), (1.0, 0.0))
        assert hybrid_model_value(F_c, x) == 0.0

    def test_twisted_datum_central(self):
        F_t = parse_sections(["t*w0", "t*w1"], d=1)
        x = HybridFiberPoint(HybridPoint.central(R), TypeIIPoint.gauss())
        assert hybrid_model_value(F_t, x) == pytest.approx(math.log(R))

    def test_continuity_to_central(self):
        F_t = parse_sections(["t*w0", "t*w1"], d=1)
        target = math.log(R)
        for j in [1, 5, 15, 30]:
            tv = R ** j
            x = HybridFiberPoint(HybridPoint.interior(tv, R), (1.0, 1.0))
            assert abs(hybrid_model_value(F_t, x) - target) < 1e-3

    def test_tensor_additivity_everywhere(self):
        rng = np.random.default_rng(24)
        F1 = parse_sections(["w0", "t*w1"], d=1)
        F2 = parse_sections(["w0^2 + t*w1^2", "w1^2"], d=2)
        F12 = datum_tensor(F1, F2)
        pts = [HybridFiberPoint(HybridPoint.central(R), TypeIIPoint.gauss()),
               HybridFiberPoint(HybridPoint.central(R),
                                TypeIIPoint(L.t_power(1), F(2))),
               HybridFiberPoint(HybridPoint.central(R),
                                TypeIPoint([L.one(), L.t_power(1)]))]
        for _ in range(20):
            tv = R * (0.1 + 0.9 * rng.random())
            z = (complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
            pts.append(HybridFiberPoint(HybridPoint.interior(tv, R), z))
        for x in pts:
            lhs = hybrid_model_value(F12, x)
            rhs = hybrid_model_value(F1, x) + hybrid_model_value(F2, x)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_fiber_variant_enforced(self):
        from hybdyn.errors import LaurentError
        with pytest.raises(LaurentError):
            HybridFiberPoint(HybridPoint.central(R), (1.0, 0.0))
        with pytest.raises(LaurentError):
            HybridFiberPoint(HybridPoint.interior(0.2, R), TypeIIPoint.gauss())

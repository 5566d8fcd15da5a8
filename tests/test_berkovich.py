"""Disk seminorms, Green potentials, tree measures, and the NA Lyapunov value."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from hybdyn import berkovich
from hybdyn.admissible import AdmissibleDatum, g_na_exponent
from hybdyn.berkovich import (BerkTree, GreenEvaluator, TypeIIPoint,
                              _ord_at_least, _section_exponent, build_probe_tree,
                              chart_forms, critical_lyapunov,
                              det_norm_exponent, good_reduction_exponent,
                              homog_seminorm, iterate_exponents, map_disk,
                              na_lyapunov, resultant_valuation, subtree_span,
                              tree_ma, critical_centers)
from hybdyn.errors import (ChartError, ConventionError, DegenerateFamilyError,
                           PrecisionError)
from hybdyn.laurent import LaurentSeries as L, taylor_shift
from hybdyn.parser import RationalMapFamily, parse_family
from hybdyn.poly import HomogeneousPoly
from hybdyn.presets import FAMILY_TEXTS

R = 0.5
XG = TypeIIPoint.gauss()
LOG_R = math.log(R)


def twisted(family, power=1):
    """Multiply both sections by t**power (same map, different lift)."""
    s = L.t_power(power)
    return RationalMapFamily(family.degree, family.p0 * s, family.p1 * s,
                             label=f"{family.label} twisted")


class TestPoints:
    def test_gauss(self):
        chart, center, s = XG.chart_form()
        assert chart == "z" and s == 0 and center.is_zero()
        assert XG.is_gauss()

    def test_big_disk_flips_chart(self):
        assert TypeIIPoint(0, -1).chart_form() == ("1/z", L.zero(), 1)

    def test_far_center_flips_chart(self):
        assert TypeIIPoint(L.t_power(-1), 0).chart_form() == ("1/z", L.t_power(1), 2)

    def test_center_reduction(self):
        # terms at exponent >= s do not move the disk
        p = TypeIIPoint(L({1: 1, 5: 3}), 2)
        assert p.zpair()[0] == L.t_power(1)
        assert p.chart_form()[1] == L.t_power(1)

    def test_one_stored_form(self):
        # only the z-chart disk is kept; the chart form is derived on request
        p = TypeIIPoint(L.t_power(-1), 0)
        assert TypeIIPoint.__slots__ == ("_zpair",)
        assert p.zpair() == (L.t_power(-1), 0)

    def test_contained_center_recentred(self):
        assert TypeIIPoint(L.t_power(2), 1) == TypeIIPoint(0, 1)

    def test_equality_across_charts(self):
        # a disk containing 0 and t^(-1/4) is one point, printed in the 1/z chart
        p, q = TypeIIPoint(0, F(-1, 2)), TypeIIPoint(L.t_power(F(-1, 4)), F(-1, 2))
        assert p == q
        assert p.chart_form() == q.chart_form() == ("1/z", L.zero(), F(1, 2))

    def test_equality_needs_precision(self):
        a = L({1: 1}, trunc=2)
        b = L({1: 1, 5: 1})
        with pytest.raises(PrecisionError):
            TypeIIPoint(a, 4) == TypeIIPoint(b, 4)

    def test_record(self):
        tree = subtree_span([TypeIIPoint(L.t_power(1), F(3, 2))])
        mu = tree_ma(lambda v: F(0), tree, R)
        assert mu.records() == [{"chart": "z", "center": "0", "s": "0/1", "mass": 1.0},
                                {"chart": "z", "center": "t", "s": "3/2", "mass": 0.0}]


def binary_form(coeffs) -> HomogeneousPoly:
    """``sum_j coeffs[j] * w0**j * w1**(d - j)``, d = len(coeffs) - 1: the
    form whose z-chart polynomial has ascending coefficients ``coeffs``."""
    d = len(coeffs) - 1
    return HomogeneousPoly(d, dict(enumerate(coeffs)))


class TestSeminorms:
    def test_power_at_disk(self):
        f = binary_form([L.zero(), L.zero(), L.one()])  # w0^2
        assert homog_seminorm(f, TypeIIPoint(0, F(3, 2))) == 3

    def test_taylor_at_center(self):
        f = binary_form([L({2: -1}), L.zero(), L.one()])  # w0^2 - t^2 w1^2
        assert homog_seminorm(f, TypeIIPoint(0, 2)) == 2

    def test_linear_at_gauss(self):
        assert homog_seminorm(binary_form([L.zero(), L.one()]), XG) == 0

    def test_unit_coefficients_at_gauss(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            coeffs = [L({0: complex(c)}) for c in
                      np.exp(2j * math.pi * rng.random(4))]
            assert homog_seminorm(binary_form(coeffs), XG) == 0

    def test_multiplicative(self):
        rng = np.random.default_rng(42)
        pts = [XG, TypeIIPoint(0, 2), TypeIIPoint(L.t_power(1), F(5, 2)),
               TypeIIPoint(0, F(-3, 2)), TypeIIPoint(L({-2: 1, 0: 1j}), F(1, 2))]
        for _ in range(40):
            f = binary_form([L({int(rng.integers(-2, 3)): complex(rng.normal(), rng.normal())})
                             for _ in range(3)])
            g = binary_form([L({int(rng.integers(-2, 3)): complex(rng.normal(), rng.normal())})
                             for _ in range(2)])
            for xi in pts:
                assert homog_seminorm(f * g, xi) == homog_seminorm(f, xi) + homog_seminorm(g, xi)

    def test_zero_sentinel(self):
        assert homog_seminorm(binary_form([L.zero(), L.zero()]), XG) == math.inf

    def test_homog_examples(self):
        w0w1 = HomogeneousPoly(2, {1: L.one()})
        assert homog_seminorm(w0w1, XG) == 0
        tw0sq = HomogeneousPoly(2, {2: L.t_power(1)})
        assert homog_seminorm(tw0sq, XG) == 1
        w0sq = HomogeneousPoly(2, {2: L.one()})
        assert homog_seminorm(w0sq, TypeIIPoint(0, -1)) == 0


def one_step_exponent(ev, xi):
    """g1, the one-step section exponent at a type-II point, as the orbit
    walk reads it from one Taylor shift: d times the first partial sum."""
    return ev.approximant_exponent(xi, 1) * ev.R.degree


def one_step_potential(fam, xi):
    """g1 * log r at a type-II point."""
    return float(one_step_exponent(GreenEvaluator(fam, R), xi)) * LOG_R


class TestGreen:
    def test_good_reduction_values(self):
        fam = parse_family("z^2")
        assert one_step_potential(fam, XG) == 0.0
        q, bound = GreenEvaluator(fam, R, n_max=8).exponent(XG)
        assert q == 0 and bound == 0.0

    def test_twisted_one_step(self):
        fam = twisted(parse_family("z^2"))
        assert one_step_potential(fam, XG) == pytest.approx(LOG_R)

    def test_mixed_lift_one_step(self):
        p0 = HomogeneousPoly(2, {2: L.t_power(1), 0: L.one()})
        p1 = HomogeneousPoly(2, {0: L.t_power(1)})
        fam = RationalMapFamily(2, p0, p1)
        assert one_step_potential(fam, XG) == 0.0

    def test_half_twisted_green_vanishes(self):
        # [w0^2, t w1^2]: every iterate keeps a unit coefficient
        p0 = HomogeneousPoly(2, {2: L.one()})
        p1 = HomogeneousPoly(2, {0: L.t_power(1)})
        fam = RationalMapFamily(2, p0, p1)
        q, bound = GreenEvaluator(fam, R, n_max=12).exponent(XG)
        assert q == 0

    def test_orbit_and_iterate_paths_agree(self):
        fam = parse_family("z^2 + 1/t")
        ev = GreenEvaluator(fam, R, n_max=6)
        pts = [XG, TypeIIPoint(0, F(-1, 2)), TypeIIPoint(0, 2),
               TypeIIPoint(L.t_power(-1), 1)]
        for n in (1, 2, 4):
            assert [ev.approximant_exponent(xi, n) for xi in pts] == \
                iterate_exponents(fam, pts, n)

    def test_rational_iterate_exponents_pinned(self):
        # (z^2 - t)/z at n_max 8: the values of the degree-256 symbolic iterates
        fam = parse_family("(z^2 - t)/z")
        ev = GreenEvaluator(fam, R, n_max=8)
        tree = build_probe_tree(fam)
        assert ev.n_star == 8 and len(tree) == 13
        forms = [v.chart_form() for v in tree.vertices]
        got = [(chart, s, ev.exponent(v)[0])
               for (chart, _, s), v in zip(forms, tree.vertices)]
        outer = [("1/z", F(j, 2), F(0)) for j in range(6, 0, -1)]
        inner = [("z", F(0), F(0)), ("z", F(1, 2), F(255, 512))]
        inner += [("z", F(j, 2), F(1, 2)) for j in range(2, 7)]
        assert got == outer + inner

    def test_increments_within_certificate(self):
        for text in ["z^2 + 1/t", "z^2 + t*z", "(z^2 - t)/z"]:
            fam = parse_family(text)
            ev = GreenEvaluator(fam, R, n_max=5)
            d = fam.degree
            c_exp = ev.c_exponent
            for xi in [XG, TypeIIPoint(0, F(1, 2)), TypeIIPoint(0, -1)]:
                prev = ev.approximant_exponent(xi, 0)
                for n in range(1, 5):
                    cur = ev.approximant_exponent(xi, n)
                    assert abs(cur - prev) <= c_exp * F(1, d ** n)
                    prev = cur

    def test_pole_family_spine_profile(self):
        # piecewise profile of the potential for z^2 + 1/t, derived by hand
        # from the coefficient orders of the iterates
        fam = parse_family("z^2 + 1/t")
        ev = GreenEvaluator(fam, R, n_max=16)
        for s, expect in [(F(0), F(-1, 2)), (F(2), F(-1, 2)),
                          (F(-1, 4), F(-1, 4)), (F(-1, 2), F(0)), (F(-3), F(0))]:
            q, _ = ev.exponent(TypeIIPoint(0, s))
            assert q == expect

    def test_certificate_reaches_tolerance(self):
        fam = parse_family("z^2 + 1/t")
        ev = GreenEvaluator(fam, R, n_max=20, tol=1e-4)
        assert ev._tail_bound(ev.n_star) < 1e-4

    def test_budget_exhaustion_reports_bound(self):
        # a rational family has no escape-region closure: at n_max 3 the
        # orbit sum stops short of the tolerance and says so
        fam = parse_family("(z^2 - t)/z")
        ev = GreenEvaluator(fam, R, n_max=3, tol=1e-9)
        q, bound = ev.exponent(TypeIIPoint(0, 1))
        assert bound > 1e-9  # honest: tolerance not reached at the budget
        assert float(q) == pytest.approx(0.5)  # value 1/2 * log r

    def test_orbit_leaving_float_range_stops_honestly(self):
        # (z^3 + 1/t)/(z + 1) squares the lead of a far center each step: the
        # cube a step forms of 0.65**(2**10) underflows, and of 1.7**(2**9)
        # overflows, so the walk stops there with the tail bound of the
        # steps it took, above tol; a unit lead walks all n_star steps
        fam = parse_family("(z^3 + 1/t)/(z + 1)")
        ev = GreenEvaluator(fam, R, n_max=20, tol=1e-6)
        assert ev.n_star == 14
        for lead, steps in ((0.65, 10), (1.7, 9)):
            xi = TypeIIPoint(L({-2: lead}), 0)
            assert ev.exponent(xi) == (0, ev._tail_bound(steps))
            assert ev._tail_bound(steps) > ev.tol
            assert ev.approximant_exponent(xi, steps) == 0
            with pytest.raises(PrecisionError, match="float range"):
                ev.approximant_exponent(xi, steps + 1)
        unit = TypeIIPoint(L({-2: 1.0}), 0)
        assert ev.exponent(unit) == (0, ev._tail_bound(14))
        assert ev._tail_bound(14) < ev.tol
        # the plain partial sum on z^2 + 1/t used to read 1/2048 here, not 0
        ev = GreenEvaluator(parse_family("z^2 + 1/t"), R, n_max=16)
        with pytest.raises(PrecisionError, match="float range"):
            ev.approximant_exponent(TypeIIPoint(L({-1: 0.65}), 0), 13)

    def test_gauss_point_closes_exactly(self):
        # z^2 + 1/t maps the Gauss point into |z| > r^(-1/2) in one step,
        # where the one-step exponent is 0: the sum is -1/2 with no tail
        fam = parse_family("z^2 + 1/t")
        q, bound = GreenEvaluator(fam, R, n_max=3, tol=1e-9).exponent(XG)
        assert q == F(-1, 2) and bound == 0.0


class TestSectionExponent:
    """One section-exponent routine behind the Green, Lyapunov and model
    function exponents."""

    @pytest.mark.parametrize("text", FAMILY_TEXTS)
    def test_agrees_with_one_step_and_model_exponent(self, text):
        fam = parse_family(text)
        ev = GreenEvaluator(fam, R, n_max=2)
        one_step = AdmissibleDatum(fam.degree, (fam.p0, fam.p1))
        for v in build_probe_tree(fam).vertices:
            q = _section_exponent((fam.p0, fam.p1), v)
            assert isinstance(q, F)
            assert one_step_exponent(ev, v) == q
            assert g_na_exponent(one_step, v) == q


def _closure_families():
    """(family, expected (E, c)): unit lifts, a lift whose leading
    coefficient has order 1 and one with order -1, so c != 0."""
    p0 = HomogeneousPoly(2, {2: L.t_power(1), 0: L.one()})
    p1 = HomogeneousPoly(2, {0: L.t_power(1)})
    return [(parse_family("z^2 + 1/t"), (F(-1, 2), F(0))),
            (parse_family("z^3 + 1/t"), (F(-1, 3), F(0))),
            (parse_family("t*z^2 + 1"), (F(-1), F(1))),
            (RationalMapFamily(2, p0, p1), (F(-1, 2), F(1))),
            (twisted(parse_family("z^2 + 1/t"), -1), (F(-1, 2), F(-1)))]


def _escape_m(zpair):
    a, s = zpair
    return s if a.is_zero() else min(a.order(), s)


def _random_escape_disks(rng, e, count=40):
    """z-chart disks (a, s) with min(ord a, s) < e: centers with a leading
    exponent below e (or zero with s below e) and a few higher terms.

    Leading coefficients are 1, -1, i or -i: the partial sums raise them to
    the power d**n, where any other modulus leaves the float range within
    n_star steps."""
    disks = []
    for _ in range(count):
        q = rng.choice([1, 2, 3, 6])
        lead = e - F(rng.randint(1, 3 * q), q)
        if rng.random() < 0.25:
            disks.append((L.zero(), lead))
            continue
        terms = {lead: rng.choice([1.0, -1.0, 1j, -1j])}
        for _ in range(rng.randint(0, 3)):
            terms[lead + F(rng.randint(1, 4 * q), q)] = complex(rng.uniform(-2, 2), 0.5)
        disks.append((L(terms), lead + F(rng.randint(-q, 4 * q), q)))
    return disks


class TestGreenClosure:
    def test_escape_region_from_coefficient_orders(self):
        for fam, expected in _closure_families():
            assert GreenEvaluator(fam, R).escape == expected
        assert GreenEvaluator(parse_family("(z^2 - t)/z"), R).escape is None

    def test_one_step_constant_and_region_invariant(self):
        rng = random.Random(12)
        for fam, _ in _closure_families():
            ev = GreenEvaluator(fam, R)
            e, c = ev.escape
            for zp in _random_escape_disks(rng, e):
                assert _escape_m(zp) < e
                assert one_step_exponent(ev, TypeIIPoint(*zp)) == c
                assert _escape_m(map_disk(fam.affine_coeffs, zp)) < e

    def test_closed_sum_against_partial_sums(self):
        rng = random.Random(13)
        for fam, _ in _closure_families():
            ev = GreenEvaluator(fam, R, n_max=16)
            e, c = ev.escape
            d = fam.degree
            disks = [v.zpair() for v in build_probe_tree(fam, q=2).vertices]
            disks += _random_escape_disks(rng, e, count=10)
            for zp in disks:
                # the step at which the orbit enters the region
                cur, entry = zp, 0
                while _escape_m(cur) >= e and entry <= ev.n_star:
                    cur = berkovich._reduce_center(*map_disk(fam.affine_coeffs, cur))
                    entry += 1
                xi = TypeIIPoint(*zp)
                q, bound = ev.exponent(xi)
                assert (bound == 0.0) == (entry <= ev.n_star)
                for n in range(ev.n_star + 1):
                    diff = q - ev.approximant_exponent(xi, n)
                    if bound == 0.0:
                        assert abs(float(diff)) * abs(LOG_R) <= ev._tail_bound(n)
                    if entry <= n:
                        assert diff == c * F(1, d ** n * (d - 1))

    def test_unclosed_orbit_keeps_tail_bound(self):
        # t*z^2 + 1 fixes D(0, 1): that orbit never escapes
        fam = parse_family("t*z^2 + 1")
        ev = GreenEvaluator(fam, R, n_max=16)
        q, bound = ev.exponent(XG)
        assert q == ev.approximant_exponent(XG, ev.n_star)
        assert bound == ev._tail_bound(ev.n_star) > 0.0


RATIONAL_TEXTS = ["(z^2 - t)/z", "(z^2 + t*z + 1)/(t*z + 1)", "(t*z^2 + 1)/z",
                  "(z^3 - t)/(z^2 + t)", "1/(z^2 + t)", "(z^2 + 1/t)/(z - 1)"]


class TestRationalOrbit:
    """Rational families walk the forward orbit like polynomial ones; the
    symbolic iterates are the reference."""

    @pytest.mark.parametrize("text", RATIONAL_TEXTS)
    def test_orbit_equals_symbolic_iterates(self, text):
        # every default-tree vertex to n = 5; the disks off the tree too,
        # except at the cubic's degree-243 iterate, whose Taylor shift to a
        # nonzero center takes seconds per disk
        fam = parse_family(text)
        ev = GreenEvaluator(fam, R, n_max=5)
        tree = build_probe_tree(fam).vertices
        disks = [TypeIIPoint(*zp) for zp in [
            (L({F(1, 3): 0.3 + 0.4j}), F(1)), (L.t_power(-1, 2.0), F(0)), (L.one(), F(1, 2))]]
        for n in range(6):
            pts = tree + disks if fam.degree ** n <= 81 else tree
            assert [ev.approximant_exponent(xi, n) for xi in pts] == \
                iterate_exponents(fam, pts, n)

    @pytest.mark.parametrize("text", RATIONAL_TEXTS)
    def test_one_step_from_the_shared_shift(self, text):
        # g1 read off the Taylor shift at the pole-free base point equals
        # the section exponent at every default-tree vertex
        fam = parse_family(text)
        ev = GreenEvaluator(fam, R, n_max=2)
        for v in build_probe_tree(fam).vertices:
            assert one_step_exponent(ev, v) == _section_exponent((fam.p0, fam.p1), v)

    def test_disk_centered_on_a_pole(self):
        # z - t/z: Q = z vanishes at the center of D(0, r^s), so the image
        # comes from a base point a + u*t^s; |t/z| = r^(1-s) wins for s > 1/2
        fam = parse_family("(z^2 - t)/z")
        num, den = fam.p0.dehomogenized(), fam.p1.dehomogenized()
        assert taylor_shift(den, L.zero())[0].is_zero()
        for s, image in ((F(1, 4), F(1, 4)), (F(1, 2), F(1, 2)), (F(1), F(0)), (F(2), F(-1))):
            assert TypeIIPoint(*map_disk(num, (L.zero(), s), den)) == \
                TypeIIPoint(0, image)

    def test_unit_denominator_is_the_polynomial_rule(self):
        fam = parse_family("z^2 + 1/t")
        coeffs = fam.affine_coeffs
        one = [L.one(), L.zero(), L.zero()]
        for v in build_probe_tree(fam).vertices:
            assert map_disk(coeffs, v.zpair(), one) == map_disk(coeffs, v.zpair())

    def test_no_pole_free_base_point(self):
        # Q = O(t) + z on D(0, r^2): Q(b) is zero to truncation at every b
        num = [L.one(), L.zero(), L.zero()]
        den = [L.zero(trunc=1), L.one(), L.zero()]
        with pytest.raises(PrecisionError, match="base point"):
            map_disk(num, (L.zero(), F(2)), den)

    def test_deep_certified_green(self):
        # configs/na-measure-rational.ini: the tail bound falls below tol at
        # n_star = 11 on every default-tree vertex
        fam = parse_family("(z^2 - t)/z")
        tree = build_probe_tree(fam)
        ev = GreenEvaluator(fam, R, n_max=16)
        got = [ev.exponent(v) for v in tree.vertices]
        assert ev.n_star == 11
        assert all(bound == ev._tail_bound(11) < ev.tol for _, bound in got)
        assert [q for q, _ in got] == [F(0)] * 7 + [F(2047, 4096)] + [F(1, 2)] * 5
        # 40 orbit terms; D(0, r^(1/2)) is fixed, so one table step
        ev = GreenEvaluator(fam, R, n_max=40, tol=1e-12)
        assert ev.n_star == 40
        assert ev.exponent(TypeIIPoint(0, F(1, 2)))[0] == F(1, 2) - F(1, 2 ** 41)


# (family, GreenEvaluator n_max, build_probe_tree grid): the probe trees of
# the na-rational and na-deep-tree benchmark configs, then every preset family
_STEP_TABLE_TREES = [("(z^2 - t)/z", 8, {}),
                     ("z^2 + 1/t", 16, dict(s_min=-4, s_max=4, q=4, orbit_len=3))]
_STEP_TABLE_TREES += [(text, 16, {}) for text in FAMILY_TEXTS]


class TestStepTable:
    """One evaluator steps each orbit disk once; every result is the one a
    fresh evaluator per vertex gives."""

    @pytest.mark.parametrize("text, n_max, grid", _STEP_TABLE_TREES)
    def test_shared_evaluator_equals_fresh_per_vertex(self, text, n_max, grid):
        fam = parse_family(text)
        vertices = build_probe_tree(fam, **grid).vertices
        cold = [GreenEvaluator(fam, R, n_max=n_max).exponent(v) for v in vertices]
        ev = GreenEvaluator(fam, R, n_max=n_max)
        assert [ev.exponent(v) for v in vertices] == cold
        ev = GreenEvaluator(fam, R, n_max=n_max)
        assert [ev.exponent(v) for v in reversed(vertices)] == cold[::-1]

    def test_approximants_and_exponents_share_the_table(self):
        fam = parse_family("(z^2 - t)/z")
        vertices = build_probe_tree(fam).vertices
        ns = range(11)

        def approximants(ev):
            return [[ev.approximant_exponent(v, n) for n in ns] for v in vertices]

        cold_q = [[GreenEvaluator(fam, R, n_max=8).approximant_exponent(v, n) for n in ns]
                  for v in vertices]
        cold_e = [GreenEvaluator(fam, R, n_max=8).exponent(v) for v in vertices]
        ev = GreenEvaluator(fam, R, n_max=8)
        assert [ev.exponent(v) for v in vertices] == cold_e
        assert approximants(ev) == cold_q
        ev = GreenEvaluator(fam, R, n_max=8)
        assert approximants(ev) == cold_q
        assert [ev.exponent(v) for v in vertices] == cold_e

    def test_steps_per_distinct_disk(self, monkeypatch):
        # na-rational's 13 vertices sum 8 orbit terms each, 104 in all, but
        # their orbits visit 13 disks (an emptied exact center is the one
        # zero center, whatever its ramification)
        fam = parse_family("(z^2 - t)/z")
        vertices = build_probe_tree(fam).vertices
        calls = []
        step = berkovich._orbit_step
        monkeypatch.setattr(berkovich, "_orbit_step",
                            lambda *args: calls.append(1) or step(*args))
        ev = GreenEvaluator(fam, R, n_max=8)
        assert len(vertices) * ev.n_star == 104
        for v in vertices:
            ev.exponent(v)
        assert len(calls) == len(ev._steps) == 13

    @pytest.mark.parametrize("zeros", [(complex(0.5, 0.0), complex(0.5, -0.0)),
                                       (complex(0.0, 0.5), complex(-0.0, 0.5))])
    def test_signed_zeros_are_distinct_disks(self, zeros):
        fam = parse_family("(z^2 - t)/z")
        p, q = (TypeIIPoint(L({1: c}), 2) for c in zeros)
        assert berkovich._disk_key(p.zpair()) != berkovich._disk_key(q.zpair())
        ev = GreenEvaluator(fam, R, n_max=4)
        assert ev.exponent(p) == GreenEvaluator(fam, R, n_max=4).exponent(p)
        assert berkovich._disk_key(q.zpair()) not in ev._steps
        assert ev.exponent(q) == GreenEvaluator(fam, R, n_max=4).exponent(q)
        assert {berkovich._disk_key(x.zpair()) for x in (p, q)} <= set(ev._steps)

    def test_failed_step_is_not_stored(self, monkeypatch):
        # D(0, r^-1) is the first orbit disk of the vertex there and the
        # second of D(0, r^2); a step from it that raises raises for both
        fam = parse_family("(z^2 - t)/z")
        step, failed = berkovich._orbit_step, []

        def failing_step(num, zpair, den=None):
            if zpair[0].is_zero() and zpair[1] == -1:
                failed.append(zpair)
                raise PrecisionError("truncated coefficient")
            return step(num, zpair, den)

        monkeypatch.setattr(berkovich, "_orbit_step", failing_step)
        ev = GreenEvaluator(fam, R, n_max=8)
        for xi in (TypeIIPoint(0, -1), TypeIIPoint(0, 2)):
            with pytest.raises(PrecisionError):
                ev.exponent(xi)
        assert len(failed) == 2
        assert berkovich._disk_key((L.zero(), F(-1))) not in ev._steps
        assert berkovich._disk_key((L.zero(), F(2))) in ev._steps


class TestChartForm:
    """Only records need a point's chart form; nothing else inverts a
    center, and records invert each distinct center once."""

    @staticmethod
    def _count_inversions(monkeypatch):
        calls = []
        real = berkovich._invert_center
        monkeypatch.setattr(berkovich, "_invert_center",
                            lambda a, s: calls.append(a) or real(a, s))
        return calls

    @pytest.mark.parametrize("text, grid", [
        ("z^2 + 1/t", dict(s_min=-4, s_max=4, q=4, orbit_len=3)),
        ("2*z^3 + z^2/t + 1/t^2", {}),
        ("(z^2 - t)/z", {}),
    ])
    def test_no_inversion_outside_records(self, monkeypatch, text, grid):
        calls = self._count_inversions(monkeypatch)
        fam = parse_family(text)
        tree = build_probe_tree(fam, **grid)
        tree = subtree_span(tree.vertices)
        ev = GreenEvaluator(fam, R, n_max=16)
        mu = tree_ma(lambda v: ev.exponent(v)[0], tree, R)
        na_lyapunov(fam, mu)
        assert calls == []
        far = [v for v in tree.vertices if v.zpair()[0].order() < 0]
        for v in far:
            assert v.chart_form()[0] == "1/z"
        assert len(calls) == len(far)
        p = TypeIIPoint(L.t_power(-1), 0)
        p.chart_form()
        repr(p)
        assert len(calls) == len(far) + 2
        calls.clear()
        shared = mu.records()
        assert len(calls) == len({v.zpair()[0] for v in far})
        alone = [v.chart_form() for v in tree.vertices]
        assert shared == [{"chart": chart, "center": str(a), "s": f"{s.numerator}/{s.denominator}",
                           "mass": m} for (chart, a, s), m in zip(alone, mu.masses)]

    @staticmethod
    def _own_inversion(p):
        """The chart form with the point's own inversion, as one point alone
        would get it."""
        a, s = p.zpair()
        alpha = a.order()
        if alpha >= s:
            return ("z", a, s) if s >= 0 else ("1/z", a, -s)
        if alpha >= 0:
            return "z", a, s
        c, su = berkovich._invert_center(a, s)
        return "1/z", berkovich._reduce_center(c, su)[0], su

    @pytest.mark.parametrize("seed", range(8))
    def test_shared_inversion_matches_each_point_alone(self, monkeypatch, seed):
        # generic complex coefficients, ramification 1-6, some truncated
        # centers, radii from far outside to far inside the unit disk; each
        # center gets radii above its last term, so points share it
        rng = random.Random(seed)
        pts = []
        for _ in range(8):
            ram = rng.randint(1, 6)
            exps = [rng.randint(-4 * ram, -1)] + rng.sample(range(4 * ram), rng.randint(0, 3))
            exps = sorted(set(exps))
            center = L({F(k, ram): complex(rng.gauss(0, 1), rng.gauss(0, 1)) for k in exps},
                       trunc=F(exps[-1] + rng.randint(1, 6), ram) if rng.random() < 0.3
                       else math.inf)
            radii = [F(rng.randint(-12, 18), rng.randint(1, 6)) for _ in range(rng.randint(1, 5))]
            radii += [F(exps[-1], ram) + F(rng.randint(1, 30), rng.randint(1, 6))
                      for _ in range(2)]
            pts += [TypeIIPoint(center, s) for s in radii]
        rng.shuffle(pts)
        calls = self._count_inversions(monkeypatch)
        forms = berkovich.chart_forms(pts)
        far = {p.zpair()[0] for p in pts if p.zpair()[0].order() < min(0, p.zpair()[1])}
        assert len(calls) == len(far) < sum(p.zpair()[0] in far for p in pts)
        for p, form in zip(pts, forms):
            chart, center, s = self._own_inversion(p)
            assert form[0] == chart and form[2] == s
            assert list(form[1].terms.items()) == list(center.terms.items())
            assert (form[1].ram, form[1].trunc) == (center.ram, center.trunc)
            assert str(form[1]) == str(center)  # as records print it


class TestResultant:
    def test_good_reduction(self):
        assert resultant_valuation(parse_family("z^2")) == 0

    def test_twisted_lift(self):
        fam = twisted(parse_family("z^2"))
        assert resultant_valuation(fam) == 4
        assert good_reduction_exponent(fam) == 0

    def test_degenerate(self):
        p = HomogeneousPoly(2, {1: L.one()})
        with pytest.raises(DegenerateFamilyError):
            resultant_valuation(RationalMapFamily(2, p, p))

    def test_matches_numeric_slope(self):
        # independent oracle: ord(Res) from log|Res(t)| via numeric Sylvester
        fam = parse_family("z^2 + 1/t")
        exact = resultant_valuation(fam)
        ts = [1e-4, 1e-5]
        vals = []
        for tv in ts:
            a = [c.eval(tv) for c in fam.p0.dehomogenized()][::-1]
            b = [c.eval(tv) for c in fam.p1.dehomogenized()][::-1]
            m = np.zeros((4, 4), dtype=complex)
            m[0, 0:3] = a
            m[1, 1:4] = a
            m[2, 0:3] = b
            m[3, 1:4] = b
            vals.append(math.log(abs(np.linalg.det(m))))
        slope = (vals[1] - vals[0]) / (math.log(ts[1]) - math.log(ts[0]))
        assert slope == pytest.approx(float(exact), abs=1e-6)


class TestTrees:
    def test_single_vertex(self):
        tree = subtree_span([XG])
        assert len(tree) == 1 and tree.gauss_index == 0

    def test_path(self):
        tree = subtree_span([TypeIIPoint(0, 1), TypeIIPoint(0, 2)])
        assert len(tree) == 3
        lengths = sorted(length for _, _, length in tree.edges)
        assert lengths == [1, 1]

    def test_branch_vertex_from_join(self):
        pts = [TypeIIPoint(L.t_power(1), 2), TypeIIPoint(L({1: -1}), 2)]
        tree = subtree_span(pts)
        # join at ord(2t) = 1: the branch point is D(0, r)
        assert any(v == TypeIIPoint(0, 1) for v in tree.vertices)
        assert len(tree) == 4

    def test_map_disk(self):
        # image of D(0, r^s) under z^2 + 1/t: center 1/t, radius exponent 2s
        coeffs = [L.t_power(-1), L.zero(), L.one()]
        center, s = map_disk(coeffs, (L.zero(), F(1)))
        assert center == L.t_power(-1) and s == 2

    def test_map_disk_truncation_guard(self):
        # c*z + z^2 with c known only to O(t): on D(0, r^2) the hidden linear
        # term could reach r^3, below the quadratic term's r^4
        coeffs = [L.zero(), L.zero(trunc=1), L.one()]
        with pytest.raises(PrecisionError):
            map_disk(coeffs, (L.zero(), F(2)))
        assert map_disk(coeffs, (L.zero(), F(-2)))[1] == -4

    def test_undecidable_containment_raises(self):
        c = L.zero(trunc=1)  # a center known to be zero only up to O(t)
        assert _ord_at_least(c, 1)
        assert not _ord_at_least(L.t_power(1), 2)
        with pytest.raises(PrecisionError):
            _ord_at_least(c, 2)
        # whether D(0, r^2) contains the center c is undecidable
        with pytest.raises(PrecisionError):
            subtree_span([(c, 3), (L.zero(), 2)])
        # the same pair among decidable disks, neither first nor adjacent in
        # input order; without the partner the set spans fine
        pts = [(L.t_power(-1), 1), (L.zero(), 2), (L.one(), 2),
               (L({-1: 1j}), 0), (c, 3)]
        with pytest.raises(PrecisionError):
            subtree_span(pts)
        with pytest.raises(PrecisionError):
            _all_pairs_span(pts)
        rest = pts[:1] + pts[2:]
        assert _span_summary(subtree_span(rest)) == _span_summary(_all_pairs_span(rest))

    def test_critical_centers(self):
        fam = parse_family("z^3 + t*z")
        crits = critical_centers(fam, target=F(6))
        assert len(crits) == 2
        assert all(c.order() == F(1, 2) for c in crits)

    def test_close_critical_points_stay_apart(self):
        # 3 z^2 - 3e-16: the critical points ±1e-8 are simple, not one
        # double point at 0
        crits = critical_centers(parse_family("z^3 - 3e-16*z + 1/t"))
        assert [c.coefficient(0) for c in crits] == [1e-8, -1e-8]


def _join(zp, zq):
    """z-pair of the path join of two disk points."""
    (a, s), (b, u) = zp, zq
    m = min(s, u)
    diff = a - b
    return (a, m if _ord_at_least(diff, m) else diff.order())


def _all_pairs_span(points) -> BerkTree:
    """Reference span: close under all pairwise joins, deduplicate in order
    of first appearance, sort stably by radius, quadratic parent search."""
    pts = [p if isinstance(p, TypeIIPoint) else TypeIIPoint(*p) for p in points]
    pts.append(TypeIIPoint.gauss())
    all_pairs = [p.zpair() for p in pts]
    n0 = len(all_pairs)
    for i in range(n0):
        for j in range(i + 1, n0):
            all_pairs.append(_join(all_pairs[i], all_pairs[j]))
    uniq_pairs = []
    centers_at: dict = {}
    for a, s in all_pairs:
        centers = centers_at.setdefault(s, [])
        if not any(_ord_at_least(a - b, s) for b in centers):
            centers.append(a)
            uniq_pairs.append((a, s))
    uniq_pairs.sort(key=lambda zp: zp[1])
    edges = []
    for i in range(1, len(uniq_pairs)):
        a_i, s_i = uniq_pairs[i]
        parent = None
        for j in range(i):
            a_j, s_j = uniq_pairs[j]
            if s_j < s_i and _ord_at_least(a_j - a_i, s_j):
                parent = j
        if parent is None:
            raise ChartError("disconnected point set: no containing vertex found")
        edges.append((i, parent, s_i - uniq_pairs[parent][1]))
    vertices = [TypeIIPoint(*zp) for zp in uniq_pairs]
    gauss_index = next(i for i, p in enumerate(vertices) if p.is_gauss())
    return BerkTree(vertices, edges, gauss_index)


def _span_summary(tree):
    return ([(chart, str(a), s) for chart, a, s in chart_forms(tree.vertices)],
            [(str(a), s) for a, s in (v.zpair() for v in tree.vertices)],
            tree.edges, tree.gauss_index)


def _probe_points(monkeypatch, family, **grid):
    """The points build_probe_tree hands to subtree_span."""
    seen = []
    real = berkovich.subtree_span
    monkeypatch.setattr(berkovich, "subtree_span",
                        lambda points: seen.append(list(points)) or real(points))
    build_probe_tree(parse_family(family), **grid)
    monkeypatch.undo()
    return seen[0]


_EXPONENTS = [F(-1), F(-1, 2), F(0), F(1, 3), F(1, 2), F(1), F(3, 2), F(2)]
# equal real parts with different imaginary parts split branches too
_COEFFS = [1, -1, 1j, -1j, 1 + 1j, 1 - 1j, 2]


def _random_points(seed, truncated=False):
    """Seeded disks: duplicates, nested disks, negative radius exponents,
    far centers (a leading term of negative order, printed in the 1/z chart)
    and the Gauss point as an explicit input; with ``truncated``, some
    centers are known only to a truncation order."""
    rng = random.Random(seed)

    def center():
        exps = rng.sample(_EXPONENTS, rng.randint(0, 3))
        terms = {e: rng.choice(_COEFFS) for e in exps}
        if truncated and rng.random() < 0.3:
            return L(terms, trunc=rng.choice([F(0), F(1, 2), F(1), F(3, 2)]))
        return L(terms)

    pts = [TypeIIPoint.gauss()]
    while len(pts) < 20:
        kind = rng.random()
        s = F(rng.randint(-6, 10), rng.choice([1, 2, 3]))
        try:
            if kind < 0.15:
                pts.append(rng.choice(pts))
            elif kind < 0.3:
                a, u = rng.choice(pts).zpair()
                pts.append(TypeIIPoint(a, u + F(rng.randint(1, 4), 2)))
            elif kind < 0.45:
                far = L({rng.choice([F(-3), F(-2), F(-3, 2)]): rng.choice(_COEFFS)})
                pts.append(TypeIIPoint(far + center(), s))
            else:
                pts.append(TypeIIPoint(center(), s))
        except (PrecisionError, ChartError):
            continue
    rng.shuffle(pts)
    return pts


class TestSpanReference:
    """The depth-first span equals the all-pairs closure exactly."""

    @pytest.mark.parametrize("family, grid", [
        ("z^2 + 1/t", dict(s_min=-4, s_max=4, q=4, orbit_len=3)),
        ("z^2 + 1/t", {}),
        ("z^3 + t*z", {}),
        ("z^3 + 1/t", dict(q=3)),
        ("z^2 + t*z", dict(q=3, orbit_len=3)),
        ("(z^2 - t)/z", dict(q=4)),
        ("z^2", {}),
        ("z^3 + z/t", dict(s_min=-2, s_max=5)),
    ])
    def test_probe_trees(self, monkeypatch, family, grid):
        pts = _probe_points(monkeypatch, family, **grid)
        assert _span_summary(subtree_span(pts)) == _span_summary(_all_pairs_span(pts))

    @pytest.mark.parametrize("seed", range(12))
    def test_random_point_sets(self, seed):
        pts = _random_points(seed)
        assert _span_summary(subtree_span(pts)) == _span_summary(_all_pairs_span(pts))

    @pytest.mark.parametrize("seed", range(12))
    def test_random_truncated_centers(self, seed):
        # both raise PrecisionError on the same sets, or give the same tree
        pts = _random_points(seed, truncated=True)

        def outcome(span):
            try:
                return _span_summary(span(pts))
            except PrecisionError:
                return "undecidable"

        assert outcome(subtree_span) == outcome(_all_pairs_span)

    def test_containment_tests_near_linear(self, monkeypatch):
        # one depth-first key per disk, as long as its center's stored terms
        # (not one token per grid exponent below its radius), and no series
        # arithmetic: joins come from the keys, input points are the
        # vertices as given, and only join-only vertices are built anew
        pts = _probe_points(monkeypatch, "z^2 + 1/t", s_min=-6, s_max=6, q=8,
                            orbit_len=4)
        n = len(pts) + 1  # with the Gauss point
        keys, ops, reduced = [], [], []
        real_key, real_reduce = berkovich._dfs_key, berkovich._reduce_center
        monkeypatch.setattr(berkovich, "_dfs_key",
                            lambda zp, grid: keys.append(real_key(zp, grid)) or keys[-1])
        monkeypatch.setattr(berkovich, "_reduce_center",
                            lambda a, s: reduced.append(s) or real_reduce(a, s))
        for name in ("__add__", "__sub__", "__mul__", "inverse"):
            monkeypatch.setattr(L, name, lambda *args, _real=getattr(L, name), _name=name:
                                ops.append(_name) or _real(*args))
        tree = subtree_span(pts)
        monkeypatch.undo()
        assert n == 874 and len(tree) > 500
        assert len(keys) == n
        assert sum(map(len, keys)) == sum(len(p.zpair()[0].terms) + 1 for p in pts) + 1
        assert sum(map(len, keys)) <= 4 * n  # 2,612 tokens
        assert ops == []
        given = {id(p) for p in pts}
        built = sum(id(v) not in given for v in tree.vertices)
        assert len(reduced) <= built + 1  # and the Gauss point's own construction

    @pytest.mark.parametrize("points", [
        [(L.zero(trunc=1), 3), (L.zero(trunc=1), 3)],  # one undecidable disk twice
        [(L.zero(trunc=1), 3), (L.zero(trunc=1), 2)],
        [(L.zero(trunc=1), 3), (L.zero(), 1)],  # the hull D(0, r) contains it
        [(L.zero(trunc=1), 3), (L.t_power(1), 2)],  # a term at the unknown exponent
        [(L.zero(trunc=1), 3), (L.t_power(F(1, 2)), 2)],  # a term below it
        [(L({0: 1j}, trunc=2), 3), (L({0: 1j, 1: 2}), 4), (L({0: 1j}), F(3, 2))],
        [(L({0: 1j}, trunc=2), 3), (L({0: 1j, 3: 2}), F(5, 2)), (L({0: 1j}), F(3, 2))],
        [(L.zero(trunc=-1), 0)],  # undecidable against the Gauss point
        [(L({-1: 1}, trunc=0), 1), (L({-1: 1}, trunc=F(1, 2)), 1)],
    ])
    def test_truncated_centers_by_hand(self, points):
        def outcome(span):
            try:
                return _span_summary(span(points))
            except PrecisionError:
                return "undecidable"

        assert outcome(subtree_span) == outcome(_all_pairs_span)


class TestTreeMeasure:
    def test_zero_potential_is_dirac_at_gauss(self):
        tree = build_probe_tree(parse_family("z^2"), q=2)
        mu = tree_ma(lambda v: F(0), tree, R)
        assert mu.total_mass() == pytest.approx(1.0, abs=1e-12)
        assert mu.mass_at_gauss() == pytest.approx(1.0, abs=1e-12)

    def test_slope_transport_on_path(self):
        # potential with slope +1 (in |log r| units) on [gauss, D(0, r)] and
        # flat beyond moves the unit mass one step down the path
        pts = [TypeIIPoint(0, 1), TypeIIPoint(0, 2)]
        tree = subtree_span(pts)

        def g(v):
            # exponent q = min(s, 1): value q * log r decreases at unit rate
            # (in |log r| units) from the gauss point down to D(0, r)
            return min(v.zpair()[1], F(1))

        mu = tree_ma(g, tree, R)
        masses = {str(v.zpair()[1]): m for v, m in zip(tree.vertices, mu.masses)}
        assert masses["1"] == pytest.approx(1.0)
        assert masses["0"] == pytest.approx(0.0)
        assert masses["2"] == pytest.approx(0.0)

    def test_conservation_on_green_potentials(self):
        for text in ["z^2", "z^2 + 1/t", "z^2 + t*z", "(z^2 - t)/z", "z^3 + t*z"]:
            fam = parse_family(text)
            n_max = 12 if fam.is_polynomial() else 5
            ev = GreenEvaluator(fam, R, n_max=n_max)
            tree = build_probe_tree(fam, q=2)
            mu = tree_ma(lambda v: ev.exponent(v)[0], tree, R)
            assert mu.total_mass() == pytest.approx(1.0, abs=1e-9)
            assert all(m >= -1e-9 for m in mu.masses)
            assert 0.0 <= mu.leaf_mass_fraction() <= 1.0

    def test_good_reduction_dirac(self):
        fam = parse_family("z^2 - 2")
        ev = GreenEvaluator(fam, R)
        tree = build_probe_tree(fam, q=2)
        mu = tree_ma(lambda v: ev.exponent(v)[0], tree, R)
        assert mu.mass_at_gauss() == pytest.approx(1.0, abs=1e-12)

    def test_negative_mass_raises(self):
        tree = subtree_span([TypeIIPoint(0, 1)])

        def bad(v):  # superharmonic at the gauss point: mass -1 there
            return 2 * min(v.zpair()[1], F(1))

        with pytest.raises(ConventionError):
            tree_ma(bad, tree, R)
        mu = tree_ma(bad, tree, R, on_negative="report")
        assert mu.negative_report


def _newton_min_reference(shifted, s):
    """``berkovich._newton_min`` in plain Fraction arithmetic."""
    best = hidden = math.inf
    for j, c in enumerate(shifted):
        if not c.is_zero():
            best = min(best, c.order() + j * s)
        elif not c.is_exact_zero():
            hidden = min(hidden, c.trunc_order + j * s)
    if hidden < best:
        raise PrecisionError("truncated coefficient could dominate the disk seminorm")
    return best


def _reduce_center_reference(a, s):
    """``berkovich._reduce_center`` comparing each key with the Fraction s * ram."""
    exact_enough = a.trunc_order >= s
    kept = {k: a.terms[k] for k in sorted(a.terms) if k < s * a.ram}
    if exact_enough and not kept:
        return L.zero(), s
    return L._make(a.ram, kept, None if exact_enough else a.trunc), s


def _outcome(f, *args):
    try:
        return f(*args)
    except PrecisionError:
        return PrecisionError


def _random_coefficient(rng):
    """An exact zero, a zero known to a truncation order, or a series on a
    grid of ramification 1-4, some truncated."""
    ram = rng.randint(1, 4)
    kind = rng.random()
    if kind < 0.15:
        return L.zero()
    if kind < 0.35:
        return L.zero(trunc=F(rng.randint(-8 * ram, 8 * ram), ram))
    exps = sorted(rng.sample(range(-6 * ram, 6 * ram), rng.randint(1, 4)))
    trunc = F(exps[-1] + rng.randint(1, 5), ram) if rng.random() < 0.3 else math.inf
    return L({F(k, ram): complex(rng.gauss(0, 1), rng.gauss(0, 1)) for k in exps},
             trunc=trunc, ram=ram)


def _random_radius(rng):
    """An int or a Fraction, negative, zero or positive."""
    if rng.random() < 0.25:
        return rng.randint(-5, 5)
    return F(rng.randint(-24, 24), rng.randint(1, 6))


def _series_state(a):
    return a.ram, a.trunc, list(a.terms.items())


class TestIntegerExponents:
    """The seminorm minimum, the disk reduction and the tree Laplacian run on
    integer exponent grids; each equals its plain-Fraction reference."""

    @pytest.mark.parametrize("seed", range(4))
    def test_newton_min_matches_fraction_reference(self, seed):
        rng = random.Random(seed)
        outcomes = set()
        for _ in range(400):
            shifted = [_random_coefficient(rng) for _ in range(rng.randint(1, 5))]
            s = _random_radius(rng)
            want = _outcome(_newton_min_reference, shifted, s)
            got = _outcome(berkovich._newton_min, shifted, s)
            assert got == want and type(got) is type(want)
            outcomes.add(want if want in (math.inf, PrecisionError) else F)
        assert outcomes == {math.inf, PrecisionError, F}

    @pytest.mark.parametrize("seed", range(4))
    def test_reduce_center_matches_fraction_reference(self, seed):
        rng = random.Random(seed)
        for _ in range(400):
            a, s = _random_coefficient(rng), _random_radius(rng)
            (got, gs), (want, ws) = berkovich._reduce_center(a, s), _reduce_center_reference(a, s)
            assert gs is ws
            assert _series_state(got) == _series_state(want)

    @pytest.mark.parametrize("text, n_max, grid", _STEP_TABLE_TREES)
    @pytest.mark.parametrize("potential", ["green", "random"])
    def test_tree_ma_equals_fraction_sum_bit_for_bit(self, text, n_max, grid, potential):
        # the Green masses are mostly dyadic; random exponents with
        # denominators up to 12 give masses that float sums would round
        fam = parse_family(text)
        tree = build_probe_tree(fam, **grid)
        if potential == "green":
            ev = GreenEvaluator(fam, R, n_max=n_max)
            values = {id(v): ev.exponent(v)[0] for v in tree.vertices}
        else:
            rng = random.Random(text)
            values = {id(v): F(rng.randint(-40, 40), rng.randint(1, 12)) for v in tree.vertices}
        want = []
        for i, v in enumerate(tree.vertices):
            acc = F(int(i == tree.gauss_index))
            for j, length in tree.adjacency[i]:
                acc += (values[id(v)] - values[id(tree.vertices[j])]) / length
            want.append(max(float(acc), 0.0))  # tree_ma clips negative masses
        mu = tree_ma(lambda v: values[id(v)], tree, R, on_negative="report")
        assert [m.hex() for m in mu.masses] == [m.hex() for m in want]


class TestNALyapunov:
    def test_good_reduction_zero(self):
        fam = parse_family("z^2")
        assert det_norm_exponent(fam, XG) == 0
        tree = build_probe_tree(fam, q=2)
        ev = GreenEvaluator(fam, R)
        mu = tree_ma(lambda v: ev.exponent(v)[0], tree, R)
        assert na_lyapunov(fam, mu) == 0.0

    def test_unit_coefficients_good_reduction_zero(self):
        p0 = HomogeneousPoly(2, {2: L.one(), 0: L.one()})
        p1 = HomogeneousPoly(2, {0: L.one()})
        fam = RationalMapFamily(2, p0, p1)
        assert good_reduction_exponent(fam) == 0
        ev = GreenEvaluator(fam, R)
        tree = build_probe_tree(fam, q=2)
        mu = tree_ma(lambda v: ev.exponent(v)[0], tree, R)
        assert na_lyapunov(fam, mu) == pytest.approx(0.0, abs=1e-12)

    def test_pole_family_half_ratio(self):
        fam = parse_family("z^2 + 1/t")
        ev = GreenEvaluator(fam, R, n_max=16)
        tree = build_probe_tree(fam, q=2)
        mu = tree_ma(lambda v: ev.exponent(v)[0], tree, R)
        lyap = na_lyapunov(fam, mu)
        assert abs(lyap) / abs(LOG_R) == pytest.approx(0.5, abs=1e-12)

    def test_lift_invariance(self):
        base = parse_family("z^2 + 1/t")
        for fam in (base, twisted(base)):
            ev = GreenEvaluator(fam, R, n_max=16)
            tree = build_probe_tree(fam, q=2)
            mu = tree_ma(lambda v: ev.exponent(v)[0], tree, R)
            assert abs(na_lyapunov(fam, mu)) / abs(LOG_R) == pytest.approx(0.5, abs=1e-9)

    def test_jacobian_built_once_per_call(self, monkeypatch):
        fam = parse_family("(z^2 - t)/z")
        ev = GreenEvaluator(fam, R, n_max=8)
        mu = tree_ma(lambda v: ev.exponent(v)[0], build_probe_tree(fam), R)
        expect = 0.0
        for pt, mass in mu.support():
            expect += mass * float(det_norm_exponent(fam, pt)) * LOG_R
        calls = []
        jac = berkovich.jacobian_determinant
        monkeypatch.setattr(berkovich, "jacobian_determinant",
                            lambda p0, p1: calls.append(1) or jac(p0, p1))
        assert len(mu.support()) > 1
        assert na_lyapunov(fam, mu) == expect
        assert calls == [1]

    def test_rational_family_slope_prediction(self):
        # for (z^2 - t)/z the measure concentrates at D(0, r^(1/2)) and the
        # Lyapunov integral tends to 0 with the iterate budget; the complex
        # Lyapunov is then asymptotically constant in log|t|^-1
        from hybdyn.cxdyn import (MapStack, backward_sample, integrate_mu, log_det_norm,
                                  specialize)

        fam = parse_family("(z^2 - t)/z")
        tree = build_probe_tree(fam, q=2)
        ratios = []
        for n_max in (4, 6):
            ev = GreenEvaluator(fam, R, n_max=n_max, tol=1e-9)
            mu = tree_ma(lambda v: ev.exponent(v)[0], tree, R)
            ratios.append(abs(na_lyapunov(fam, mu)) / abs(LOG_R))
        assert ratios[1] < ratios[0] < 0.15  # tending to zero
        lyaps = []
        for m in (1e-2, 1e-4):
            rc = specialize(fam, m)
            s = backward_sample(rc, seed=77, n_burn=60, n_keep=4000, start=0.8 + 0.4j)
            lyaps.append(integrate_mu(rc, lambda pts: log_det_norm(MapStack([rc]), pts), s))
        slope = (lyaps[1].mean - lyaps[0].mean) / (math.log(1e4) - math.log(1e2))
        sigma = math.hypot(lyaps[0].stderr, lyaps[1].stderr) / math.log(1e2)
        assert abs(slope) < 3 * sigma + 1e-3


class TestCriticalLyapunov:
    # ROADMAP item 1's table: L_NA / log(1/r) by the critical-point formula,
    # as exact Fractions, against the complex oracle's slope in log(1/|t|)
    TABLE = (("z^2 + 1/t", F(1, 2)), ("z^3 + 1/t", F(2, 3)), ("z^3 + z/t", F(1)),
             ("z^2 + 1/t^2", F(1)), ("2*z^3 + z^2/t + 1/t^2", F(5, 3)),
             ("z^2 + t*z", F(0)), ("z^3 + t*z", F(0)), ("t*z^2 + 1", F(0)))

    @pytest.mark.parametrize("text, ratio", TABLE)
    def test_matches_oracle_slope(self, text, ratio):
        from hybdyn.cxdyn import przytycki_oracle

        fam = parse_family(text)
        q, exact = critical_lyapunov(fam, GreenEvaluator(fam, R, n_max=16))
        assert -q == ratio  # L_NA = q * log(r)
        # the critical orbit of t*z^2 + 1 does not close by n_max (item 9)
        assert exact is (text != "t*z^2 + 1")
        moduli = (1e-5, 1e-6, 1e-7)
        slope = np.polyfit([math.log(1.0 / m) for m in moduli],
                           [przytycki_oracle(fam, m) for m in moduli], 1)[0]
        assert slope == pytest.approx(float(ratio), abs=1e-4)

    @pytest.mark.parametrize("text", ["2*z^4 + z^3/t + z", "z^3 - z^2/t^2 + 2*z/t^2 - 1/t"])
    def test_short_critical_list_raises(self, text):
        # critical_centers raises rather than return a short list, so no
        # short list reaches the sum
        fam = parse_family(text)
        with pytest.raises(PrecisionError, match="0 of .* roots resolved"):
            critical_centers(fam, target=12)
        with pytest.raises(PrecisionError):
            critical_lyapunov(fam, GreenEvaluator(fam, R, n_max=16))

    def test_full_critical_lists(self):
        # every shipped polynomial family and every family of the table gets
        # all d - 1 critical points, at the probe tree's target and at 12
        from hybdyn.presets import FAMILY_TEXTS

        texts = [t for t in FAMILY_TEXTS if parse_family(t).is_polynomial()]
        texts += [text for text, _ in self.TABLE]
        assert len(texts) == 13
        for text in texts:
            fam = parse_family(text)
            for target in (6, 12):
                assert len(critical_centers(fam, target=target)) == fam.degree - 1

    @pytest.mark.parametrize("text, raises_at", [
        ("2*z^4 + z^3/t + z", [12]),
        ("z^4 - z^3/t - 2*z/t", [12]),
        ("-z^4 - z^3/t - 2*z^2*t + 3*z/t - 1/t", [12]),
        ("z^4 + z^3 - 2*z^2*t - 1/t", [6, 12]),
        ("z^3 - z^2/t^2 + 2*z/t^2 - 1/t", [12])])
    def test_short_lists_of_the_battery_raise(self, text, raises_at):
        # families of the random battery whose critical points do not all
        # resolve: each target gives all d - 1 points or raises
        fam = parse_family(text)
        for target in (6, 12):
            if target in raises_at:
                with pytest.raises(PrecisionError, match=f"of {fam.degree - 1} roots"):
                    critical_centers(fam, target=target)
            else:
                assert len(critical_centers(fam, target=target)) == fam.degree - 1


class TestRamifiedResolution:
    def test_branch_centers_resolve_measure_and_sign(self):
        # refining the probe tree with the square-root centers of -1/t splits
        # the z^2 + 1/t measure into two half-mass atoms on ramified branches;
        # the Lyapunov integrand flips sign there (+1/2 vs -1/2 exponent) while
        # its absolute value stays 1/2
        from hybdyn.laurent import newton_puiseux

        fam = parse_family("z^2 + 1/t")
        roots = newton_puiseux([L.t_power(-1), L.zero(), L.one()], F(4))
        assert len(roots) == 2
        assert all(c.order() == F(-1, 2) and c.ram == 2 for c in roots)
        pts = [TypeIIPoint(0, F(j, 2)) for j in range(-6, 7)]
        for c in roots:
            for j in range(-2, 5):
                pts.append(TypeIIPoint(c, F(j, 2)))
        tree = subtree_span(pts)
        ev = GreenEvaluator(fam, R, n_max=16)
        mu = tree_ma(lambda v: ev.exponent(v)[0], tree, R)
        assert mu.total_mass() == pytest.approx(1.0, abs=1e-9)
        support = mu.support()
        assert len(support) == 2
        for pt, m in support:
            assert m == pytest.approx(0.5, abs=1e-9)
            assert det_norm_exponent(fam, pt) == F(-1, 2)
        refined = na_lyapunov(fam, mu)
        assert refined / abs(LOG_R) == pytest.approx(0.5, abs=1e-9)  # positive
        # coarse spine tree retracts the mass to the join and flips the sign
        coarse = tree_ma(lambda v: ev.exponent(v)[0],
                         subtree_span([TypeIIPoint(0, F(j, 2))
                                       for j in range(-6, 7)]), R)
        assert na_lyapunov(fam, coarse) / abs(LOG_R) == pytest.approx(-0.5, abs=1e-9)


class TestChartRoundTrips:
    def test_far_disk_reads_in_u_chart(self):
        # D(t^-1, r) is the 1/z-chart disk D(t, r^3)
        p = TypeIIPoint(L.t_power(-1), F(1))
        assert p.chart_form() == ("1/z", L.t_power(1), F(3))

    def test_double_inversion_stability(self):
        a = L({-1: 1.0, 0: 2.0, 1: -0.5})
        p = TypeIIPoint(a, F(5, 2))
        q = TypeIIPoint(*p.zpair())
        assert p == q
        assert p.chart_form()[0] == "1/z"

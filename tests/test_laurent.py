"""Series arithmetic: worked examples plus seeded random property checks."""

import cmath
import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest

from hybdyn.errors import LaurentError, PrecisionError
from hybdyn.laurent import LaurentSeries as L, _edge_roots, newton_puiseux, taylor_shift
from hybdyn.parser import parse_series


def rand_series(rng, n_terms=4, e_min=-3, e_max=6, trunc=None, ram=1, unit_lead=False):
    exps = sorted(rng.choice(np.arange(e_min * ram, e_max * ram), size=n_terms,
                             replace=False))
    terms = {}
    for i, k in enumerate(exps):
        c = complex(rng.normal(), rng.normal())
        if unit_lead and i == 0:
            c /= abs(c)
        terms[F(int(k), ram)] = c
    tr = math.inf if trunc is None else F(trunc)
    return L(terms, trunc=tr)


class TestExamples:
    def test_add_cancellation(self):
        a = L({-1: 1, 0: 1})
        b = L({-1: -1})
        assert a + b == L({0: 1})

    def test_zero_series(self):
        z = L.zero()
        assert (z.ram, z.terms, z.trunc) == (1, {}, None)
        assert (L.zero(math.inf).ram, L.zero(None).trunc) == (1, None)
        for trunc, ram, scaled in ((3, 1, 3), (F(1, 2), 2, 1), (F(-4, 3), 3, -4)):
            z = L.zero(trunc=trunc)
            assert (z.ram, z.terms, z.trunc) == (ram, {}, scaled)
            assert z == L({}, trunc=trunc) and z.is_zero() and not z.is_exact_zero()

    def test_add_identity(self):
        f = L({-2: 3, 1: 2 + 1j})
        assert L.zero() + f == f

    def test_add_same_exponent(self):
        assert L({2: 1}) + L({2: 3}) == L({2: 4})

    def test_mul_pole_cancel(self):
        assert L.t_power(1) * L.t_power(-1) == L.one()

    def test_mul_difference_of_squares(self):
        assert L({0: 1, 1: 1}) * L({0: 1, 1: -1}) == L({0: 1, 2: -1})

    def test_mul_zero_truncation(self):
        z = L.zero(trunc=5)
        f = L({2: 3.0})
        prod = z * f
        assert prod.is_zero()
        assert prod.trunc_order == 7  # ord(f) + trunc(0)

    def test_ord(self):
        assert L({2: 1, 5: 3}).order() == 2
        assert L({-1: 5, 0: 1}).order() == -1
        assert L.const(2).order() == 0
        assert L.zero(trunc=F(3, 2)).order() == F(3, 2)
        assert L.zero().order() == math.inf

    def test_eval(self):
        assert L.t_power(-1).eval(0.1) == pytest.approx(10.0)
        assert L({0: 1, 1: 1}).eval(0.5) == pytest.approx(1.5)
        assert L.const(2 + 1j).eval(0.35) == 2 + 1j

    def test_eval_pole_at_zero(self):
        with pytest.raises(LaurentError):
            L.t_power(-1).eval(0.0)

    def test_eval_principal_branch(self):
        half = L({F(1, 2): 1.0})
        assert half.eval(0.25) == pytest.approx(0.5)
        assert half.eval(-0.25) == pytest.approx(0.5j)
        # principal roots compose: (t^(1/6))^3 is the principal t^(1/2)
        for t in (0.3, -0.3, 0.2 * np.exp(2.9j), 0.2 * np.exp(-2.9j)):
            assert L({F(1, 6): 1.0}).eval(t) ** 3 == pytest.approx(half.eval(t), rel=1e-14)

    def test_norm(self):
        assert L.t_power(1).norm(0.5) == pytest.approx(0.5)
        assert L.t_power(-2).norm(0.5) == pytest.approx(4.0)
        assert L.const(7).norm(0.5) == 1.0
        assert L.zero().norm(0.5) == 0.0
        assert L.zero(trunc=3).norm(0.5) == 0.0


class TestProperties:
    def test_ultrametric(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            a = rand_series(rng)
            b = rand_series(rng)
            r = 0.5
            lhs = (a + b).norm(r)
            rhs = max(a.norm(r), b.norm(r))
            assert lhs <= rhs * (1 + 1e-12)
            if a.order() != b.order():
                assert lhs == pytest.approx(rhs)

    def test_multiplicativity_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            a = rand_series(rng, ram=int(rng.integers(1, 4)))
            b = rand_series(rng, ram=int(rng.integers(1, 4)))
            assert (a * b).order() == a.order() + b.order()

    def test_eval_compatible_with_order(self):
        # |f(t)| / |t|^ord -> |leading coefficient| as |t| -> 0
        rng = np.random.default_rng(9)
        for _ in range(50):
            a = rand_series(rng, n_terms=4, e_min=-3, e_max=2)
            a = a.truncate(a.order() + 4)
            lead = abs(a.leading()[1])
            t = 1e-8
            ratio = abs(a.eval(t)) / t ** float(a.order())
            assert abs(ratio - lead) / lead < 1e-6

    def test_truncation_discipline_mul(self):
        a = L({0: 1, 1: 1}, trunc=4)
        b = L({-1: 2, 2: 1}, trunc=3)
        prod = a * b
        # min(ord a + trunc b, ord b + trunc a) = min(0 + 3, -1 + 4) = 3
        assert prod.trunc_order == 3
        assert all(e < 3 for e, _ in prod.items())

    def test_add_truncation(self):
        a = L({0: 1}, trunc=2)
        b = L({0: 1, 5: 3})
        assert (a + b).trunc_order == 2

    def test_ramification_unified(self):
        a = L({F(1, 2): 1})
        b = L({F(1, 3): 1})
        c = a * b
        assert c.ram == 6
        assert c.order() == F(5, 6)

    def test_power(self):
        a = L({0: 1, 1: 1})
        assert a ** 3 == L({0: 1, 1: 3, 2: 3, 3: 1})
        assert a ** 0 == L.one()


class TestInversion:
    def test_monomial_exact(self):
        inv = L({F(3, 2): 2.0}).inverse()
        assert inv == L({F(-3, 2): 0.5})
        assert inv.trunc is None

    def test_geometric(self):
        inv = (L({0: 1, 1: 1})).inverse(window=10)
        for k in range(10):
            assert inv.coefficient(k) == pytest.approx((-1) ** k)
        assert inv.trunc_order == 10

    def test_truncated_input_honest(self):
        a = L({0: 1, 1: 1}, trunc=5)
        inv = a.inverse()
        assert inv.trunc_order == 5  # trunc - 2*ord
        assert (a * inv).coefficient(0) == pytest.approx(1.0)

    def test_zero_rejected(self):
        with pytest.raises(LaurentError):
            L.zero(trunc=3).inverse()

    def test_lead_whose_reciprocal_does_not_round_to_one(self):
        # (lead + t)^-1 = sum (-1)^k t^k / lead^(k+1); 2/27^3 is a critical
        # orbit lead of 2*z^3 + z^2/t + 1/t^2
        lead = 2 / 27 ** 3
        assert lead * (1.0 / lead) != 1.0
        inv = L({0: lead, 1: 1.0}).inverse(window=6)
        assert inv.trunc_order == 6
        for k in range(6):
            assert inv.coefficient(k) == pytest.approx((-1) ** k / lead ** (k + 1), rel=1e-12)

    def test_random_leads(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            lead = rng.normal()
            inv = L({-2: lead, 1: lead}).inverse(window=9)
            for k in range(3):
                assert inv.coefficient(3 * k + 2) == pytest.approx((-1) ** k / lead, rel=1e-12)

    def test_capped_product_is_the_truncated_product(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            a, b = (rand_series(rng, n_terms=int(rng.integers(1, 6)),
                                trunc=None if rng.random() < 0.6 else int(rng.integers(6, 9)),
                                ram=int(rng.integers(1, 5)))
                    for _ in range(2))
            below = F(int(rng.integers(-12, 24)), int(rng.integers(1, 7)))
            got, want = a.__mul__(b, below=below), (a * b).truncate(below)
            assert (got.ram, got.trunc, list(got.terms.items())) == \
                (want.ram, want.trunc, list(want.terms.items()))

    def test_inverse_equals_uncapped_reference(self):
        # the reference forms each geometric-series product in full and then
        # truncates it, as inverse did before its products were capped
        def reference(a, window):
            m, lead = a.leading()
            target = a.trunc_order - 2 * m if a.trunc is not None else -m + window
            shifted, inv_lead = a.shift(-m), 1.0 / lead
            u = L._make(shifted.ram, {k: c * inv_lead for k, c in shifted.terms.items()
                                      if k != 0}, shifted.trunc).truncate(target + m)
            inv_unit = power = L.one()
            for _ in range(int(math.ceil(float((target + m) / u.order()))) + 1):
                power = (power * (-u)).truncate(target + m)
                if power.is_zero():
                    break
                inv_unit = inv_unit + power
            return (inv_unit.shift(-m) * (1.0 / lead)).truncate(target)

        rng = np.random.default_rng(67)
        for ram in range(1, 7):
            for _ in range(15):
                a = rand_series(rng, n_terms=int(rng.integers(2, 6)), ram=ram,
                                trunc=None if rng.random() < 0.7 else 7)
                window = int(rng.integers(1, 24))
                got, want = a.inverse(window=window), reference(a, window)
                assert (got.ram, got.trunc, list(got.terms.items())) == \
                    (want.ram, want.trunc, list(want.terms.items()))


class TestText:
    def test_emit_parse_roundtrip(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            a = rand_series(rng, ram=int(rng.integers(1, 4)))
            assert parse_series(str(a)) == a

    def test_zero(self):
        assert str(L.zero()) == "0"
        assert parse_series("0") == L.zero()

    def test_examples(self):
        s = parse_series("3*t^-1 + (1+2i)*t^2")
        assert s.coefficient(-1) == 3
        assert s.coefficient(2) == 1 + 2j
        assert parse_series("t^(1/2)").order() == F(1, 2)


class TestShiftAndRoots:
    def test_taylor_shift_matches_expansion(self):
        # f(w) = w^2 - t^2 at center t: (w - t)(w + t) -> coeffs (0, 2t, 1)
        f = [L({2: -1}), L.zero(), L.one()]
        shifted = taylor_shift(f, L.t_power(1))
        assert shifted[0].is_zero() and shifted[0].is_exact_zero()
        assert shifted[1] == L({1: 2})
        assert shifted[2] == L.one()

    def test_newton_puiseux_square(self):
        # w^2 - t^2 = 0: roots +-t, found exactly
        roots = newton_puiseux([L({2: -1}), L.zero(), L.one()], F(8))
        vals = sorted(complex(root.leading()[1]).real for root in roots)
        assert len(roots) == 2
        assert all(root.order() == 1 for root in roots)
        assert vals == pytest.approx([-1.0, 1.0])

    def test_newton_puiseux_ramified(self):
        # w^2 - t = 0: roots +-t^(1/2)
        roots = newton_puiseux([L({1: -1}), L.zero(), L.one()], F(8))
        assert len(roots) == 2
        assert all(root.order() == F(1, 2) for root in roots)

    def test_newton_puiseux_nested(self):
        # (w - t)(w - t - t^3) = w^2 - (2t + t^3) w + t^2 + t^4
        # the two roots coalesce at first order (double edge root), so the
        # leading digit is recovered only to root-finder accuracy
        c0 = L({2: 1, 4: 1})
        c1 = L({1: -2, 3: -1})
        roots = newton_puiseux([c0, c1, L.one()], F(8))
        assert len(roots) == 2
        got = sorted(roots, key=lambda root: len(root.terms))
        assert abs(got[0].coefficient(1) - 1) < 1e-9
        assert abs(got[1].coefficient(1) - 1) < 1e-9
        assert abs(got[1].coefficient(3) - 1) < 1e-9
        assert len(got[0].terms) == 1 and len(got[1].terms) == 2

    def test_newton_puiseux_cube_root_cluster(self):
        # roots of 3 w^2 + t: ramification 2 with exact symmetric pair
        roots = newton_puiseux([L({1: 1}), L.zero(), L.const(3)], F(6))
        assert len(roots) == 2
        assert all(root.order() == F(1, 2) for root in roots)
        vals = sorted(root.leading()[1].imag for root in roots)
        assert vals == pytest.approx([-1 / 3 ** 0.5, 1 / 3 ** 0.5])

    def test_newton_puiseux_all_roots_or_raise(self):
        # z^3 + z^2/t + 1/t^2: an edge is skipped and no root comes back,
        # and a short list is an error, not a result
        cubic = [L.t_power(-2), L.zero(), L.t_power(-1), L.one()]
        for target in (6, 12):
            with pytest.raises(PrecisionError, match="0 of 3 roots resolved"):
                newton_puiseux(cubic, F(target))
        # trailing exact zeros do not count towards the degree; a root 0
        # of multiplicity 2 counts twice
        roots = newton_puiseux([L({2: -1}), L.zero(), L.one(), L.zero(), L.zero()], F(8))
        assert len(roots) == 2
        assert newton_puiseux([L.zero(), L.zero(), L.const(3)], F(8)) == [L.zero()] * 2
        assert newton_puiseux([L.const(2), L.zero()], F(8)) == []

    def test_newton_puiseux_precision_guard(self):
        with pytest.raises(PrecisionError):
            newton_puiseux([L.zero(trunc=2), L.one()], F(8))

    def test_newton_puiseux_binomial_edge_roots_are_pinned(self):
        # 3 w^2 + 1/t: the roots +-i/sqrt(3) * t^(-1/2), bit for bit and in
        # the order the companion-matrix solver used to give them
        roots = newton_puiseux([L.t_power(-1), L.zero(), L.const(3)], F(6))
        assert [(list(root.items()), root.trunc_order) for root in roots] == [
            ([(F(-1, 2), 0.5773502691896257j)], math.inf),
            ([(F(-1, 2), -0.5773502691896257j)], math.inf)]


def _matched(roots, ref, rel):
    """Whether ``roots`` and ``ref`` agree as multisets within ``rel``."""
    ref = list(ref)
    for y in roots:
        j = min(range(len(ref)), key=lambda i: abs(ref[i] - y))
        if abs(ref[j] - y) > rel * max(abs(ref[j]), 1e-300):
            return False
        ref.pop(j)
    return not ref


class TestEdgeRoots:
    def test_random_edges_match_companion_eigenvalues(self):
        rng = np.random.default_rng(31)
        for degree in range(1, 9):
            for _ in range(40):
                coeffs = list(rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1))
                roots = _edge_roots(coeffs)
                assert len(roots) == degree
                assert _matched(roots, np.roots(coeffs[::-1]), 1e-12)

    def test_binomial_edges_are_closed_form(self):
        for coeffs in ([1, 0, 3], [-2, 0, 0, 0, 0, 0, 5], [1 + 2j, 0, 0, 0, -3], [4, 0, 0, 1]):
            k = len(coeffs) - 1
            w = -complex(coeffs[0]) / coeffs[-1]
            rho, theta = abs(w) ** (1.0 / k), cmath.phase(w) / k
            assert _edge_roots(coeffs) == [cmath.rect(rho, theta + 2.0 * math.pi * m / k)
                                           for m in range(k)]
        assert _edge_roots([1, 3]) == [-1 / 3]

    @pytest.mark.parametrize("a", [1, 0.3, 1 + 2j, -0.7j])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_newton_puiseux_multiple_root(self, a, m):
        # (w - a t)^m: one edge with an m-fold residue root
        coeffs = [L({m - j: math.comb(m, j) * (-a) ** (m - j)}) if j < m else L.one()
                  for j in range(m + 1)]
        roots = newton_puiseux(coeffs, F(6))
        assert len(roots) == m
        for root in roots:
            assert root.order() == 1 and len(root.terms) == 1
            assert abs(root.coefficient(1) - a) <= 1e-12 * abs(a)

    def test_double_root_clusters(self):
        # (y - 1)^2 (y + 2) = y^3 - 3y + 2: the double root as two adjacent
        # equal copies
        clusters = [(y, len(list(copies)))
                    for y, copies in itertools.groupby(_edge_roots([2, -3, 0, 1]))]
        assert sorted(mult for _, mult in clusters) == [1, 2]
        for y, mult in clusters:
            assert abs(y - (1 if mult == 2 else -2)) < 1e-14

    def test_close_simple_roots_stay_apart(self):
        # w^2 - 1e-16: the roots ±1e-8 are simple, though 2e-8 apart
        roots = newton_puiseux([L.const(-1e-16), L.zero(), L.one()], F(6))
        assert [root.coefficient(0) for root in roots] == [1e-8, -1e-8]
        assert all(len(root.terms) == 1 for root in roots)


class TestHashing:
    def test_equal_series_hash_equal(self):
        a = L({F(1, 2): 2.0, F(3, 2): 1.0})
        b = L({F(2, 4): 2.0, F(6, 4): 1.0})  # same series on a finer grid
        assert a == b
        assert hash(a) == hash(b)

    def test_dict_membership(self):
        d = {L.t_power(F(1, 2)): "half"}
        assert d[L({F(2, 4): 1.0})] == "half"

    def test_cancellation_to_a_coarser_grid_hashes_equal(self):
        # the difference keeps the grid t^(1/2) though every exponent left is whole
        a = L({F(1, 2): 1, 1: 2}) - L({F(1, 2): 1})
        assert a.ram == 2 and a == L({1: 2})
        assert hash(a) == hash(L({1: 2}))

    @pytest.mark.parametrize("ram", range(1, 7))
    def test_equal_series_on_any_grid_hash_equal(self, ram):
        rng = np.random.default_rng(40 + ram)
        for _ in range(50):
            trunc = rng.choice([None, F(int(rng.integers(-3 * ram, 8 * ram)), ram)])
            a = rand_series(rng, n_terms=int(rng.integers(0, 5)), ram=ram, trunc=trunc)
            for series in (a, L.zero(), L.zero(trunc=F(int(rng.integers(-6, 6)), ram))):
                for fine in (series._rescaled(series.ram * m) for m in (1, 2, 3, 5)):
                    assert fine == series
                    assert hash(fine) == hash(series)
                # the same series after a round trip through another grid's arithmetic
                other = series + L.t_power(F(1, 7)) - L.t_power(F(1, 7))
                assert other == series and hash(other) == hash(series)

    def test_inverse_terms_do_not_depend_on_the_window(self):
        # below a window's target the geometric series sums the same products
        # in the same order, so a larger window agrees bit for bit
        rng = np.random.default_rng(47)
        for ram in range(1, 7):
            for _ in range(10):
                a = rand_series(rng, n_terms=int(rng.integers(2, 5)), ram=ram)
                m = a.order()
                small, large = (a.inverse(window=w) for w in (8, 8 + int(rng.integers(1, 30))))
                cut = large.truncate(small.trunc_order)
                assert list(cut.items()) == list(small.items())
                assert cut.trunc_order == small.trunc_order == 8 - m

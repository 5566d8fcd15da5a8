"""Grammar, homogenization, and round-trip checks for the textual inputs."""

from fractions import Fraction

import pytest

from hybdyn.errors import DegenerateFamilyError, ParseError
from hybdyn.laurent import LaurentSeries as L
from hybdyn.parser import (parse_family, parse_section, parse_sections,
                           parse_series)
from hybdyn.presets import FAMILY_TEXTS, shipped_datum_pairs


class TestFamilies:
    def test_pole_coefficient(self):
        f = parse_family("z^2 + 1/t")
        assert f.degree == 2
        assert f.p0.coeffs[2] == L.one()
        assert f.p0.coeffs[0] == L.t_power(-1)
        assert list(f.p1.coeffs) == [0]

    def test_overall_quotient(self):
        f = parse_family("(z^2 - t)/z")
        assert f.degree == 2
        assert f.p0.coeffs[2] == L.one()
        assert f.p0.coeffs[0] == L({1: -1})
        assert list(f.p1.coeffs) == [1]

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as err:
            parse_family("z^2 + /t")
        assert err.value.position == 6

    def test_degree_too_small(self):
        with pytest.raises(ParseError, match="degree 1 < 2"):
            parse_family("z + 1")

    def test_affine_coeffs_built_once(self):
        f = parse_family("z^2 + 1/t")
        assert f.affine_coeffs is f.affine_coeffs
        assert f.affine_coeffs == (L.t_power(-1), L.zero(), L.one())
        with pytest.raises(ParseError, match="not polynomial"):
            parse_family("(z^2 - t)/z").affine_coeffs

    @pytest.mark.parametrize("text", FAMILY_TEXTS)
    def test_dehomogenized_built_once_copied_per_call(self, text):
        # one tuple, built on the first call and returned by every call
        f = parse_family(text)
        for P in (f.p0, f.p1):
            # the list the uncached method built on each call
            want = [L.zero() for _ in range(P.degree + 1)]
            for a, c in P.coeffs.items():
                want[a] = c
            first = P.dehomogenized()
            assert isinstance(first, tuple) and list(first) == want
            assert all((x.ram, x.terms, x.trunc) == (y.ram, y.terms, y.trunc)
                       for x, y in zip(first, want))
            assert P.dehomogenized() is first

    def test_degenerate_resultant(self):
        with pytest.raises(DegenerateFamilyError):
            parse_family("(z^2 + z)/(z^2 + z)")

    def test_complex_coefficients(self):
        f = parse_family("z^2 + (1+2i)*t")
        assert f.p0.coeffs[0] == L({1: 1 + 2j})

    def test_nested_quotients(self):
        f = parse_family("(z^2 + 1/(1 - t))")  # series inversion of 1 - t
        c = f.p0.coeffs[0]
        assert c.coefficient(0) == pytest.approx(1.0)
        assert c.coefficient(5) == pytest.approx(1.0)

    def test_z_denominator_in_subexpression(self):
        # a z-denominator anywhere folds into the overall quotient
        f = parse_family("z^2 + t/z")
        assert f.degree == 3
        assert f.p0.coeffs[3] == L.one()       # z^3
        assert f.p0.coeffs[0] == L({1: 1})     # + t w1^3
        assert list(f.p1.coeffs) == [1]        # over z

    def test_polynomial_flag(self):
        assert parse_family("z^2 + 1/t").is_polynomial()
        assert not parse_family("(z^2 - t)/z").is_polynomial()


class TestRoundTrip:
    @pytest.mark.parametrize("text", [
        "z^2",
        "z^2 + 1/t",
        "(z^2 - t)/z",
        "z^2 + (1+2i)*t*z",
        "z^3 + t*z",
        "(z^3 - 2*z + 1/t)/(z - t)",
    ])
    def test_emit_parse_identical(self, text):
        f = parse_family(text)
        g = parse_family(f.emit())
        assert g.degree == f.degree
        assert g.p0 == f.p0
        assert g.p1 == f.p1


class TestSections:
    def test_coordinate_datum(self):
        d = parse_sections(["w0", "w1"], d=1)
        assert d.degree == 1 and len(d.sections) == 2

    def test_twisted_sections(self):
        d = parse_sections(["t*w0^2", "w1^2"], d=2)
        assert d.sections[0].coeffs[2] == L.t_power(1)

    def test_inhomogeneous_rejected(self):
        with pytest.raises(ParseError, match="mixed degrees"):
            parse_section("w0 + w1^2", d=2)

    def test_wrong_degree_rejected(self):
        with pytest.raises(ParseError, match="degree 2, expected 3"):
            parse_section("w0*w1", d=3)

    def test_empty_list_rejected(self):
        with pytest.raises(ParseError, match="empty"):
            parse_sections([], d=1)

    def test_dimension_bound(self):
        # sections are binary forms: w2 is not a variable, in any datum
        with pytest.raises(ParseError, match="unknown variable 'w2'"):
            parse_section("w2^2", d=2)
        with pytest.raises(ParseError, match="unknown variable 'w2'"):
            parse_sections(["w0*w2", "w1^2", "t*w2^2"], d=2)

    def test_homogeneity_validated_not_assumed(self):
        with pytest.raises(ParseError):
            parse_sections(["w0^2", "w0 + w1"], d=2)


class TestSeriesText:
    def test_parse_series(self):
        s = parse_series("3*t^-1 + (1+2i)*t^2")
        assert s.coefficient(-1) == 3
        assert s.coefficient(2) == 1 + 2j

    def test_quotient_series(self):
        s = parse_series("1/(1+t)")
        assert s.coefficient(0) == pytest.approx(1.0)
        assert s.coefficient(1) == pytest.approx(-1.0)

    def test_z_rejected(self):
        with pytest.raises(ParseError):
            parse_series("z + t")


class TestGrammarEdges:
    def test_fractional_z_power_rejected(self):
        with pytest.raises(ParseError, match="t-monomials"):
            parse_family("z^(1/2) + z^2")

    def test_fractional_t_power_in_series(self):
        s = parse_series("t^(1/2) + 2*t")
        assert s.order() == Fraction(1, 2)

    def test_power_does_not_chain(self):
        with pytest.raises(ParseError):
            parse_family("z^2^3")

    def test_degree_cap(self):
        # families and sections are forms of degree at most 8, the largest
        # the resultant and the complex root-finders serve
        assert parse_family("z^8 + 1/t").degree == 8
        assert parse_section("w0^8 + t*w1^8", d=8).degree == 8
        for text in ("z^9 + 1/t", "(z + 1)^9 + 1/t", "z^64 + 1/t", "(z^3 + t)/z^9"):
            with pytest.raises(ParseError, match="family degree 9 > 8|family degree 64 > 8"):
                parse_family(text)
        with pytest.raises(ParseError, match="section degree 9 > 8"):
            parse_section("w0^9", d=9)
        with pytest.raises(ParseError, match="section degree 9 > 8"):
            parse_sections(["w0^9", "w1^9"], d=9)


# p0 and p1 of each family, {monomial: coefficient}, as parsed before the
# family, section and series evaluators were merged into one
GEOMETRIC = " + ".join(["1", "t"] + [f"t^{k}" for k in range(2, 32)]) + " + O(t^32)"
PINNED_FAMILIES = {
    "z^2": ({(2, 0): "1"}, {(0, 2): "1"}),
    "z^2 - 2": ({(0, 2): "-2", (2, 0): "1"}, {(0, 2): "1"}),
    "z^2 + 1/t": ({(0, 2): "t^-1", (2, 0): "1"}, {(0, 2): "1"}),
    "z^2 + t*z": ({(1, 1): "t", (2, 0): "1"}, {(0, 2): "1"}),
    "(z^2 - t)/z": ({(0, 2): "-t", (2, 0): "1"}, {(1, 1): "1"}),
    "z^3 + t*z": ({(1, 2): "t", (3, 0): "1"}, {(0, 3): "1"}),
    "z^2 + t^(1/2)*z + t^(1/3)": ({(0, 2): "t^(1/3)", (1, 1): "t^(1/2)", (2, 0): "1"},
                                  {(0, 2): "1"}),
    "z^2 + 1/(1 - t)": ({(0, 2): GEOMETRIC, (2, 0): "1"}, {(0, 2): "1"}),
    "z^2 + t/z": ({(0, 3): "t", (3, 0): "1"}, {(1, 2): "1"}),
    "(z^3 - 2*z + 1/t)/(z - t)": ({(0, 3): "t^-1", (1, 2): "-2", (3, 0): "1"},
                                  {(0, 3): "-t", (1, 2): "1"}),
}
PINNED_DATUM_PAIRS = [
    ([{(1, 0): "1"}, {(0, 1): "1"}], [{(1, 0): "t"}, {(0, 1): "t"}]),
    ([{(1, 0): "t"}, {(0, 1): "1"}], [{(2, 0): "1"}, {(0, 2): "t"}, {(1, 1): "1"}]),
    ([{(2, 0): "1", (0, 2): "t"}, {(0, 2): "1"}], [{(1, 0): "t^2"}, {(0, 1): "1"}]),
]


def _shown(p):
    """Coefficients in their stored order, each under its monomial's
    exponents ``(j, d - j)`` and as its series text."""
    return [((j, p.degree - j), repr(c)[len("<LaurentSeries "):-1])
            for j, c in p.coeffs.items()]


class TestPinnedParses:
    def test_shipped_and_edge_families(self):
        assert set(FAMILY_TEXTS) <= set(PINNED_FAMILIES)
        for text, (p0, p1) in PINNED_FAMILIES.items():
            f = parse_family(text)
            assert (_shown(f.p0), _shown(f.p1)) == (list(p0.items()), list(p1.items()))

    def test_shipped_datum_pairs(self):
        for pair, pinned in zip(shipped_datum_pairs(), PINNED_DATUM_PAIRS):
            for datum, sections in zip(pair, pinned):
                assert [_shown(s) for s in datum.sections] == [list(s.items())
                                                               for s in sections]


# Res(P0, P1) of each family as captured before the resultant became a form
# operation: the truncation order and, for every term, its exponent and
# float.hex of its real and imaginary parts.  Every float sum of the subset
# expansion is pinned, in the order the terms are formed.
RAMIFIED = ("(z^2 + 0.7071067811865476*t^(1/2)*z + (3.141592653589793+2.718281828459045i)"
            "*t^(-1/3))/(1.4142135623730951*z^2 - t^(2/3)*z + 0.5772156649015329)")
DENSE_OCTIC = ("(1.1*z^8 + 2.3*z^7 - 0.7*z^6 + 1.9*z^5 - 3.1*z^4 + 0.3*z^3 + 2.9*z^2 - 1.3*z"
               " + 1/t)/(0.9*z^8 - 1.7*z^7 + t*z^6 + 2.1*z^5 + 0.5*z^4 - 1.1*z^3 + 3.7*z^2"
               " + z - 2.2)")
PINNED_RESULTANTS = {
    "z^2": ("inf", [
        "0 0x1.0000000000000p+0 0x0.0p+0",
    ]),
    "z^2 - 2": ("inf", [
        "0 0x1.0000000000000p+0 0x0.0p+0",
    ]),
    "z^2 + 1/t": ("inf", [
        "0 0x1.0000000000000p+0 0x0.0p+0",
    ]),
    "z^2 + t*z": ("inf", [
        "0 0x1.0000000000000p+0 0x0.0p+0",
    ]),
    "(z^2 - t)/z": ("inf", [
        "1 -0x1.0000000000000p+0 0x0.0p+0",
    ]),
    "z^3 + t*z": ("inf", [
        "0 0x1.0000000000000p+0 0x0.0p+0",
    ]),
    "(z^3 + 1/t) * (1/(1 - t))": ("32", [
        "0 0x1.0000000000000p+0 0x0.0p+0", "1 0x1.8000000000000p+1 0x0.0p+0",
        "2 0x1.8000000000000p+2 0x0.0p+0", "3 0x1.4000000000000p+3 0x0.0p+0",
        "4 0x1.e000000000000p+3 0x0.0p+0", "5 0x1.5000000000000p+4 0x0.0p+0",
        "6 0x1.c000000000000p+4 0x0.0p+0", "7 0x1.2000000000000p+5 0x0.0p+0",
        "8 0x1.6800000000000p+5 0x0.0p+0", "9 0x1.b800000000000p+5 0x0.0p+0",
        "10 0x1.0800000000000p+6 0x0.0p+0", "11 0x1.3800000000000p+6 0x0.0p+0",
        "12 0x1.6c00000000000p+6 0x0.0p+0", "13 0x1.a400000000000p+6 0x0.0p+0",
        "14 0x1.e000000000000p+6 0x0.0p+0", "15 0x1.1000000000000p+7 0x0.0p+0",
        "16 0x1.3200000000000p+7 0x0.0p+0", "17 0x1.5600000000000p+7 0x0.0p+0",
        "18 0x1.7c00000000000p+7 0x0.0p+0", "19 0x1.a400000000000p+7 0x0.0p+0",
        "20 0x1.ce00000000000p+7 0x0.0p+0", "21 0x1.fa00000000000p+7 0x0.0p+0",
        "22 0x1.1400000000000p+8 0x0.0p+0", "23 0x1.2c00000000000p+8 0x0.0p+0",
        "24 0x1.4500000000000p+8 0x0.0p+0", "25 0x1.5f00000000000p+8 0x0.0p+0",
        "26 0x1.7a00000000000p+8 0x0.0p+0", "27 0x1.9600000000000p+8 0x0.0p+0",
        "28 0x1.b300000000000p+8 0x0.0p+0", "29 0x1.d100000000000p+8 0x0.0p+0",
        "30 0x1.f000000000000p+8 0x0.0p+0", "31 0x1.0800000000000p+9 0x0.0p+0",
    ]),
    "(z^2 - t)/(z - 1/10)": ("inf", [
        "0 0x1.47ae147ae147cp-7 0x0.0p+0", "1 -0x1.0000000000000p+0 0x0.0p+0",
    ]),
    RAMIFIED: ("inf", [
        "-2/3 0x1.3d829b54f5c1fp+2 0x1.114580b45d475p+5",
        "-1/3 -0x1.484196e209c1ep+2 -0x1.1c0690d10d5dep+2", "0 0x1.552c97fa03695p-2 0x0.0p+0",
        "5/6 0x1.921fb54442d19p+1 0x1.5bf0a8b14576ap+1",
        "1 0x1.c65e11b7b6038p+1 0x1.5bf0a8b145769p+1", "7/6 0x1.a1f2e39b99900p-2 0x0.0p+0",
    ]),
    DENSE_OCTIC: ("inf", [
        "-8 0x1.b8cc6573cd2c7p-2 0x0.0p+0", "-7 -0x1.29f5d2bcae7a3p+7 0x0.0p+0",
        "-6 0x1.cf9383dba9d6ap+13 0x0.0p+0", "-5 0x1.a3cb0e4a5aa6ap+17 0x0.0p+0",
        "-4 -0x1.a448179fc309fp+20 0x0.0p+0", "-3 -0x1.5599bf890e0a0p+22 0x0.0p+0",
        "-2 0x1.1fc219613b7bdp+28 0x0.0p+0", "-1 0x1.2a5aea5567712p+28 0x0.0p+0",
        "0 0x1.8dfe96a6a3408p+27 0x0.0p+0", "1 0x1.d5b62fa2eca3ap+25 0x0.0p+0",
        "2 0x1.05867b986982bp+23 0x0.0p+0", "3 0x1.b4f32b6375fc0p+20 0x0.0p+0",
        "4 0x1.11ff2324ae630p+17 0x0.0p+0", "5 0x1.024a378b6a245p+13 0x0.0p+0",
        "6 0x1.1b0e49e984c8fp+9 0x0.0p+0", "7 -0x1.9b2ab9d1614b3p+3 0x0.0p+0",
    ]),
}


class TestPinnedResultants:
    def test_resultant_series(self):
        assert set(FAMILY_TEXTS) <= set(PINNED_RESULTANTS)
        for text, pinned in PINNED_RESULTANTS.items():
            res = parse_family(text).resultant
            terms = [f"{Fraction(k, res.ram)} {c.real.hex()} {c.imag.hex()}"
                     for k, c in sorted(res.terms.items())]
            assert (str(res.trunc_order), terms) == pinned, text


class TestZeroRule:
    def test_family_drops_coefficient_zero_to_truncation(self):
        # 1/(1 - t) is truncated, so the difference is zero only to O(t^32)
        f = parse_family("z^2 + 1/(1 - t) - 1/(1 - t)")
        assert _shown(f.p0) == [((2, 0), "1")]

    def test_section_drops_coefficient_zero_to_truncation(self):
        s = parse_section("w0^2 + w1^2/(1 - t) - w1^2/(1 - t)", d=2)
        assert _shown(s) == [((2, 0), "1")]


def _linear_section(text):
    return parse_section(text, d=1)


class TestErrorOffsets:
    @pytest.mark.parametrize("parse, text, match, position", [
        (parse_family, "z^2 + 1e400", "bad number literal '1e400'", 6),
        (parse_series, "2*t + 1.5e999", "bad number literal", 6),
        (parse_family, "z^2/(t - t)", "division by zero", 3),
        (parse_family, "z^2 + (t - t)^-1", "division by zero", 13),
        (parse_family, "z^2 + (t + z)^(1/2)", "t-monomials", 13),
        (_linear_section, "w0^2/w1", "t-expressions", 4),
        (_linear_section, "w0*w1^-1", "t-expressions", 5),
        (_linear_section, "w0 + w3", "unknown variable 'w3'", 5),
        (parse_series, "t + z", "unknown variable 'z'", 4),
        (parse_family, "z^2 + t^(1/0)", "denominators must be positive", 11),
        (parse_family, "z^2 + t^(1/-2)", "denominators must be positive", 11),
        # a power is built by repeated products: its exponent is capped
        (parse_family, "z^65", "exponent 65 exceeds 64", 2),
        (parse_family, "z^2 + t^-99999999", "exponent -99999999 exceeds 64", 8),
        (parse_series, "(1 + t)^(130/2)", "exponent 65 exceeds 64", 8),
        # and so is the degree it builds in the variables
        (parse_family, "((1 + z)^16)^8 + 1/t", "power of degree 128 > 64", 12),
        # errors come in reading order: the unknown name before the stray ')'
        (parse_family, "z^2 + foo + )", "unknown variable 'foo'", 6),
    ])
    def test_error_and_offset(self, parse, text, match, position):
        with pytest.raises(ParseError, match=match) as err:
            parse(text)
        assert err.value.position == position

    @pytest.mark.parametrize("parse, text", [
        (parse_family, "z^2 + 1e308*1e308/t"),
        (parse_family, "z^2 + 1/(1e-320*t)"),
        (parse_family, "z^2 + (1e300*t)^(5/2)"),
        (_linear_section, "1e200*w0*1e200"),
        (parse_series, "1e308*t + 1e308*t"),
    ])
    def test_overflowing_coefficient(self, parse, text):
        with pytest.raises(ParseError, match="overflows to a non-finite value"):
            parse(text)

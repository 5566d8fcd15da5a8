"""Textual input: rational-map families, admissible-datum sections, series.

Grammar (shared by all entry points):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := ('-' | '+') unary | power
    power   := atom ['^' exponent]
    exponent:= ['-'] INT | '(' ['-'] INT '/' INT ')'
    atom    := NUMBER | NAME | '(' expr ')'

Numbers are finite decimal literals with an optional ``i`` suffix for
imaginary parts, so a complex literal is written ``(1+2i)``.  Fractional
exponents take a positive denominator and are only meaningful on ``t``; an
integer exponent is at most ``MAX_EXPONENT`` in size, and so is the degree
a power builds in the entry point's variables; a family or a section is a
binary form of degree at most ``MAX_DEGREE``.
One reader serves every entry point, in one pass: each grammar rule returns
the value of what it read, a quotient of polynomials in the entry point's
variables (``z`` for families, ``w0, w1`` for sections, none for series)
with Laurent coefficients in ``t``.  A denominator free of those variables
becomes Laurent coefficients at once, so only a family keeps a denominator,
in ``z``, which folds into the overall quotient.  A term whose coefficient
is zero to truncation is dropped, and every coefficient of the result must
be finite.

Errors come in reading order, each at the byte offset of the first bad
token; a coefficient that overflows is reported without one.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import cached_property

from . import berkovich
from .errors import ParseError
from .laurent import LaurentSeries
from .poly import HomogeneousPoly, resultant

# caps on what a text may build: a power is formed by repeated products, and
# the resultant of a family (``poly.resultant``) and the complex root-finders
# (``cxdyn._MAX_ROOT_DEGREE``) serve forms of degree <= 8
MAX_EXPONENT = 64
MAX_DEGREE = 8

# -- lexer ---------------------------------------------------------------------

_PUNCT = "+-*/^()"


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE" and j + 1 < n and (
                    text[j + 1].isdigit() or (text[j + 1] in "+-" and j + 2 < n and text[j + 2].isdigit())):
                j += 2
                while j < n and text[j].isdigit():
                    j += 1
            lit = text[i:j]
            try:
                val = float(lit)
            except ValueError:
                val = math.nan
            if not math.isfinite(val):  # malformed, or too large for a double
                raise ParseError(f"bad number literal {lit!r}", i)
            if j < n and text[j] == "i":
                tokens.append(("num", complex(0.0, val), i))
                j += 1
            else:
                tokens.append(("num", complex(val, 0.0), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            if name == "i":
                tokens.append(("num", complex(0.0, 1.0), i))
            else:
                tokens.append(("name", name, i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


# -- values: one quotient of polynomials over Laurent coefficients -----------------
#
# A value is a pair (num, den) of sparse polynomials {exponent tuple:
# LaurentSeries} in the entry point's variables (see the module docstring).

_ZERO, _ONE = LaurentSeries.zero(), LaurentSeries.one()


def _nonzero(p: dict) -> dict:
    return {e: c for e, c in p.items() if not c.is_zero()}


def _add(p: dict, q: dict) -> dict:
    out = {}
    for e, c in (*p.items(), *q.items()):
        out[e] = out.get(e, _ZERO) + c
    return _nonzero(out)


def _mul(p: dict, q: dict) -> dict:
    # the left factor in ascending exponents fixes the float accumulation order
    out = {}
    for e1 in sorted(p):
        for e2, c2 in q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, _ZERO) + p[e1] * c2
    return _nonzero(out)


# -- one-pass reader: each grammar rule returns its value ---------------------------


class _Reader:
    """Reads ``text`` as a value over the variables ``names``; only a
    ``rational`` reader may divide by an expression in them."""

    def __init__(self, text: str, names: tuple, rational: bool):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.names, self.rational = names, rational
        self.unit = (0,) * len(names)
        self.one = {self.unit: _ONE}

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])

    def read(self):
        num, den = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        if not all(cmath.isfinite(c) for p in (num, den) for s in p.values()
                   for c in s.terms.values()):
            raise ParseError("a coefficient overflows to a non-finite value")
        return num, den

    def quotient(self, num, den, pos):
        unit = self.unit
        if list(den) == [unit]:
            if den[unit] == _ONE:
                return num, den
            inv = den[unit].inverse()
            return _nonzero({e: c * inv for e, c in num.items()}), self.one
        if not self.rational:
            raise ParseError("sections may only divide by t-expressions", pos)
        return num, den

    def expr(self):
        an, ad = self.term()
        while self.peek()[0] in "+-":
            op, _, pos = self.next()
            bn, bd = self.term()
            rhs = _mul(bn, ad)
            if op == "-":
                rhs = {e: -c for e, c in rhs.items()}
            an, ad = self.quotient(_add(_mul(an, bd), rhs), _mul(ad, bd), pos)
        return an, ad

    def term(self):
        an, ad = self.unary()
        while self.peek()[0] in "*/":
            op, _, pos = self.next()
            bn, bd = self.unary()
            if op == "/":
                if not bn:
                    raise ParseError("division by zero", pos)
                bn, bd = bd, bn
            an, ad = self.quotient(_mul(an, bn), _mul(ad, bd), pos)
        return an, ad

    def unary(self):
        if self.peek()[0] not in "+-":
            return self.power()
        op = self.next()[0]
        num, den = self.unary()
        return (num if op == "+" else {e: -c for e, c in num.items()}), den

    def power(self):
        num, den = self.atom()
        if self.peek()[0] != "^":
            return num, den
        _, _, pos = self.next()
        epos = self.peek()[2]
        exp = self.exponent()
        if exp.denominator == 1:
            n = int(exp)
            if abs(n) > MAX_EXPONENT:
                raise ParseError(f"exponent {n} exceeds {MAX_EXPONENT} in size", epos)
            if n < 0:
                if not num:
                    raise ParseError("division by zero", pos)
                num, den, n = den, num, -n
            degree = n * max((sum(e) for p in (num, den) for e in p), default=0)
            if degree > MAX_EXPONENT:
                raise ParseError(f"power of degree {degree} > {MAX_EXPONENT}", pos)
            rnum, rden = self.one, self.one
            for _ in range(n):
                rnum, rden = _mul(rnum, num), _mul(rden, den)
            return self.quotient(rnum, rden, pos)
        # fractional exponent: only a pure-t monomial supports it exactly
        unit = self.unit
        if list(num) != [unit] or den != self.one or not num[unit].is_monomial():
            raise ParseError("fractional powers are only supported on t-monomials", pos)
        e, c = num[unit].leading()
        try:
            c = complex(c) ** float(exp)
        except OverflowError:
            raise ParseError("a coefficient overflows to a non-finite value", pos) from None
        return {unit: LaurentSeries.t_power(e * exp, c)}, self.one

    def exponent(self) -> Fraction:
        if self.peek()[0] != "(":
            return Fraction(self._int_literal())
        self.next()
        num = self._int_literal()
        self.expect("/")
        pos = self.peek()[2]
        den = self._int_literal()
        if den <= 0:
            raise ParseError("exponent denominators must be positive", pos)
        self.expect(")")
        return Fraction(num, den)

    def _int_literal(self) -> int:
        sign = 1
        if self.peek()[0] == "-":
            self.next()
            sign = -1
        kind, val, pos = self.next()
        if kind != "num" or val.imag != 0 or val.real != int(val.real):
            raise ParseError("exponents must be integers (or rational for t)", pos)
        return sign * int(val.real)

    def atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            return {self.unit: LaurentSeries.const(val)}, self.one
        if kind == "(":
            value = self.expr()
            self.expect(")")
            return value
        if kind != "name":
            raise ParseError(f"unexpected token {val!r}", pos)
        names = self.names
        if val == "t":
            return {self.unit: LaurentSeries.t_power(1)}, self.one
        if val in names:
            return {tuple(int(v == val) for v in names): _ONE}, self.one
        raise ParseError(f"unknown variable {val!r} (allowed: "
                         f"{', '.join(names + ('t',))})", pos)


# -- family and datum types ---------------------------------------------------------


class RationalMapFamily:
    """Degree-d pair of homogeneous polynomials in (w0, w1), Laurent coefficients."""

    def __init__(self, degree: int, p0: HomogeneousPoly, p1: HomogeneousPoly,
                 label: str = ""):
        if p0.degree != degree or p1.degree != degree:
            raise ParseError("family sections must share the declared degree")
        if p0.is_zero() and p1.is_zero():
            raise ParseError("family is identically zero")
        self.degree, self.p0, self.p1, self.label = degree, p0, p1, label

    @cached_property
    def resultant(self) -> LaurentSeries:
        """Res(P0, P1) as a series in t; built once per family."""
        return resultant(self.p0, self.p1)

    def min_coeff_order(self):
        return min(self.p0.min_coeff_order(), self.p1.min_coeff_order())

    def is_polynomial(self) -> bool:
        """True when p1 is a constant multiple of w1^d (an affine polynomial map)."""
        return list(self.p1.coeffs) == [0]

    @cached_property
    def affine_coeffs(self) -> tuple:
        """Affine numerator coefficients P0(z, 1) divided by the w1^d
        coefficient of P1, for polynomial families; built once per family."""
        if not self.is_polynomial():
            raise ParseError("family is not polynomial in z")
        inv = self.p1.coeffs[0].inverse()
        return tuple(c * inv for c in self.p0.dehomogenized())

    def emit(self) -> str:
        return f"({self.p0.emit(chart=True)})/({self.p1.emit(chart=True)})"


def parse_family(text: str, label: str | None = None) -> RationalMapFamily:
    """Parse a rational expression in z and t into a homogeneous degree-d pair.

    The z-denominator is cleared by homogenization; t-denominators stay as
    Laurent coefficients.  Families of degree < 2 or > ``MAX_DEGREE`` are
    rejected, and so is a family whose resultant vanishes identically
    (``DegenerateFamilyError``).
    """
    num, den = _Reader(text, ("z",), rational=True).read()
    d = max((j for (j,) in [*num, *den]), default=0)
    if d < 2:
        raise ParseError(f"family degree {d} < 2")
    if d > MAX_DEGREE:
        raise ParseError(f"family degree {d} > {MAX_DEGREE}")
    p0, p1 = (HomogeneousPoly(d, {j: p[(j,)] for (j,) in sorted(p)}) for p in (num, den))
    family = RationalMapFamily(d, p0, p1, label=label if label is not None else text)
    berkovich.resultant_valuation(family)
    return family


# -- sections: binary forms in w0, w1 with Laurent coefficients ----------------------


def parse_section(text: str, d: int) -> HomogeneousPoly:
    """Parse one binary form of degree d <= ``MAX_DEGREE`` in w0, w1."""
    if d > MAX_DEGREE:
        raise ParseError(f"section degree {d} > {MAX_DEGREE}")
    coeffs, _ = _Reader(text, ("w0", "w1"), rational=False).read()
    if not coeffs:
        raise ParseError("section is identically zero")
    degrees = {a + b for a, b in coeffs}
    if len(degrees) != 1:
        raise ParseError(f"inhomogeneous section: mixed degrees {sorted(degrees)}")
    deg = degrees.pop()
    if deg != d:
        raise ParseError(f"section has degree {deg}, expected {d}")
    return HomogeneousPoly(d, {a: c for (a, _), c in coeffs.items()})


def parse_sections(texts: list, d: int):
    """Parse a list of section texts into an admissible datum of degree d."""
    from .admissible import AdmissibleDatum

    if not texts:
        raise ParseError("empty section list")
    return AdmissibleDatum(d, [parse_section(s, d) for s in texts])


def parse_series(text: str) -> LaurentSeries:
    """Parse a t-only expression into a Laurent series."""
    num, _ = _Reader(text, (), rational=False).read()
    return num.get((), _ZERO)

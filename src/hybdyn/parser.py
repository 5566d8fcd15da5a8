"""Textual input: rational-map families, admissible-datum sections, series.

Grammar (shared by all entry points):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ['^' exponent]
    exponent:= ['-'] INT | '(' ['-'] INT '/' INT ')'
    atom    := NUMBER | NAME | '(' expr ')'

Numbers are finite decimal literals with an optional ``i`` suffix for
imaginary parts, so a complex literal is written ``(1+2i)``.  Fractional
exponents are only meaningful on ``t``.  One evaluator serves every entry
point: it reads an expression as a quotient of polynomials in the entry
point's variables (``z`` for families, ``w0..wk`` for sections, none for
series) with Laurent coefficients in ``t``.  A denominator free of those
variables becomes Laurent coefficients at once, so only a family keeps a
denominator, in ``z``, which folds into the overall quotient.  A term whose
coefficient is zero to truncation is dropped.

Parse errors carry the byte offset of the offending token.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import ParseError
from .laurent import LaurentSeries
from .poly import HomogeneousPoly

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


# -- Pratt-style recursive descent into a small AST ------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

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
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in "+-":
            op, _, pos = self.next()
            rhs = self.term()
            node = ("bin", op, node, rhs, pos)
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in "*/":
            op, _, pos = self.next()
            rhs = self.unary()
            node = ("bin", op, node, rhs, pos)
        return node

    def unary(self):
        if self.peek()[0] == "-":
            _, _, pos = self.next()
            return ("neg", self.unary(), pos)
        if self.peek()[0] == "+":
            self.next()
            return self.unary()
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[0] == "^":
            _, _, pos = self.next()
            exp = self.exponent()
            node = ("pow", node, exp, pos)
        return node

    def exponent(self) -> Fraction:
        tok = self.peek()
        if tok[0] == "(":
            self.next()
            num = self._int_literal()
            self.expect("/")
            den = self._int_literal(unsigned=True)
            self.expect(")")
            return Fraction(num, den)
        return Fraction(self._int_literal())

    def _int_literal(self, unsigned: bool = False) -> int:
        sign = 1
        tok = self.peek()
        if not unsigned and tok[0] == "-":
            self.next()
            sign = -1
            tok = self.peek()
        if tok[0] != "num" or tok[1].imag != 0 or tok[1].real != int(tok[1].real):
            raise ParseError("exponents must be integers (or rational for t)", tok[2])
        self.next()
        return sign * int(tok[1].real)

    def atom(self):
        tok = self.next()
        kind, val, pos = tok
        if kind == "num":
            return ("num", val, pos)
        if kind == "name":
            return ("name", val, pos)
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(f"unexpected token {val!r}", pos)


# -- evaluation: one quotient of polynomials over Laurent coefficients --------------
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


def _evaluate(ast, names: tuple, rational: bool):
    """(num, den) of ``ast`` over the variables ``names``; only a ``rational``
    entry point may divide by an expression in them."""
    unit = (0,) * len(names)
    one = {unit: _ONE}

    def quotient(num, den, pos):
        if list(den) == [unit]:
            if den[unit] == _ONE:
                return num, den
            inv = den[unit].inverse()
            return _nonzero({e: c * inv for e, c in num.items()}), one
        if not rational:
            raise ParseError("sections may only divide by t-expressions", pos)
        return num, den

    def ev(node):
        kind, pos = node[0], node[-1]
        if kind == "num":
            return {unit: LaurentSeries.const(node[1])}, one
        if kind == "name":
            name = node[1]
            if name == "t":
                return {unit: LaurentSeries.t_power(1)}, one
            if name in names:
                return {tuple(int(v == name) for v in names): _ONE}, one
            if names[:1] == ("w0",) and name[:1] == "w" and name[1:].isdigit():
                raise ParseError(f"variable {name} exceeds dimension k={len(names) - 1}", pos)
            raise ParseError(f"unknown variable {name!r} (allowed: "
                             f"{', '.join(names + ('t',))})", pos)
        if kind == "neg":
            num, den = ev(node[1])
            return {e: -c for e, c in num.items()}, den
        if kind == "bin":
            op = node[1]
            (an, ad), (bn, bd) = ev(node[2]), ev(node[3])
            if op == "*":
                return quotient(_mul(an, bn), _mul(ad, bd), pos)
            if op == "/":
                if not bn:
                    raise ParseError("division by zero", pos)
                return quotient(_mul(an, bd), _mul(ad, bn), pos)
            rhs = _mul(bn, ad)
            if op == "-":
                rhs = {e: -c for e, c in rhs.items()}
            return quotient(_add(_mul(an, bd), rhs), _mul(ad, bd), pos)
        (num, den), exp = ev(node[1]), node[2]
        if exp.denominator == 1:
            n = int(exp)
            if n < 0:
                if not num:
                    raise ParseError("division by zero", pos)
                num, den, n = den, num, -n
            rnum, rden = one, one
            for _ in range(n):
                rnum, rden = _mul(rnum, num), _mul(rden, den)
            return quotient(rnum, rden, pos)
        # fractional exponent: only a pure-t monomial supports it exactly
        if list(num) != [unit] or den != one or not num[unit].is_monomial():
            raise ParseError("fractional powers are only supported on t-monomials", pos)
        e, c = num[unit].leading()
        return {unit: LaurentSeries.t_power(e * exp, complex(c) ** float(exp))}, one

    return ev(ast)


# -- family and datum types ---------------------------------------------------------


@dataclass(frozen=True)
class RationalMapFamily:
    """Degree-d pair of homogeneous polynomials in (w0, w1), Laurent coefficients."""

    degree: int
    p0: HomogeneousPoly
    p1: HomogeneousPoly
    label: str = ""

    def __post_init__(self):
        if self.p0.degree != self.degree or self.p1.degree != self.degree:
            raise ParseError("family sections must share the declared degree")
        if self.p0.is_zero() and self.p1.is_zero():
            raise ParseError("family is identically zero")

    @cached_property
    def resultant(self) -> LaurentSeries:
        """Res(P0, P1), the Sylvester determinant, as a series in t; built
        once per family."""
        from .berkovich import _det_laurent, sylvester_matrix  # deferred to avoid an import cycle

        return _det_laurent(sylvester_matrix(self.p0, self.p1))

    def validate(self) -> None:
        """Check the family is generically non-degenerate (finite resultant order)."""
        from .berkovich import resultant_valuation  # deferred to avoid an import cycle

        resultant_valuation(self)  # raises DegenerateFamilyError on failure

    def min_coeff_order(self):
        return min(self.p0.min_coeff_order(), self.p1.min_coeff_order())

    def is_polynomial(self) -> bool:
        """True when p1 is a constant multiple of w1^d (an affine polynomial map)."""
        keys = list(self.p1.coeffs)
        return keys == [(0, self.degree)]

    def affine_coeffs(self) -> list:
        """Affine numerator coefficients P0(z, 1) divided by the w1^d
        coefficient of P1, for polynomial families."""
        if not self.is_polynomial():
            raise ParseError("family is not polynomial in z")
        lead = self.p1.coeffs[(0, self.degree)]
        inv = lead.inverse()
        return [c * inv for c in self.p0.dehomogenized()]

    def emit(self) -> str:
        num = _emit_affine(self.p0)
        den = _emit_affine(self.p1)
        return f"({num})/({den})"


def _emit_affine(p: HomogeneousPoly) -> str:
    parts = []
    for j in range(p.degree, -1, -1):
        c = p.coeffs.get((j, p.degree - j))
        if c is None:
            continue
        ctext = str(c)
        needs_parens = not (c.is_monomial() and not ctext.startswith("-"))
        ctext = f"({ctext})" if needs_parens else ctext
        if j == 0:
            parts.append(ctext)
        elif ctext == "1":
            parts.append("z" if j == 1 else f"z^{j}")
        else:
            parts.append(f"{ctext}*z" if j == 1 else f"{ctext}*z^{j}")
    return " + ".join(parts) if parts else "0"


def parse_family(text: str, label: str | None = None, validate: bool = True) -> RationalMapFamily:
    """Parse a rational expression in z and t into a homogeneous degree-d pair.

    The z-denominator is cleared by homogenization; t-denominators stay as
    Laurent coefficients.  Families of degree < 2 are rejected.
    """
    num, den = _evaluate(_Parser(text).parse(), ("z",), rational=True)
    d = max((j for (j,) in [*num, *den]), default=0)
    if d < 2:
        raise ParseError(f"family degree {d} < 2")
    p0, p1 = (HomogeneousPoly(2, d, {(j, d - j): p[(j,)] for (j,) in sorted(p)})
              for p in (num, den))
    family = RationalMapFamily(d, p0, p1, label=label if label is not None else text)
    if validate:
        family.validate()
    return family


# -- sections: polynomials in w0..wk with Laurent coefficients -----------------------


def parse_section(text: str, k: int, d: int) -> HomogeneousPoly:
    """Parse one homogeneous degree-d polynomial in w0..wk."""
    names = tuple(f"w{i}" for i in range(k + 1))
    coeffs, _ = _evaluate(_Parser(text).parse(), names, rational=False)
    if not coeffs:
        raise ParseError("section is identically zero")
    degrees = {sum(e) for e in coeffs}
    if len(degrees) != 1:
        raise ParseError(f"inhomogeneous section: mixed degrees {sorted(degrees)}")
    deg = degrees.pop()
    if deg != d:
        raise ParseError(f"section has degree {deg}, expected {d}")
    return HomogeneousPoly(k + 1, d, coeffs)


def parse_sections(texts: list, k: int, d: int):
    """Parse a list of section texts into an admissible datum of degree d."""
    from .admissible import AdmissibleDatum

    if not texts:
        raise ParseError("empty section list")
    sections = [parse_section(s, k, d) for s in texts]
    return AdmissibleDatum(degree=d, k=k, sections=sections)


def parse_series(text: str) -> LaurentSeries:
    """Parse a t-only expression into a Laurent series."""
    num, _ = _evaluate(_Parser(text).parse(), (), rational=False)
    return num.get((), _ZERO)

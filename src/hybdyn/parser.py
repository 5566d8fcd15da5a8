"""Textual input: rational-map families, admissible-datum sections, series.

Grammar (shared by all entry points):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ['^' exponent]
    exponent:= ['-'] INT | '(' ['-'] INT '/' INT ')'
    atom    := NUMBER | NAME | '(' expr ')'

Numbers are decimal literals with an optional ``i`` suffix for imaginary
parts, so a complex literal is written ``(1+2i)``.  Fractional exponents are
only meaningful on ``t``.  Families are rational expressions in ``z`` and
``t``; any denominator in ``z`` folds into the overall quotient, while pure-t
denominators become Laurent coefficients.  Sections are polynomials in
``w0..wk`` with Laurent coefficients.

Parse errors carry the byte offset of the offending token.
"""

from __future__ import annotations

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


# -- evaluation as a rational function in z over Laurent coefficients -------------


def _ztrim(p: list) -> list:
    while len(p) > 1 and p[-1].is_zero():
        p = p[:-1]
    return p


def _zadd(p: list, q: list) -> list:
    out = [LaurentSeries.zero() for _ in range(max(len(p), len(q)))]
    for i, c in enumerate(p):
        out[i] = out[i] + c
    for i, c in enumerate(q):
        out[i] = out[i] + c
    return _ztrim(out)


def _zmul(p: list, q: list) -> list:
    out = [LaurentSeries.zero() for _ in range(len(p) + len(q) - 1)]
    for i, a in enumerate(p):
        if a.is_zero():
            continue
        for j, b in enumerate(q):
            if b.is_zero():
                continue
            out[i + j] = out[i + j] + a * b
    return _ztrim(out)


class _RationalZ:
    """num/den pair of z-polynomials with Laurent coefficients."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        self.num = _ztrim(num)
        self.den = _ztrim(den) if den is not None else [LaurentSeries.one()]

    def _simplify(self) -> "_RationalZ":
        # pure-t denominators become Laurent coefficients right away
        if len(self.den) == 1 and not self.den[0].is_zero():
            if self.den[0] == LaurentSeries.one():
                return self
            inv = self.den[0].inverse()
            return _RationalZ([c * inv for c in self.num])
        return self

    @staticmethod
    def of_const(c) -> "_RationalZ":
        return _RationalZ([LaurentSeries.const(c)])

    @staticmethod
    def of_series(s: LaurentSeries) -> "_RationalZ":
        return _RationalZ([s])


def _reval(node):
    kind = node[0]
    if kind == "num":
        return _RationalZ.of_const(node[1])
    if kind == "name":
        name, pos = node[1], node[2]
        if name == "t":
            return _RationalZ.of_series(LaurentSeries.t_power(1))
        if name == "z":
            return _RationalZ([LaurentSeries.zero(), LaurentSeries.one()])
        raise ParseError(f"unknown variable {name!r} (family grammar allows z and t)", pos)
    if kind == "neg":
        v = _reval(node[1])
        return _RationalZ([-c for c in v.num], v.den)
    if kind == "bin":
        op, lhs, rhs, pos = node[1], node[2], node[3], node[4]
        a, b = _reval(lhs), _reval(rhs)
        if op == "+":
            return _RationalZ(_zadd(_zmul(a.num, b.den), _zmul(b.num, a.den)),
                              _zmul(a.den, b.den))._simplify()
        if op == "-":
            return _RationalZ(
                _zadd(_zmul(a.num, b.den), [-c for c in _zmul(b.num, a.den)]),
                _zmul(a.den, b.den))._simplify()
        if op == "*":
            return _RationalZ(_zmul(a.num, b.num), _zmul(a.den, b.den))._simplify()
        if op == "/":
            if len(b.num) == 1 and b.num[0].is_zero():
                raise ParseError("division by zero", pos)
            return _RationalZ(_zmul(a.num, b.den), _zmul(a.den, b.num))._simplify()
    if kind == "pow":
        base, exp, pos = _reval(node[1]), node[2], node[3]
        if exp.denominator == 1:
            n = int(exp)
            if n >= 0:
                num, den = base.num, base.den
            else:
                if len(base.num) == 1 and base.num[0].is_zero():
                    raise ParseError("division by zero", pos)
                num, den = base.den, base.num
                n = -n
            rnum, rden = [LaurentSeries.one()], [LaurentSeries.one()]
            for _ in range(n):
                rnum, rden = _zmul(rnum, num), _zmul(rden, den)
            return _RationalZ(rnum, rden)._simplify()
        # fractional exponent: only a pure-t monomial supports it exactly
        v = base._simplify()
        if len(v.num) != 1 or len(v.den) != 1 or not v.den[0] == LaurentSeries.one():
            raise ParseError("fractional powers are only supported on t-monomials", pos)
        s = v.num[0]
        if not s.is_monomial():
            raise ParseError("fractional powers are only supported on t-monomials", pos)
        e, c = s.leading()
        new_e = e * exp
        new_c = complex(c) ** float(exp)
        return _RationalZ.of_series(LaurentSeries.t_power(new_e, new_c))
    raise ParseError("malformed expression", node[-1])


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
        return [c * inv for c in self.p0.dehomogenized("z")]

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
    ast = _Parser(text).parse()
    value = _reval(ast)._simplify()
    num, den = value.num, value.den
    d = max(len(num), len(den)) - 1
    if d < 2:
        raise ParseError(f"family degree {d} < 2")
    p0 = HomogeneousPoly(2, d, {(j, d - j): c for j, c in enumerate(num)})
    p1 = HomogeneousPoly(2, d, {(j, d - j): c for j, c in enumerate(den)})
    family = RationalMapFamily(d, p0, p1, label=label if label is not None else text)
    if validate:
        family.validate()
    return family


# -- sections: polynomials in w0..wk with Laurent coefficients -----------------------


def _weval(node, k: int):
    """Evaluate to a dict {exponent tuple: LaurentSeries} over w0..wk."""
    nv = k + 1
    zero_exp = (0,) * nv
    kind = node[0]
    if kind == "num":
        return {zero_exp: LaurentSeries.const(node[1])}
    if kind == "name":
        name, pos = node[1], node[2]
        if name == "t":
            return {zero_exp: LaurentSeries.t_power(1)}
        if name.startswith("w") and name[1:].isdigit():
            idx = int(name[1:])
            if idx > k:
                raise ParseError(f"variable {name} exceeds dimension k={k}", pos)
            e = [0] * nv
            e[idx] = 1
            return {tuple(e): LaurentSeries.one()}
        raise ParseError(f"unknown variable {name!r} (sections use w0..w{k} and t)", pos)
    if kind == "neg":
        return {e: -c for e, c in _weval(node[1], k).items()}
    if kind == "bin":
        op, lhs, rhs, pos = node[1], node[2], node[3], node[4]
        a, b = _weval(lhs, k), _weval(rhs, k)
        if op in "+-":
            out = dict(a)
            for e, c in b.items():
                c = -c if op == "-" else c
                out[e] = out[e] + c if e in out else c
            return {e: c for e, c in out.items() if not c.is_zero()}
        if op == "*":
            out = {}
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    e = tuple(x + y for x, y in zip(e1, e2))
                    prod = c1 * c2
                    out[e] = out[e] + prod if e in out else prod
            return {e: c for e, c in out.items() if not c.is_zero()}
        if op == "/":
            if list(b.keys()) not in ([zero_exp], []):
                raise ParseError("sections may only divide by t-expressions", pos)
            if not b or b[zero_exp].is_zero():
                raise ParseError("division by zero", pos)
            inv = b[zero_exp].inverse()
            return {e: c * inv for e, c in a.items()}
    if kind == "pow":
        base, exp, pos = _weval(node[1], k), node[2], node[3]
        if exp.denominator != 1 or exp < 0:
            if list(base.keys()) == [zero_exp]:
                s = base[zero_exp]
                if s.is_monomial():
                    e, c = s.leading()
                    return {zero_exp: LaurentSeries.t_power(e * exp, complex(c) ** float(exp))}
            raise ParseError("fractional/negative powers only on t-monomials", pos)
        out = {zero_exp: LaurentSeries.one()}
        for _ in range(int(exp)):
            new = {}
            for e1, c1 in out.items():
                for e2, c2 in base.items():
                    e = tuple(x + y for x, y in zip(e1, e2))
                    prod = c1 * c2
                    new[e] = new[e] + prod if e in new else prod
            out = new
        return {e: c for e, c in out.items() if not c.is_zero()}
    raise ParseError("malformed expression", node[-1])


def parse_section(text: str, k: int, d: int) -> HomogeneousPoly:
    """Parse one homogeneous degree-d polynomial in w0..wk."""
    ast = _Parser(text).parse()
    coeffs = _weval(ast, k)
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
    ast = _Parser(text).parse()
    value = _reval(ast)._simplify()
    if len(value.num) > 1 or len(value.den) > 1:
        raise ParseError("series text must not involve z")
    num = value.num[0]
    den = value.den[0]
    if den == LaurentSeries.one():
        return num
    return num * den.inverse()

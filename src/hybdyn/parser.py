"""Textual input: rational-map families, admissible-datum sections, series.

Grammar (shared by all entry points):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := ('-' | '+') unary | power
    power   := atom ['^' exponent]
    exponent:= ['-'] INT | '(' ['-'] INT '/' INT ')'
    atom    := NUMBER | NAME | '(' expr ')'

Numbers are finite decimal literals with an optional ``i`` suffix for
imaginary parts, so a complex literal is written ``(1+2i)``; each is read
exactly (a literal whose double is 0 reads as 0).  Fractional exponents
take a positive denominator and are only meaningful on a t-monomial whose
coefficient has an exact principal root in Q(i).  An exponent is at most
``MAX_EXPONENT`` in size, and so are the degree and the span of powers of
t that a power builds; a power builds ints of at most ``MAX_BITS`` bits,
and a family or a section is a binary form of degree at most ``MAX_DEGREE``.
One reader serves every entry point, in one pass: each grammar rule returns
the exact value of what it read, a quotient of polynomials in the entry
point's variables (``z`` for families, ``w0, w1`` for sections, none for
series) over Q(i)[t^(±1/q)].  A t-monomial denominator is divided out at
once; a family keeps any other one in its overall quotient (a t-polynomial
one with its lowest power of t divided out), a series divides by it at the
end, and a section may not have one.  A term whose coefficient is zero is
dropped; each coefficient is rounded to a double once, at the end, and
must be finite.

Errors come in reading order, each at the byte offset of the first bad
token; a coefficient that overflows is reported without one.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property

from . import berkovich
from .errors import ParseError
from .laurent import LaurentSeries
from .poly import HomogeneousPoly, exact_form, resultant

# caps on what a text may build: a power is formed by repeated products of
# exact ints, and the complex root-finders (``cxdyn._MAX_ROOT_DEGREE``) serve
# forms of degree <= 8
MAX_EXPONENT = 64
MAX_BITS = 1 << 14
MAX_DEGREE = 8

# -- lexer ---------------------------------------------------------------------


def _tokenize(text: str):
    tokens, i, n = [], 0, len(text)
    while i < n:
        ch, j = text[i], i + 1
        if ch.isspace():
            pass
        elif ch in "+-*/^()":
            tokens.append((ch, ch, i))
        elif ch.isdigit() or ch == "." and text[j:j + 1].isdigit():
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            k = j + 1 + (text[j + 1:j + 2] in ("+", "-"))  # the first digit of an exponent
            if text[j:j + 1] in ("e", "E") and text[k:k + 1].isdigit():
                j = k
                while j < n and text[j].isdigit():
                    j += 1
            lit, imag = text[i:j], text[j:j + 1] == "i"
            try:
                # exact where the double is finite and nonzero, so that no
                # exponent builds a huge power of ten; 0 where it underflows
                val = float(lit)
                ok = math.isfinite(val)  # else too large for a double
                val = Fraction(lit) if ok and val else Fraction(0)
            except ValueError:  # malformed, or more digits than int() reads
                ok = False
            if not ok:
                raise ParseError(f"bad number literal {lit!r}", i)
            a, m = val.numerator, val.denominator
            tokens.append(("num", (0, a, m) if imag else (a, 0, m), i))
            j += imag
        elif ch.isalpha() or ch == "_":
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            tokens.append(("num", (0, 1, 1), i) if name == "i" else ("name", name, i))
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
        i = j
    tokens.append(("end", None, n))
    return tokens


# -- exact values: one quotient of polynomials over Q(i)[t^(±1/q)] -------------------
#
# A value is a pair (num, den) of sparse polynomials {exponent tuple:
# Gaussian rational} in the entry point's variables and, last, t (an int
# exponent, or a Fraction on a Puiseux term).  A Gaussian rational
# (a + b i) / n is the int triple (a, b, n), n > 0, not reduced.

_UNIT = (1, 0, 1)


def _gadd(x, y):
    (a, b, n), (c, d, m) = x, y
    if n == m:
        return a + c, b + d, n
    # over the lcm: a power sums products of its base's terms, and over the
    # product of their denominators its bits would double with each factor
    g = math.gcd(n, m)
    return a * (m // g) + c * (n // g), b * (m // g) + d * (n // g), n // g * m


def _gmul(x, y):
    (a, b, n), (c, d, m) = x, y
    return a * c - b * d, a * d + b * c, n * m


def _ginv(x):
    a, b, n = x
    return n * a, -n * b, a * a + b * b


def _gpow(x, k: int):
    out = _UNIT
    for bit in bin(k)[2:]:
        out = _gmul(out, out) if bit == "0" else _gmul(_gmul(out, out), x)
    return out


def _collect(terms) -> dict:
    """The polynomial of (exponent tuple, Gaussian rational) pairs, summed;
    zeros dropped."""
    out = {}
    for e, c in terms:
        out[e] = _gadd(out[e], c) if e in out else c
    return {e: c for e, c in out.items() if c[0] or c[1]}


def _mul(p: dict, q: dict) -> dict:
    # the left factor in ascending exponents fixes the order of the monomials
    return _collect((tuple(map(operator.add, e1, e2)), _gmul(p[e1], c2))
                    for e1 in sorted(p) for e2, c2 in q.items())


def _neg(p: dict) -> dict:
    return {e: (-a, -b, n) for e, (a, b, n) in p.items()}


def _bits(p: dict) -> int:
    """Bits that bound each int of p^k, per factor: every denominator
    divides L^k, L the lcm of p's, and every numerator is at most S^k, S the
    sum of L times |re| + |im| over p's coefficients."""
    lcm = math.lcm(*(n for _, _, n in p.values()))
    return max(lcm, sum((abs(a) + abs(b)) * (lcm // n) for a, b, n in p.values())).bit_length()


def _forms(p: dict) -> dict:
    """{monomial in the variables: t-polynomial}, monomials in the order of
    their first terms: the t-polynomials are what ``poly.resultant`` takes."""
    out = {}
    for e, c in p.items():
        out.setdefault(e[:-1], {})[e[-1]] = c
    return out


def _series(p: dict) -> LaurentSeries:
    """The t-polynomial p, each coefficient rounded to a double."""
    try:
        return LaurentSeries({e: complex(a / n, b / n) for e, (a, b, n) in p.items()})
    except OverflowError:
        raise ParseError("a coefficient overflows to a non-finite value") from None


# -- one-pass reader: each grammar rule returns its value ---------------------------


class _Reader:
    """Reads ``text`` as an exact value over the variables ``names``; only a
    ``rational`` reader may divide by anything but a t-monomial."""

    def __init__(self, text: str, names: tuple, rational: bool):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.names, self.rational = names, rational
        self.unit = (0,) * len(names)
        self.one = {self.unit + (0,): _UNIT}

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
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return value

    def quotient(self, num, den, pos):
        if den == self.one:
            return num, den
        ((e, c), *more) = den.items()
        if not more and e[:-1] == self.unit:  # a t-monomial: divide it out
            return _mul(num, {self.unit + (-e[-1],): _ginv(c)}), self.one
        if not self.rational:
            raise ParseError("sections may divide only by one-term t-expressions", pos)
        if all(e[:-1] == self.unit for e in den):  # a t-polynomial: kept of order 0
            shift = {self.unit + (-min(e[-1] for e in den),): _UNIT}
            return _mul(shift, num), _mul(shift, den)
        return num, den

    def expr(self):
        an, ad = self.term()
        while self.peek()[0] in "+-":
            op, _, pos = self.next()
            bn, bd = self.term()
            rhs = _mul(bn, ad)
            if op == "-":
                rhs = _neg(rhs)
            num = _collect([*_mul(an, bd).items(), *rhs.items()])
            an, ad = self.quotient(num, _mul(ad, bd), pos)
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
        return (num if op == "+" else _neg(num)), den

    def power(self):
        num, den = self.atom()
        if self.peek()[0] != "^":
            return num, den
        _, _, pos = self.next()
        epos = self.peek()[2]
        exp = self.exponent()
        if abs(exp) > MAX_EXPONENT:
            raise ParseError(f"exponent {exp} exceeds {MAX_EXPONENT} in size", epos)
        if exp.denominator > 1:
            num = self.root(num, den, exp.denominator, pos)
        n = exp.numerator
        if n < 0:
            if not num:
                raise ParseError("division by zero", pos)
            num, den, n = den, num, -n
        degree = n * max((sum(e[:-1]) for e in [*num, *den]), default=0)
        if degree > MAX_EXPONENT:
            raise ParseError(f"power of degree {degree} > {MAX_EXPONENT}", pos)
        span = n * max((max(e[-1] for e in p) - min(e[-1] for e in p) for p in (num, den)
                        if p), default=0)
        if span > MAX_EXPONENT:
            raise ParseError(f"power spanning {span} > {MAX_EXPONENT} powers of t", pos)
        bits = n * max(map(_bits, (num, den)))
        if bits > MAX_BITS:
            raise ParseError(f"power of {bits} bits > {MAX_BITS}", pos)
        rnum, rden = self.one, self.one
        for _ in range(n):
            rnum, rden = _mul(rnum, num), _mul(rden, den)
        return self.quotient(rnum, rden, pos)

    def root(self, num, den, q: int, pos):
        """The principal q-th root of a t-monomial, which must be exact."""
        if len(num) != 1 or den != self.one or next(iter(num))[:-1] != self.unit:
            raise ParseError("fractional powers are only supported on t-monomials", pos)
        ((e, (a, b, n)),) = num.items()
        bits = (q - 1) * (n.bit_length() - 1) + max(abs(a), abs(b)).bit_length()
        if bits > MAX_BITS:
            raise ParseError(f"power of {bits} bits > {MAX_BITS}", pos)
        g = (a * n ** (q - 1), b * n ** (q - 1), 1)  # n^q times the coefficient
        # n times the root is a Gaussian integer: guess it in doubles, g scaled
        # by 2^(-hq) into their range
        h = max(0, -(-(max(map(abs, g[:2])).bit_length() - 960) // q))
        w = complex(g[0] >> h * q, g[1] >> h * q) ** (1 / q)
        r = (round(w.real) << h, round(w.imag) << h, 1)
        for _ in range(16):  # Newton's steps, each rounded to a Gaussian integer
            p = _gpow(r, q - 1)
            x, y, m = _gmul(_gadd(_gmul(r, p), (-g[0], -g[1], 1)), _ginv((q * p[0], q * p[1], 1)))
            if not (x or y) or not m:
                break
            r = (r[0] - round(Fraction(x, m)), r[1] - round(Fraction(y, m)), 1)
        if _gpow(r, q) != g:
            raise ParseError(f"{_series({0: (a, b, n)})} has no exact root of order {q} in "
                             "Q(i): write the coefficient out", pos)
        k = Fraction(e[-1]) / q  # an int where it is whole: ints hash and add faster
        return {e[:-1] + (k.numerator if k.denominator == 1 else k,): (r[0], r[1], n)}

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
        if kind != "num" or val[1] or val[0] % val[2]:
            raise ParseError("exponents must be integers (or rational for t)", pos)
        return sign * (val[0] // val[2])

    def atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            return ({self.unit + (0,): val} if val[0] or val[1] else {}), self.one
        if kind == "(":
            value = self.expr()
            self.expect(")")
            return value
        if kind != "name":
            raise ParseError(f"unexpected token {val!r}", pos)
        names = self.names
        if val == "t":
            return {self.unit + (1,): _UNIT}, self.one
        if val in names:
            return {tuple(int(v == val) for v in names) + (0,): _UNIT}, self.one
        raise ParseError(f"unknown variable {val!r} (allowed: "
                         f"{', '.join(names + ('t',))})", pos)


# -- family and datum types ---------------------------------------------------------


class RationalMapFamily:
    """Degree-d pair of homogeneous polynomials in (w0, w1), Laurent coefficients."""

    def __init__(self, degree: int, p0: HomogeneousPoly, p1: HomogeneousPoly,
                 label: str = ""):
        if p0.degree != degree or p1.degree != degree:
            raise ParseError("family sections must share the declared degree")
        self.degree, self.p0, self.p1, self.label = degree, p0, p1, label
        self._shifts = {}  # berkovich._center_key(center) -> affine_shift(center)

    @cached_property
    def resultant(self) -> LaurentSeries:
        """Res(P0, P1) as an exact series in t; built once per family, from
        the exact forms when parsed and from the coefficients' doubles,
        read exactly, otherwise."""
        return resultant(exact_form(self.p0), exact_form(self.p1))

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

    def affine_shift(self, center: LaurentSeries) -> tuple:
        """``taylor_shift(affine_coeffs, center)`` as a tuple, formed once per
        center: the family keeps a table keyed by the center bit for bit
        (``berkovich._center_key``), which the probe tree's orbits and the
        Green walk share.  A shift reads nothing else of the center, so a
        table read is what a fresh shift would give."""
        key = berkovich._center_key(center)
        shifted = self._shifts.get(key)
        if shifted is None:
            shifted = self._shifts[key] = tuple(berkovich.taylor_shift(self.affine_coeffs, center))
        return shifted

    def emit(self) -> str:
        return f"({self.p0.emit(chart=True)})/({self.p1.emit(chart=True)})"


def parse_family(text: str, label: str | None = None) -> RationalMapFamily:
    """Parse a rational expression in z and t into a homogeneous degree-d pair.

    The z-denominator is cleared by homogenization, and so is a denominator
    in t that is not a monomial: the family keeps it, its lowest power of t
    divided out, as a factor of P1, not as a truncated inverse.  Families of
    degree < 2 or > ``MAX_DEGREE`` are rejected, and so is a family whose
    resultant, formed once from the exact forms, vanishes identically
    (``DegenerateFamilyError``).
    """
    num, den = (_forms(p) for p in _Reader(text, ("z",), rational=True).read())
    d = max((j for (j,) in [*num, *den]), default=0)
    if d < 2:
        raise ParseError(f"family degree {d} < 2")
    if d > MAX_DEGREE:
        raise ParseError(f"family degree {d} > {MAX_DEGREE}")
    p0, p1 = (HomogeneousPoly(d, {j: _series(p[(j,)]) for (j,) in sorted(p)})
              for p in (num, den))
    family = RationalMapFamily(d, p0, p1, label=label if label is not None else text)
    family.resultant = resultant(*([p.get((j,), {}) for j in range(d + 1)] for p in (num, den)))
    berkovich.resultant_valuation(family)
    return family


# -- sections: binary forms in w0, w1 with Laurent coefficients ----------------------


def parse_section(text: str, d: int) -> HomogeneousPoly:
    """Parse one binary form of degree d <= ``MAX_DEGREE`` in w0, w1."""
    if d > MAX_DEGREE:
        raise ParseError(f"section degree {d} > {MAX_DEGREE}")
    coeffs = _forms(_Reader(text, ("w0", "w1"), rational=False).read()[0])
    if not coeffs:
        raise ParseError("section is identically zero")
    degrees = {a + b for a, b in coeffs}
    if len(degrees) != 1:
        raise ParseError(f"inhomogeneous section: mixed degrees {sorted(degrees)}")
    deg = degrees.pop()
    if deg != d:
        raise ParseError(f"section has degree {deg}, expected {d}")
    return HomogeneousPoly(d, {a: _series(c) for (a, _), c in coeffs.items()})


def parse_sections(texts: list, d: int):
    """Parse a list of section texts into an admissible datum of degree d."""
    from .admissible import AdmissibleDatum

    if not texts:
        raise ParseError("empty section list")
    return AdmissibleDatum(d, [parse_section(s, d) for s in texts])


def parse_series(text: str) -> LaurentSeries:
    """Parse a t-only expression into a Laurent series; a denominator that is
    not a t-monomial is inverted once, as a truncated series, at the end."""
    num, den = (_forms(p).get((), {}) for p in _Reader(text, (), rational=True).read())
    return _series(num) if den == {0: _UNIT} else _series(num) / _series(den)

"""Binary forms with Laurent-series coefficients.

A form of degree d in (w0, w1) keeps a map from the power j of w0 to the
coefficient of ``w0**j * w1**(d - j)``: every family and every section of
a datum lives on P^1.  Forms also compose, which gives the homogeneous
iterates of a family, and two forms, given exactly, have a resultant, an
exact series in t: every degeneracy is decided from it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import LaurentError, ParseError, PrecisionError
from .laurent import LaurentSeries

_INF = math.inf
# the largest packed determinant, in bits, ``resultant`` forms: a bound on
# memory and time for forms whose exponents of t span a fine grid widely
_MAX_BITS = 1 << 20


class HomogeneousPoly:
    """Binary form of fixed degree in (w0, w1)."""

    __slots__ = ("degree", "coeffs", "_chart")  # _chart: dehomogenized()'s tuple

    def __init__(self, degree: int, coeffs: dict):
        """``coeffs`` maps the power j of w0 (0 <= j <= degree) to the
        coefficient of ``w0**j * w1**(degree - j)``, a LaurentSeries, and
        keeps the order given: the evaluators sum in that order.  Exactly-zero
        series are dropped; zero-to-truncation coefficients are kept because
        they still bound unknown terms."""
        clean = {}
        for j, c in coeffs.items():
            if not 0 <= j <= degree:
                raise ParseError(f"power {j} of w0 outside a degree-{degree} form")
            if not isinstance(c, LaurentSeries):
                c = LaurentSeries.const(c)
            if not c.is_exact_zero():
                clean[j] = c
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "_chart", None)

    def __setattr__(self, name, value):
        raise AttributeError("HomogeneousPoly is immutable")

    # -- queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        """True when no coefficient has a known nonzero term."""
        return all(c.is_zero() for c in self.coeffs.values())

    def min_coeff_order(self):
        """Smallest t-adic order over all coefficients (inf when zero);
        zero-to-truncation coefficients contribute their truncation order,
        which is a valid lower bound for their unknown terms."""
        if not self.coeffs:
            return _INF
        return min(c.order() for c in self.coeffs.values())

    def truncation_order(self):
        """Smallest truncation order over the coefficients (inf when exact)."""
        tr = _INF
        for c in self.coeffs.values():
            tr = min(tr, c.trunc_order)
        return tr

    def dehomogenized(self) -> tuple:
        """Ascending coefficients of the z-chart polynomial ``P(z, 1)``: one
        tuple, built on the first call."""
        if self._chart is None:
            zero = LaurentSeries.zero()
            object.__setattr__(self, "_chart", tuple(self.coeffs.get(j, zero)
                                                     for j in range(self.degree + 1)))
        return self._chart

    # -- algebra -----------------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, float, complex, LaurentSeries)):
            return HomogeneousPoly(self.degree, {j: c * other for j, c in self.coeffs.items()})
        out: dict = {}
        for j1, c1 in self.coeffs.items():
            for j2, c2 in other.coeffs.items():
                j, prod = j1 + j2, c1 * c2
                out[j] = out[j] + prod if j in out else prod
        return HomogeneousPoly(self.degree + other.degree, out)

    __rmul__ = __mul__

    def __add__(self, other):
        if self.degree != other.degree:
            raise LaurentError("cannot add forms of different degrees")
        out = dict(self.coeffs)
        for j, c in other.coeffs.items():
            out[j] = out[j] + c if j in out else c
        return HomogeneousPoly(self.degree, out)

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        return self + (-other)

    def __pow__(self, n: int):
        if n < 0:
            raise LaurentError("negative polynomial power")
        result = HomogeneousPoly(0, {0: LaurentSeries.one()})
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, HomogeneousPoly):
            return NotImplemented
        return (self.degree, self.coeffs) == (other.degree, other.coeffs)

    def __hash__(self):
        return hash((self.degree, tuple(sorted(self.coeffs.items()))))

    def derivative(self, var: int) -> "HomogeneousPoly":
        """Partial derivative in w0 (``var`` 0) or in w1 (``var`` 1)."""
        d, out = self.degree, {}
        for j, c in self.coeffs.items():
            k = d - j if var else j  # the power of the variable differentiated
            if k:
                out[j if var else j - 1] = c * float(k)
        return HomogeneousPoly(max(d - 1, 0), out)

    # -- evaluation ----------------------------------------------------------------

    def coefficient_table(self, ts) -> dict:
        """Every coefficient at every parameter of the sequence ``ts``, by
        ``LaurentSeries.eval``: ``{power of w0: complex array over ts}``, the
        table ``eval_numeric`` gathers from for a grid of parameters."""
        import numpy as np

        return {j: np.array([c.eval(t) for t in ts], dtype=complex)
                for j, c in self.coeffs.items()}

    def eval_numeric(self, w, t, cell=None):
        """Evaluate at complex homogeneous coordinates.

        ``w`` is a pair of scalars or equally-shaped numpy arrays;
        coefficients are specialized at the complex parameter ``t`` by
        ``LaurentSeries.eval`` (principal branch for fractional powers).
        With ``cell``, shaped as the coordinates, ``t`` is
        ``coefficient_table(ts)`` for a sequence of parameters ``ts`` and
        point k takes ``ts[cell[k]]``: each coefficient value is gathered
        from the table, and every value is the one-parameter value bit for
        bit.
        """
        import numpy as np  # only complex fibers evaluate numerically

        w0, w1 = (np.asarray(x, dtype=complex) for x in w)
        d, total = self.degree, None
        for j, c in self.coeffs.items():
            term = np.full_like(w0, c.eval(t)) if cell is None else t[j][cell]
            for x, k in ((w0, j), (w1, d - j)):
                if k:
                    # not ``term * x ** k``: on arrays of 256 KiB and more
                    # numpy computes that in the temporary ``x ** k`` with
                    # the factors swapped, and a complex product may round
                    # differently in the other order
                    term = np.multiply(term, x ** k)
            total = term if total is None else total + term
        if total is None:
            return np.zeros_like(w0)
        return total

    def eval_series(self, w) -> LaurentSeries:
        """Evaluate at a pair of Laurent-series homogeneous coordinates."""
        w0, w1 = w
        d, total = self.degree, LaurentSeries.zero()
        for j, c in self.coeffs.items():
            term = c
            for x, k in ((w0, j), (w1, d - j)):
                if k:
                    term = term * x ** k
            total = total + term
        return total

    def emit(self, chart: bool = False) -> str:
        """Text the grammar reads back: the form in w0, w1, or with ``chart``
        the z-chart polynomial ``P(z, 1)``."""
        d, parts = self.degree, []
        for j in sorted(self.coeffs, reverse=True):
            c = self.coeffs[j]
            powers = (("z", j),) if chart else (("w0", j), ("w1", d - j))
            factors = [name if k == 1 else f"{name}^{k}" for name, k in powers if k]
            ctext = str(c)
            if ctext == "1" and factors:
                parts.append("*".join(factors))
                continue
            if not (c.is_monomial() and " " not in ctext and not ctext.startswith("-")):
                ctext = f"({ctext})"
            parts.append("*".join([ctext, *factors]))
        return " + ".join(parts) or "0"

    def __repr__(self):
        return f"<HomogeneousPoly deg={self.degree} {self.emit()}>"


def jacobian_determinant(p0: HomogeneousPoly, p1: HomogeneousPoly) -> HomogeneousPoly:
    """det of the 2x2 matrix of partial derivatives (degree 2d-2)."""
    return (p0.derivative(0) * p1.derivative(1)) - (p0.derivative(1) * p1.derivative(0))


def exact_form(p: HomogeneousPoly) -> list:
    """The form as ``resultant`` takes it, each double read exactly; a
    truncated coefficient has no exact value (PrecisionError)."""
    if p.truncation_order() != _INF:
        raise PrecisionError("a truncated coefficient has no exact resultant")
    return [{Fraction(k, c.ram): _exact(z) for k, z in c.terms.items()}
            for c in p.dehomogenized()]


def _exact(z: complex) -> tuple:
    (a, n), (b, m) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    return a * m, b * n, n * m


def resultant(a: list, b: list) -> LaurentSeries:
    """Res(a, b) of two exact forms of one degree d, as an exact series in t
    whose coefficients are correctly rounded; PrecisionError when a nonzero
    one overflows a double or rounds to zero.  A form is its d + 1 ascending
    coefficients, t-polynomials ``{exponent: (re, im, den)}`` of Gaussian
    rationals ``(re + im i) / den``, as the parser builds them;
    ``exact_form`` reads a form of doubles.

    The forms are scaled to integer polynomials in ``u = t^(1/q)`` and ``i``,
    each packed into an int at ``u = 2**B``, ``i = 2**(B*D)`` (Kronecker
    substitution), and the Sylvester determinant (row k of a form holds its
    coefficients from ``w0**d`` down in columns k..k+d) is found by
    fraction-free Bareiss elimination (Bareiss, Math. Comp. 22, 1968).
    ``2**(B-2)`` bounds every minor's coefficients and D exceeds its degree
    in u, so each pivot test and the unpacking are exact; then ``i**2 = -1``.
    """
    d = len(a) - 1
    q = math.lcm(*(e.denominator for f in (a, b) for p in f for e in p))
    forms, lo, scale, norm, D, imag = [], 0, 1, 1, 1, False
    for f in (a, b):
        low = min((e for p in f for e in p), default=0)
        den = math.lcm(*(c[2] for p in f for c in p.values()))
        terms, size, span = [], 0, 0
        for j, p in enumerate(f):
            for e, (x, y, n) in p.items():
                k, x, y = int((e - low) * q), x * (den // n), y * (den // n)
                terms.append((d - j, k, x, y))  # column d - j: from w0**d down
                size, span, imag = size + abs(x) + abs(y), max(span, k), imag or y != 0
        forms.append(terms)
        lo, scale, norm, D = lo + d * low, scale * den ** d, norm * size ** d, D + d * span
    B = norm.bit_length() + 2
    bits = B * D * (2 * d + 1 if imag else 1)
    if bits > _MAX_BITS:
        raise PrecisionError(f"an exact resultant of {bits} > {_MAX_BITS} bits")
    rows = []
    for terms in forms:
        entries = [0] * (d + 1)
        for i, k, x, y in terms:
            entries[i] += (x + (y << B * D)) << B * k
        rows += [[0] * k + entries + [0] * (d - 1 - k) for k in range(d)]
    x, k, half, parts = _bareiss(rows), 0, 1 << (B - 1), {}
    while x:  # the balanced base-2**B digits: the coefficient of u**e i**m
        c = ((x + half) & ((half << 1) - 1)) - half
        m, e = divmod(k, D)
        z = parts.setdefault(e, [0, 0])
        z[m % 2] += -c if m % 4 > 1 else c
        x, k = (x - c) >> B, k + 1
    try:
        coeffs = {lo + Fraction(e, q): complex(x / scale, y / scale)
                  for e, (x, y) in sorted(parts.items()) if x or y}
    except OverflowError:
        raise PrecisionError("a coefficient of the resultant overflows a double") from None
    if not all(coeffs.values()):
        raise PrecisionError("a coefficient of the resultant underflows a double")
    return LaurentSeries(coeffs)


def _bareiss(rows: list) -> int:
    """Determinant of a square int matrix by fraction-free elimination:
    each entry becomes a minor, so each division by the last pivot is exact."""
    n, sign, prev = len(rows), 1, 1
    for k in range(n - 1):
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:
            return 0
        if p != k:
            rows[k], rows[p], sign = rows[p], rows[k], -sign
        pivot = rows[k]
        for row in rows[k + 1:]:
            row[k + 1:] = [(pivot[k] * x - row[k] * y) // prev
                           for x, y in zip(row[k + 1:], pivot[k + 1:])]
        prev = pivot[k]
    return sign * rows[-1][-1]


def iterate_pair(p0: HomogeneousPoly, p1: HomogeneousPoly, n: int):
    """Homogeneous iterates: returns the pair of sections of the n-th iterate.

    Uses the recursion (next iterate) = (map composed with current iterate):
    each step substitutes ``(w0, w1) -> (cur0, cur1)`` into both sections,
    which share the powers of ``cur0`` and ``cur1``.  Raises PrecisionError
    when truncation is exhausted along the way.
    """
    if n < 1:
        raise LaurentError("iteration count must be >= 1")
    if not p0.coeffs or not p1.coeffs:
        raise LaurentError("composition requires two nonzero sections")
    cur0, cur1 = p0, p1
    for _ in range(n - 1):
        pows0, pows1, composed = {}, {}, []
        for p in (p0, p1):
            total = None
            for a, c in p.coeffs.items():
                b = p.degree - a
                if a not in pows0:
                    pows0[a] = cur0 ** a
                if b not in pows1:
                    pows1[b] = cur1 ** b
                term = pows0[a] * pows1[b] * c
                total = term if total is None else total + term
            composed.append(total)
        cur0, cur1 = composed
        for section in (cur0, cur1):
            if section.is_zero() and section.truncation_order() != _INF:
                raise PrecisionError("iterate truncation underflow: no certain terms left")
    return cur0, cur1

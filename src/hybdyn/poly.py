"""Binary forms with Laurent-series coefficients.

A form of degree d in (w0, w1) keeps a map from the power j of w0 to the
coefficient of ``w0**j * w1**(d - j)``: every family and every section of
a datum lives on P^1.  Forms also compose, which gives the homogeneous
iterates of a family, and two forms have a resultant, a series in t.
"""

from __future__ import annotations

import math

from .errors import LaurentError, ParseError, PrecisionError
from .laurent import LaurentSeries

_INF = math.inf


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


def resultant(p0: HomogeneousPoly, p1: HomogeneousPoly) -> LaurentSeries:
    """Res(p0, p1) of two forms of the same degree d, as a series in t: the
    2d x 2d Sylvester determinant, expanded over subsets of columns.  Row i
    of each form holds its coefficients from ``w0**d`` down in columns
    i..i+d; exact zeros are skipped, so an exact resultant stays exact."""
    d, states = p0.degree, {0: LaurentSeries.one()}
    for p in (p0, p1):
        descending = p.dehomogenized()[::-1]
        for i in range(d):
            new: dict = {}
            for mask, acc in states.items():
                for col, entry in enumerate(descending, i):
                    if mask >> col & 1 or entry.is_exact_zero():
                        continue
                    sign = -1 if bin(mask >> (col + 1)).count("1") % 2 else 1
                    term = acc * entry * sign
                    key = mask | (1 << col)
                    new[key] = new[key] + term if key in new else term
            states = new
    return states.get((1 << 2 * d) - 1, LaurentSeries.zero())


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

"""Homogeneous polynomials with Laurent-series coefficients.

A polynomial keeps a map from exponent vectors to coefficients and supports
any number of variables (sections of data live in w0..wk).  Two-variable
polynomials also compose, which gives the homogeneous iterates of a family.
"""

from __future__ import annotations

import math

from .errors import LaurentError, ParseError, PrecisionError
from .laurent import LaurentSeries

_INF = math.inf


class HomogeneousPoly:
    """Homogeneous polynomial of fixed degree in ``nvars`` variables."""

    __slots__ = ("nvars", "degree", "coeffs", "_chart")  # _chart: dehomogenized()'s list

    def __init__(self, nvars: int, degree: int, coeffs: dict):
        """``coeffs`` maps exponent tuples (length nvars, summing to degree)
        to LaurentSeries.  Exactly-zero series are dropped; zero-to-truncation
        coefficients are kept because they still bound unknown terms."""
        clean = {}
        for exps, c in coeffs.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ParseError(f"bad exponent vector {exps}")
            if sum(exps) != degree:
                raise ParseError(
                    f"monomial {exps} has degree {sum(exps)}, expected {degree}")
            if not isinstance(c, LaurentSeries):
                c = LaurentSeries.const(c)
            if not c.is_exact_zero():
                clean[exps] = c
        object.__setattr__(self, "nvars", nvars)
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

    def dehomogenized(self) -> list:
        """Ascending coefficients of the z-chart polynomial ``P(z, 1)``: a new
        list on each call, copied from one built once."""
        if self._chart is None:
            if self.nvars != 2:
                raise LaurentError("dehomogenization requires two variables")
            out = [LaurentSeries.zero() for _ in range(self.degree + 1)]
            for (a, _), c in self.coeffs.items():
                out[a] = c
            object.__setattr__(self, "_chart", out)
        return list(self._chart)

    # -- algebra -----------------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, float, complex, LaurentSeries)):
            return HomogeneousPoly(self.nvars, self.degree,
                                   {e: c * other for e, c in self.coeffs.items()})
        if self.nvars != other.nvars:
            raise LaurentError("variable-count mismatch")
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                out[e] = out[e] + prod if e in out else prod
        return HomogeneousPoly(self.nvars, self.degree + other.degree, out)

    __rmul__ = __mul__

    def __add__(self, other):
        if self.nvars != other.nvars or self.degree != other.degree:
            raise LaurentError("cannot add polynomials of different shape")
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out[e] + c if e in out else c
        return HomogeneousPoly(self.nvars, self.degree, out)

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        return self + (-other)

    def __pow__(self, n: int):
        if n < 0:
            raise LaurentError("negative polynomial power")
        result = HomogeneousPoly(self.nvars, 0, {(0,) * self.nvars: LaurentSeries.one()})
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
        return (self.nvars, self.degree, self.coeffs) == (other.nvars, other.degree, other.coeffs)

    def __hash__(self):
        return hash((self.nvars, self.degree, tuple(sorted(self.coeffs.items()))))

    def derivative(self, var: int) -> "HomogeneousPoly":
        out: dict = {}
        for e, c in self.coeffs.items():
            if e[var] == 0:
                continue
            ne = list(e)
            ne[var] -= 1
            ne = tuple(ne)
            term = c * float(e[var])
            out[ne] = out[ne] + term if ne in out else term
        return HomogeneousPoly(self.nvars, max(self.degree - 1, 0), out)

    # -- evaluation ----------------------------------------------------------------

    def coefficient_table(self, ts) -> dict:
        """Every coefficient at every parameter of the sequence ``ts``, by
        ``LaurentSeries.eval``: ``{exponent: complex array over ts}``, the
        table ``eval_numeric`` gathers from for a grid of parameters."""
        import numpy as np

        return {e: np.array([c.eval(t) for t in ts], dtype=complex)
                for e, c in self.coeffs.items()}

    def eval_numeric(self, w, t, cell=None):
        """Evaluate at complex homogeneous coordinates.

        ``w`` is a sequence of ``nvars`` scalars or equally-shaped numpy
        arrays; coefficients are specialized at the complex parameter ``t``
        by ``LaurentSeries.eval`` (principal branch for fractional powers).
        With ``cell``, shaped as the coordinates, ``t`` is
        ``coefficient_table(ts)`` for a sequence of parameters ``ts`` and
        point k takes ``ts[cell[k]]``: each coefficient value is gathered
        from the table, and every value is the one-parameter value bit for
        bit.
        """
        import numpy as np  # only complex fibers evaluate numerically

        if len(w) != self.nvars:
            raise LaurentError(f"expected {self.nvars} coordinates, got {len(w)}")
        w = [np.asarray(x, dtype=complex) for x in w]
        total = None
        for e, c in self.coeffs.items():
            if cell is None:
                term = np.full_like(w[0], c.eval(t))
            else:
                term = t[e][cell]
            for x, k in zip(w, e):
                if k:
                    # not ``term * x ** k``: on arrays of 256 KiB and more
                    # numpy computes that in the temporary ``x ** k`` with
                    # the factors swapped, and a complex product may round
                    # differently in the other order
                    term = np.multiply(term, x ** k)
            total = term if total is None else total + term
        if total is None:
            return np.zeros_like(w[0])
        return total

    def eval_series(self, w: list) -> LaurentSeries:
        """Evaluate at Laurent-series homogeneous coordinates."""
        if len(w) != self.nvars:
            raise LaurentError(f"expected {self.nvars} coordinates, got {len(w)}")
        total = LaurentSeries.zero()
        for e, c in self.coeffs.items():
            term = c
            for x, k in zip(w, e):
                if k:
                    term = term * x ** k
            total = total + term
        return total

    def emit(self, varnames: list | None = None) -> str:
        """Textual form parseable by the expression grammar."""
        if varnames is None:
            varnames = [f"w{i}" for i in range(self.nvars)]
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            factors = []
            for name, k in zip(varnames, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            coeff_text = str(c)
            if coeff_text == "1" and factors:
                text = "*".join(factors)
            else:
                if c.is_monomial() and " " not in coeff_text and not coeff_text.startswith("-"):
                    ctext = coeff_text
                else:
                    ctext = f"({coeff_text})"
                text = "*".join([ctext] + factors) if factors else ctext
            parts.append(text)
        return " + ".join(parts)

    def __repr__(self):
        return f"<HomogeneousPoly deg={self.degree} {self.emit()}>"


def jacobian_determinant(p0: HomogeneousPoly, p1: HomogeneousPoly) -> HomogeneousPoly:
    """det of the 2x2 matrix of partial derivatives (degree 2d-2)."""
    return (p0.derivative(0) * p1.derivative(1)) - (p0.derivative(1) * p1.derivative(0))


def iterate_pair(p0: HomogeneousPoly, p1: HomogeneousPoly, n: int):
    """Homogeneous iterates: returns the pair of sections of the n-th iterate.

    Uses the recursion (next iterate) = (map composed with current iterate):
    each step substitutes ``(w0, w1) -> (cur0, cur1)`` into both sections,
    which share the powers of ``cur0`` and ``cur1``.  Raises PrecisionError
    when truncation is exhausted along the way.
    """
    if n < 1:
        raise LaurentError("iteration count must be >= 1")
    if p0.nvars != 2 or p1.nvars != 2 or not p0.coeffs or not p1.coeffs:
        raise LaurentError("composition requires two nonzero two-variable sections")
    cur0, cur1 = p0, p1
    for _ in range(n - 1):
        pows0, pows1, composed = {}, {}, []
        for p in (p0, p1):
            total = None
            for (a, b), c in p.coeffs.items():
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

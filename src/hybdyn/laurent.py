"""Truncated Laurent/Puiseux series over complex coefficients.

A series is a finite collection of terms ``c * t**e`` with exact rational
exponents plus a truncation order: exponents at or above ``trunc`` are
unknown and never stored.  Exponents live on the grid ``(1/ram) * ZZ`` for a
single ramification index ``ram`` per series; binary operations unify the
grids by lcm.  Coefficients are double-precision complex numbers, so only the
exponent arithmetic is exact.

The zero series is the series with no stored terms; its order equals its
truncation order (a sentinel meaning "order >= trunc"), and ``math.inf`` for
an exactly-zero series.

The t-adic norm is normalized by ``|t| = r`` for a caller-chosen radius
``r in (0, 1)``, so norms of series are ``r**order``.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from math import gcd

from .errors import LaurentError, PrecisionError

#: truncation window, in exponent units, used when inverting an exact
#: non-monomial series (whose exact inverse would have infinitely many terms)
DEFAULT_INVERSION_WINDOW = 32

#: cap on Aberth-Ehrlich sweeps; simple roots settle in a few, a cluster
#: about a multiple root may never stop moving at rounding level
_ABERTH_SWEEPS = 64

_INF = math.inf


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


class LaurentSeries:
    """Immutable truncated Laurent/Puiseux series.

    Internally exponents are stored as integers scaled by ``ram``:
    the term dict maps ``k`` to the coefficient of ``t**(k/ram)``.
    ``trunc`` is stored in the same scaled units, or ``None`` for +infinity
    (an exact series, all terms known).
    """

    __slots__ = ("ram", "terms", "trunc")

    def __init__(self, terms, trunc=_INF, ram: int | None = None):
        """Build a series from ``{exponent: coefficient}``.

        Exponents may be ints or Fractions; ``trunc`` is an exponent bound
        (``math.inf`` for an exact series).  Zero coefficients and terms at or
        above the truncation order are dropped.
        """
        exps = {Fraction(e): complex(c) for e, c in terms.items()}
        if ram is None:
            ram = 1
            for e in exps:
                ram = _lcm(ram, e.denominator)
        tr = None
        if trunc is not None and trunc != _INF:
            trunc = Fraction(trunc)
            ram = _lcm(ram, trunc.denominator)
            tr = int(trunc * ram)
        scaled = {}
        for e, c in exps.items():
            if c != 0:
                k = int(e * ram)
                if tr is None or k < tr:
                    scaled[k] = c
        object.__setattr__(self, "ram", ram)
        object.__setattr__(self, "terms", scaled)
        object.__setattr__(self, "trunc", tr)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def _make(cls, ram: int, scaled_terms: dict, scaled_trunc) -> "LaurentSeries":
        """Internal fast constructor from already-scaled data."""
        self = object.__new__(cls)
        if scaled_trunc is None:
            terms = {k: c for k, c in scaled_terms.items() if c != 0}
        else:
            terms = {k: c for k, c in scaled_terms.items() if c != 0 and k < scaled_trunc}
        object.__setattr__(self, "ram", ram)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "trunc", scaled_trunc)
        return self

    @classmethod
    def const(cls, c) -> "LaurentSeries":
        return cls({0: c})

    @classmethod
    def zero(cls, trunc=_INF) -> "LaurentSeries":
        return cls({}, trunc=trunc)

    @classmethod
    def one(cls) -> "LaurentSeries":
        return cls({0: 1.0})

    @classmethod
    def t_power(cls, e=1, coeff=1.0) -> "LaurentSeries":
        return cls({Fraction(e): coeff})

    def __setattr__(self, name, value):
        raise AttributeError("LaurentSeries is immutable")

    # -- basic queries --------------------------------------------------------

    @property
    def trunc_order(self):
        """Truncation order as a Fraction, or ``math.inf`` for exact series."""
        return _INF if self.trunc is None else Fraction(self.trunc, self.ram)

    def is_zero(self) -> bool:
        """True when no terms are stored (zero at least to truncation)."""
        return not self.terms

    def is_exact_zero(self) -> bool:
        return not self.terms and self.trunc is None

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def order(self):
        """Smallest stored exponent; the truncation order for a zero series."""
        if not self.terms:
            return self.trunc_order
        return Fraction(min(self.terms), self.ram)

    def leading(self):
        """(order, coefficient) of the lowest term."""
        if not self.terms:
            raise LaurentError("zero series has no leading term")
        k = min(self.terms)
        return Fraction(k, self.ram), self.terms[k]

    def items(self):
        """Iterate (Fraction exponent, coefficient) in increasing exponent order."""
        for k in sorted(self.terms):
            yield Fraction(k, self.ram), self.terms[k]

    def coefficient(self, e) -> complex:
        e = Fraction(e)
        k = e * self.ram
        if k.denominator != 1:
            return 0.0
        return self.terms.get(int(k), 0.0)

    # -- scaling of the exponent grid -----------------------------------------

    def _rescaled(self, ram: int) -> "LaurentSeries":
        """Same series on a finer grid; ``ram`` must be a multiple of self.ram."""
        if ram == self.ram:
            return self
        f = ram // self.ram
        terms = {k * f: c for k, c in self.terms.items()}
        tr = None if self.trunc is None else self.trunc * f
        return LaurentSeries._make(ram, terms, tr)

    @staticmethod
    def _common(a: "LaurentSeries", b: "LaurentSeries"):
        ram = _lcm(a.ram, b.ram)
        return a._rescaled(ram), b._rescaled(ram), ram

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
            other = LaurentSeries.const(other)
        a, b, ram = LaurentSeries._common(self, other)
        if a.trunc is None:
            tr = b.trunc
        elif b.trunc is None:
            tr = a.trunc
        else:
            tr = min(a.trunc, b.trunc)
        terms = dict(a.terms)
        for k, c in b.terms.items():
            terms[k] = terms.get(k, 0.0) + c
        return LaurentSeries._make(ram, terms, tr)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries._make(self.ram, {k: -c for k, c in self.terms.items()}, self.trunc)

    def __sub__(self, other):
        if not isinstance(other, LaurentSeries):
            other = LaurentSeries.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return LaurentSeries.const(other) + (-self)

    def __mul__(self, other, below=None):
        """Product; with an exponent ``below``, ``(self * other).truncate(below)``
        without forming the terms at or above ``below``."""
        if not isinstance(other, LaurentSeries):
            c = complex(other)
            return LaurentSeries._make(self.ram, {k: v * c for k, v in self.terms.items()}, self.trunc)
        a, b, ram = LaurentSeries._common(self, other)
        if below is not None and ram % below.denominator:
            ram = _lcm(ram, below.denominator)
            a, b = a._rescaled(ram), b._rescaled(ram)
        # tightest valid truncation of a Cauchy product:
        # min(ord(a) + trunc(b), ord(b) + trunc(a)); ord of a zero series is
        # its truncation order, which keeps the bookkeeping honest for 0 * f.
        tr = None
        if a.trunc is not None or b.trunc is not None:
            orda = min(a.terms) if a.terms else a.trunc
            ordb = min(b.terms) if b.terms else b.trunc
            cands = []
            if b.trunc is not None and orda is not None:
                cands.append(orda + b.trunc)
            if a.trunc is not None and ordb is not None:
                cands.append(ordb + a.trunc)
            tr = min(cands) if cands else None
        if below is not None:
            cap = below.numerator * (ram // below.denominator)
            tr = cap if tr is None else min(tr, cap)
        terms: dict = {}
        for k1, c1 in a.terms.items():
            for k2, c2 in b.terms.items():
                k = k1 + k2
                if tr is None or k < tr:
                    terms[k] = terms.get(k, 0.0) + c1 * c2
        return LaurentSeries._make(ram, terms, tr)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise LaurentError("series powers must be integers")
        if n < 0:
            return self.inverse() ** (-n)
        result = LaurentSeries.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def shift(self, e) -> "LaurentSeries":
        """Multiply by ``t**e`` (exact exponent shift)."""
        e = Fraction(e)
        ram = _lcm(self.ram, e.denominator)
        s = self._rescaled(ram)
        k0 = int(e * ram)
        terms = {k + k0: c for k, c in s.terms.items()}
        tr = None if s.trunc is None else s.trunc + k0
        return LaurentSeries._make(ram, terms, tr)

    def truncate(self, trunc) -> "LaurentSeries":
        """Drop terms with exponent >= trunc and record the new truncation."""
        trunc = Fraction(trunc)
        ram = _lcm(self.ram, trunc.denominator)
        s = self._rescaled(ram)
        tr = int(trunc * ram)
        if s.trunc is not None:
            tr = min(tr, s.trunc)
        return LaurentSeries._make(ram, s.terms, tr)

    def inverse(self, window: int = DEFAULT_INVERSION_WINDOW) -> "LaurentSeries":
        """Multiplicative inverse.

        Exact (and infinite-precision) for monomials.  Otherwise the inverse
        is a genuinely infinite series and is truncated: to the honest bound
        ``trunc - 2*ord`` for a truncated input, or to ``-ord + window`` for
        an exact input.
        """
        if not self.terms:
            raise LaurentError("cannot invert a series that is zero to truncation")
        m, lead = self.leading()
        if self.is_monomial():
            out = LaurentSeries.t_power(-m, 1.0 / lead)
            if self.trunc is not None:
                out = out.truncate(self.trunc_order - 2 * m)
            return out
        if self.trunc is not None:
            target = self.trunc_order - 2 * m
        else:
            target = -m + window
        # self = lead * t^m * (1 + u) with ord(u) > 0; the exponent-0 term
        # of shift / lead is 1 by construction and is dropped, not
        # subtracted, since lead * (1 / lead) need not round to 1
        shifted, inv_lead = self.shift(-m), 1.0 / lead
        u = LaurentSeries._make(shifted.ram, {k: c * inv_lead for k, c in shifted.terms.items()
                                              if k != 0}, shifted.trunc).truncate(target + m)
        inv_unit = LaurentSeries.one()
        power = LaurentSeries.one()
        # geometric series sum_{k} (-u)^k, truncated
        ord_u = u.order()
        k_max = int(math.ceil(float((target + m) / ord_u))) + 1
        for _ in range(k_max):
            power = power.__mul__(-u, below=target + m)
            if power.is_zero():
                break
            inv_unit = inv_unit + power
        out = inv_unit.shift(-m) * (1.0 / lead)
        return out.truncate(target)

    def __truediv__(self, other):
        if not isinstance(other, LaurentSeries):
            return self * (1.0 / complex(other))
        return self * other.inverse()

    # -- comparisons ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            if isinstance(other, (int, float, complex)):
                other = LaurentSeries.const(other)
            else:
                return NotImplemented
        a, b, _ = LaurentSeries._common(self, other)
        return a.terms == b.terms and a.trunc == b.trunc

    def __hash__(self):
        # hash on the coarsest grid holding every exponent, so equal series
        # stored on different grids hash equally
        f = gcd(*self.terms, self.trunc or 0, self.ram)
        return hash((tuple(sorted((k // f, c) for k, c in self.terms.items())),
                     None if self.trunc is None else self.trunc // f, self.ram // f))

    # -- evaluation and norms -----------------------------------------------------

    def uniformizer(self, t: complex) -> complex:
        """The principal root ``x = t ** (1/ram)``; the series is ``sum c_k x**k``."""
        return t if self.ram == 1 else t ** (1.0 / self.ram)

    def eval(self, t: complex) -> complex:
        """Evaluate at a complex number ``t``.

        Fractional powers of ``t`` take the principal branch, ``x =
        uniformizer(t)``.  Principal roots compose (``(t^(1/6))^3`` is the
        principal ``t^(1/2)``), so series of any ramifications evaluated at one
        ``t`` share one branch.  At ``t == 0`` only a series whose stored
        exponents are all positive (value 0) or a constant can be evaluated.
        """
        t = complex(t)
        if t == 0:
            if not self.terms:
                return 0.0
            if self.order() < 0:
                raise LaurentError("evaluation at t = 0 with negative order")
            return self.terms.get(0, 0.0)
        x = self.uniformizer(t)
        return sum(c * x ** k for k, c in self.terms.items())

    def norm(self, r: float) -> float:
        """t-adic norm ``r**order`` (0 for a zero series); requires 0 < r < 1."""
        if not 0.0 < r < 1.0:
            raise LaurentError("radius must lie in (0, 1)")
        if not self.terms:
            return 0.0
        return r ** float(self.order())

    # -- textual form ------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.items():
            parts.append(_format_term(e, c))
        out = parts[0]
        for p in parts[1:]:
            if p.startswith("-"):
                out += " - " + p[1:]
            else:
                out += " + " + p
        return out

    def __repr__(self):
        tr = "" if self.trunc is None else f" + O(t^{self.trunc_order})"
        return f"<LaurentSeries {self}{tr}>"

    @staticmethod
    def parse(text: str) -> "LaurentSeries":
        """Parse the textual form, e.g. ``"3*t^-1 + (1+2i)*t^2"``."""
        from .parser import parse_series  # deferred: parser imports this module

        return parse_series(text)


def _format_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _format_coeff(c: complex) -> str:
    if c.imag == 0:
        return _format_real(c.real)
    if c.real == 0:
        return f"{_format_real(c.imag)}i"
    im = _format_real(abs(c.imag)) + "i"
    sign = "+" if c.imag > 0 else "-"
    return f"({_format_real(c.real)}{sign}{im})"


def _format_exp(e: Fraction) -> str:
    if e.denominator == 1:
        return f"t^{e.numerator}" if e != 1 else "t"
    return f"t^({e.numerator}/{e.denominator})"


def _format_term(e: Fraction, c: complex) -> str:
    if e == 0:
        s = _format_coeff(c)
        return s if not s.endswith("i") or s.startswith("(") else f"({s})"
    tpart = _format_exp(e)
    if c == 1:
        return tpart
    if c == -1:
        return "-" + tpart
    s = _format_coeff(c)
    if s.endswith("i") and not s.startswith("("):
        s = f"({s})"
    return f"{s}*{tpart}"


def taylor_shift(coeffs: list, center: LaurentSeries) -> list:
    """Taylor coefficients of ``f(center + u)`` given those of ``f(w)``.

    ``coeffs`` is ascending in the variable.  Classical Horner/synthetic
    division scheme; exact in the exponents.
    """
    if center.is_exact_zero():
        return list(coeffs)
    n = len(coeffs)
    work = list(coeffs)
    for k in range(n - 1):
        for i in range(n - 2, k - 1, -1):
            work[i] = work[i] + center * work[i + 1]
    return work


def _horner(coeffs: list, y: complex) -> tuple:
    """``p(y)`` and ``p'(y)`` for the ascending coefficients of ``p``."""
    p = dp = 0j
    for c in reversed(coeffs):
        dp = dp * y + p
        p = p * y + c
    return p, dp


def _edge_roots(edge_coeffs: list) -> list:
    """The k roots, with multiplicity, of ``sum_j edge_coeffs[j] * y**j``,
    a Newton-edge polynomial whose end coefficients are nonzero.

    The roots of the end binomial ``c_0 + c_k * y**k`` come first, by
    increasing argument from the principal k-th root of ``-c_0 / c_k``.  They
    are the roots when the edge has no middle terms.  Otherwise they are the
    start of an Aberth-Ehrlich iteration (Bini and Fiorentino, Numer.
    Algorithms 23, 2000), each sweep updating the roots in place.

    The iteration leaves an m-fold root as m approximations about eps**(1/m)
    apart.  Approximation y_i gets the inclusion disc of radius
    ``k * |p(y_i)| / (|c_k| * prod_{j != i} |y_i - y_j|)``, where a connected
    group of m overlapping discs holds m roots (the same paper); ``|p(y_i)|``
    is widened by its rounding level ``eps * sum_j |c_j| |y_i|**j``.  Such a
    group is taken as one root of multiplicity m.  That root is a simple
    root of the (m-1)-th derivative, which Newton steps from the group's
    mean find to full precision.
    """
    k = len(edge_coeffs) - 1
    w = -complex(edge_coeffs[0]) / complex(edge_coeffs[-1])
    if k == 1:
        return [w]
    rho, theta = abs(w) ** (1.0 / k), cmath.phase(w) / k
    ys = [cmath.rect(rho, theta + 2.0 * math.pi * m / k) for m in range(k)]
    if not any(edge_coeffs[1:-1]):
        return ys
    for _ in range(_ABERTH_SWEEPS):
        moved = False
        for i, y in enumerate(ys):
            p, dp = _horner(edge_coeffs, y)
            den = dp - p * sum(1.0 / (y - z) for z in ys if z != y)
            if p == 0 or den == 0:
                continue
            step = p / den
            ys[i] = y - step
            moved = moved or abs(step) > 1e-15 * abs(y)
        if not moved:
            break
    groups = []  # connected groups of (approximation, inclusion radius)
    for y in ys:
        p, _ = _horner(edge_coeffs, y)
        noise = math.ulp(1.0) * sum(abs(c) * abs(y) ** j for j, c in enumerate(edge_coeffs))
        gap = abs(edge_coeffs[-1]) * math.prod(abs(y - z) for z in ys if z != y)
        radius = k * (abs(p) + noise) / gap if gap else math.inf
        near = [g for g in groups if any(abs(y - z) <= radius + r for z, r in g)]
        groups = [g for g in groups if all(g is not n for n in near)]
        groups.append([(y, radius)] + [disc for g in near for disc in g])
    roots = []
    for group in groups:
        mult = len(group)
        deriv = edge_coeffs
        for _ in range(mult - 1):
            deriv = [j * c for j, c in enumerate(deriv)][1:]
        roots += [_polish_root(sum(y for y, _ in group) / mult, deriv)] * mult
    return roots


def _polish_root(y: complex, edge_coeffs: list) -> complex:
    """A few Newton steps on the edge polynomial; lands exactly on roots that
    are representable floats (e.g. rational edge roots)."""
    for _ in range(3):
        f = 0j
        df = 0j
        for j, c in enumerate(edge_coeffs):
            if c == 0:
                continue
            f += c * y ** j
            if j:
                df += j * c * y ** (j - 1)
        if f == 0 or df == 0:
            break
        y = y - f / df
    return y


def _denoise(series: LaurentSeries, floor: float) -> LaurentSeries:
    """Drop terms with |coefficient| <= floor (root-expansion noise floor)."""
    if not series.terms or floor <= 0:
        return series
    kept = {e: c for e, c in series.items() if abs(c) > floor}
    if len(kept) == len(series.terms):
        return series
    return LaurentSeries(kept, trunc=series.trunc_order)


def _cluster_roots(ys, rel: float = 1e-7):
    """Group nearly-equal complex roots into (mean, multiplicity) clusters.

    Double precision splits an m-fold root into a cluster of radius about
    eps**(1/m); the mean restores most of the lost accuracy.
    """
    remaining = list(ys)
    clusters = []
    while remaining:
        y0 = remaining.pop(0)
        group = [y0]
        tol = rel * max(1.0, abs(y0))
        rest = []
        for y in remaining:
            if abs(y - y0) <= tol:
                group.append(y)
            else:
                rest.append(y)
        remaining = rest
        clusters.append((sum(group) / len(group), len(group)))
    return clusters


def newton_puiseux(coeffs: list, target: Fraction) -> list:
    """Puiseux expansions of the roots of a one-variable polynomial.

    ``coeffs`` are LaurentSeries, ascending in the variable.  Returns a list
    of LaurentSeries roots (with multiplicity), each truncated at exponent
    ``target``.  Each Newton edge's residue polynomial is solved in plain
    complex arithmetic by ``_edge_roots``: from the roots of its end binomial
    ``c_0 + c_k * y**k``, exact for an edge without middle terms, and by an
    Aberth-Ehrlich iteration otherwise.  So the roots and their order do not
    depend on a LAPACK build.  Only simple residue roots get Newton steps on
    the edge polynomial; ``_edge_roots`` refines a multiple one on a
    derivative.  Exact roots are detected and returned with infinite
    precision when the residual vanishes.
    """
    target = Fraction(target)
    roots: list = []

    def expand(cs: list, acc: LaurentSeries, budget: int, min_mu):
        if budget <= 0:
            roots.append(acc.truncate(target))
            return
        while cs and cs[-1].is_exact_zero():
            cs = cs[:-1]
        if len(cs) <= 1:
            return
        n_zero = 0
        while n_zero < len(cs) - 1 and cs[n_zero].is_exact_zero():
            n_zero += 1
        roots.extend([acc] * n_zero)  # exact roots ending at acc
        cs = cs[n_zero:]
        if len(cs) <= 1:
            return
        if cs[0].is_zero():
            raise PrecisionError("constant term is zero only to truncation")
        # Newton polygon: lower convex hull of (j, ord(c_j)), walked left to right
        pts = [(j, c.order()) for j, c in enumerate(cs) if not c.is_zero()]
        unknown = [(j, c.trunc_order) for j, c in enumerate(cs)
                   if c.is_zero() and not c.is_exact_zero()]
        hull = []
        cur = pts[0]
        rest = pts[1:]
        while rest:
            best = None
            for (j, v) in rest:
                slope = Fraction(Fraction(v) - Fraction(cur[1]), j - cur[0])
                if best is None or slope < best[0] or (slope == best[0] and j > best[1][0]):
                    best = (slope, (j, v))
            hull.append((cur, best[1], best[0]))
            rest = [(j, v) for (j, v) in rest if j > best[1][0]]
            cur = best[1]
        for (j, t_j) in unknown:
            for (ja, va), (jb, vb), slope in hull:
                if ja <= j <= jb and t_j < Fraction(va) + slope * (j - ja):
                    raise PrecisionError(
                        "truncated coefficient could lie below the Newton polygon")
        for (ja, va), (jb, vb), slope in hull:
            mu = -slope  # order of the roots attached to this edge
            if mu <= min_mu:
                # refinements must have strictly increasing exponents;
                # shallower slopes belong to branches found at earlier levels
                continue
            if mu >= target:
                roots.extend([acc.truncate(target)] * (jb - ja))
                continue
            edge_coeffs = []
            for j in range(ja, jb + 1):
                c = cs[j]
                want = Fraction(va) + slope * (j - ja)
                if not c.is_zero() and c.order() == want:
                    edge_coeffs.append(c.leading()[1])
                else:
                    edge_coeffs.append(0.0)
            level_scale = max((abs(v) for c in cs for v in c.terms.values()),
                              default=1.0)
            for y, mult in _cluster_roots(_edge_roots(edge_coeffs)):
                if mult == 1:  # Newton on p is ill-posed at a multiple root
                    y = _polish_root(y, edge_coeffs)
                head = LaurentSeries.t_power(mu, y)
                new_acc = acc + head
                shifted = taylor_shift(cs, head)
                # cancellation residue of the recentering is treated as zero
                # below a relative noise floor (double-precision coefficients
                # cannot certify anything smaller anyway)
                floor = 1e-10 * level_scale * max(1.0, abs(y)) ** len(cs)
                shifted = [_denoise(c, floor) for c in shifted]
                if shifted[0].is_exact_zero() and mult == 1:
                    roots.append(new_acc)  # exact root, full precision
                    continue
                expand(shifted, new_acc, budget - 1, mu)

    # each level deepens the expansion; generous cap tied to the target order
    depth = max(4, int(2 * target) + 8)
    expand(list(coeffs), LaurentSeries.zero(), depth, Fraction(-10 ** 9))
    return roots

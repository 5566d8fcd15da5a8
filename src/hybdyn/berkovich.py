"""Type-II points of the Berkovich line over Laurent series, disk seminorms,
the dynamical Green potential, the tree Monge-Ampere measure, and the
non-Archimedean Lyapunov exponent (all for one-dimensional dynamics).

Conventions
-----------
* The t-adic norm is normalized by ``|t| = r`` with a caller-chosen
  ``r in (0, 1)``.  Seminorm computations return exact rational *exponents*
  ``q`` with value ``r**q``; real values are ``q * log(r)`` in natural logs.
* A type-II point is the sup-seminorm of a closed disk ``D(a, r**s)`` of
  the z-chart; one chart describes them all.  A point is built from and
  stored as its reduced z-chart disk, on which every computation runs; the
  Gauss point is ``D(0, 1)``.  The chart form (``z`` or ``1/z``, center of
  norm <= 1) is derived by ``chart_forms`` only to print records.
* ``_newton_min`` over a Taylor shift is the one seminorm core:
  ``homog_seminorm`` is its entry for binary forms, and the Green walk
  (``_orbit_step``) reads it off the shifts that also map the disk.
* Edge lengths on the tree are differences of radius exponents (the
  hyperbolic metric in units of ``log(1/r)``); the Monge-Ampere of a
  potential is the sum of outgoing slopes plus a unit Dirac mass at the
  Gauss point, which pins the sign convention through the base case
  (zero potential gives the Dirac mass at the Gauss point).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter

from .errors import (ChartError, ConventionError, DegenerateFamilyError,
                     LaurentError, PrecisionError)
from .laurent import LaurentSeries, newton_puiseux, taylor_shift
from .poly import HomogeneousPoly, jacobian_determinant, iterate_pair

_INF = math.inf


def _as_series(x) -> LaurentSeries:
    if isinstance(x, LaurentSeries):
        return x
    return LaurentSeries.const(x)


def _as_frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class TypeIPoint:
    """Classical point given by Laurent (or Puiseux) homogeneous coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(_as_series(c) for c in coords)
        if len(coords) != 2:
            raise ChartError(f"a point of P^1 has two homogeneous coordinates, got {len(coords)}")
        if all(c.is_zero() for c in coords):
            raise ChartError("type-I point needs a nonzero coordinate vector")
        self.coords = coords

    def __repr__(self):
        return "<TypeIPoint [" + " : ".join(str(c) for c in self.coords) + "]>"


class TypeIIPoint:
    """Disk point ``D(center, r**s)`` of the z-chart, stored reduced.

    Every type-II point is such a disk: a center of negative order or a
    negative radius exponent reaches the points near infinity.  Divisorial
    points (order of vanishing along a component divided by the
    multiplicity of t) are exactly the points with rational ``s``; the pair
    (order, multiplicity) is carried by the single Fraction ``s``.
    """

    __slots__ = ("_zpair",)

    def __init__(self, center, s):
        self._zpair = _reduce_center(_as_series(center), _as_frac(s))

    @classmethod
    def gauss(cls) -> "TypeIIPoint":
        return cls(LaurentSeries.zero(), 0)

    def is_gauss(self) -> bool:
        a, s = self._zpair
        return s == 0 and a.is_exact_zero()

    def zpair(self):
        """(center, radius exponent) of the point as a z-chart disk."""
        return self._zpair

    def chart_form(self):
        """(chart, center, s): the disk in the chart where its center has
        norm <= 1, re-centered at 0 when it contains the chart origin
        (``chart_forms`` of this one point)."""
        return chart_forms([self])[0]

    def __eq__(self, other):
        if not isinstance(other, TypeIIPoint):
            return NotImplemented
        return _same_disk(self._zpair, other._zpair)

    def __hash__(self):
        return hash(self._zpair[1])  # equality needs series comparison; hash on radius only

    def __repr__(self):
        chart, center, s = self.chart_form()
        return f"<TypeIIPoint chart={chart} D({center}, r^{s})>"


def chart_forms(points) -> list:
    """``chart_form()`` of each point.  A center beyond the unit disk is
    inverted once for all the points that share it, at the window its
    largest radius needs, and the inverse is reduced per radius; terms of an
    inverse below a given exponent do not depend on the window."""
    forms = [None] * len(points)
    far = {}  # z-chart center of norm > 1 -> indices of its points
    for i, p in enumerate(points):
        a, s = p.zpair()
        low = min(a.terms) if a.terms else a.trunc  # ord a on a's grid, None: inf
        if low is None or low * s.denominator >= s.numerator * a.ram:
            forms[i] = ("z", a, s) if s >= 0 else ("1/z", a, -s)
        elif low >= 0:
            forms[i] = ("z", a, s)
        else:
            far.setdefault(a, []).append(i)
    for a, group in far.items():
        radii = [points[i].zpair()[1] for i in group]
        c, _ = _invert_center(a, max(radii))
        shift = 2 * a.order()
        for i, s in zip(group, radii):
            forms[i] = ("1/z", *_reduce_center(c, s - shift))
    return forms


def _ord_at_least(diff: LaurentSeries, s) -> bool:
    """Whether ord(diff) >= s: two centers differing by ``diff`` lie in one
    disk of radius r**s.  Raises PrecisionError when ``diff`` is zero only to a
    truncation order below s, so the known terms cannot decide."""
    if not diff.is_zero():
        return diff.order() >= s
    if diff.trunc_order >= s:
        return True
    raise PrecisionError("disk containment undecidable at the available precision")


def _same_disk(zp, zq) -> bool:
    """Whether two z-chart disks are equal."""
    (a, s), (b, u) = zp, zq
    return s == u and _ord_at_least(a - b, s)


def _reduce_center(a: LaurentSeries, s: Fraction):
    """Drop center terms with exponent >= s (they do not move the disk).

    When the input is known at least up to exponent s the reduced center is an
    exact representative of the point, and ``LaurentSeries.zero()`` when no
    term is left, whatever the input's ramification; otherwise the
    truncation is kept so later comparisons stay honest.
    """
    exact_enough = a.trunc is None or a.trunc * s.denominator >= s.numerator * a.ram
    bound = -(-s.numerator * a.ram // s.denominator)  # ceil(s) on a's grid
    kept = {k: a.terms[k] for k in sorted(a.terms) if k < bound}
    if exact_enough and not kept:
        return LaurentSeries.zero(), s
    return LaurentSeries._make(a.ram, kept, None if exact_enough else a.trunc), s


def _invert_center(a: LaurentSeries, s: Fraction):
    """z-chart disk with |center| > 1 as a 1/z-chart disk (via inversion)."""
    alpha = a.order()
    su = s - 2 * alpha
    window = int(math.ceil(float(su - alpha))) + 4
    c = a.inverse(window=max(window, 8))
    return c, su


# -- seminorms -------------------------------------------------------------------


def _newton_min(shifted, s):
    """min over j of ord(shifted[j]) + j*s for Taylor coefficients at a disk
    center (``math.inf`` when all vanish).  Raises PrecisionError when a
    coefficient that is zero only to truncation could lower the minimum.
    ``s`` is an int or a Fraction; the minimum is taken on a common grid."""
    n = math.lcm(s.denominator, *(c.ram for c in shifted))
    step = s.numerator * (n // s.denominator)
    best = hidden = _INF
    for j, c in enumerate(shifted):
        if c.terms:
            best = min(best, min(c.terms) * (n // c.ram) + j * step)
        elif c.trunc is not None:
            hidden = min(hidden, c.trunc * (n // c.ram) + j * step)
    if hidden < best:
        raise PrecisionError("truncated coefficient could dominate the disk seminorm")
    return _INF if best == _INF else Fraction(best, n)


def homog_seminorm(P: HomogeneousPoly, xi):
    """Exponent of |P| / max(|w0|, |w1|)**d at a point.

    ``xi`` is a TypeIIPoint or a raw z-chart disk ``(center, s)``; the value
    is computed on the z-chart disk, which is valid for any center and radius
    (disks of the affine line never contain the point at infinity).
    """
    a, s = xi.zpair() if isinstance(xi, TypeIIPoint) else xi
    q = _newton_min(taylor_shift(P.dehomogenized(), a), s)
    if q == _INF:
        return _INF
    return q - P.degree * min(Fraction(0), a.order(), s)


def _section_exponent(sections, xi):
    """Min over binary forms of ``homog_seminorm`` at ``xi``: the
    exponent of ``max_i |s_i| / max(|w0|, |w1|)**d`` (``math.inf`` when every
    section vanishes; each caller decides what that means)."""
    return min(homog_seminorm(s, xi) for s in sections)


# -- resultant --------------------------------------------------------------------


def resultant_valuation(R) -> Fraction:
    """t-adic order of the resultant of (P0, P1); finite for genuine families.

    After unit-normalizing the family lift (dividing out the minimal
    coefficient order), a zero value detects good reduction at the Gauss
    point.  An identically-zero resultant raises DegenerateFamilyError.
    """
    det = R.resultant
    if det.is_zero():
        raise DegenerateFamilyError(
            f"resultant of {getattr(R, 'label', '?')!r} vanishes identically")
    return det.order()


def good_reduction_exponent(R) -> Fraction:
    """ord(Res) - 2d * (minimal coefficient order): zero iff good reduction."""
    return resultant_valuation(R) - 2 * R.degree * R.min_coeff_order()


# -- dynamical Green potential ------------------------------------------------------


def _escape_region(R):
    """(E, c) for a polynomial family, from the coefficient orders of its lift
    ``P0 = sum_j A_j w0**j w1**(d-j)``, ``P1 = B w1**d``; None when ``A_d`` is
    zero to truncation.

    On every z-chart disk ``(a, s)`` with ``m = min(ord a, s) < E``, where

        E = min(0, (ord B - ord A_d) / (d - 1), (ord A_j - ord A_d) / (d - j) for j < d),

    the term ``A_d z**d`` strictly dominates P0, dominates P1 and |z| > 1,
    so the one-step exponent is ``c = ord A_d``; the image disk has
    ``m' = ord(A_d / B) + d*m < E``.  The orbit sum from such a disk is
    therefore ``c / (d - 1)`` exactly.  A coefficient zero only to truncation
    enters with its truncation order, a lower bound for its order.
    """
    d = R.degree
    a = R.p0.dehomogenized()
    if a[d].is_zero():
        return None
    c = a[d].order()
    bounds = [Fraction(0), (R.p1.coeffs[0].order() - c) / (d - 1)]
    bounds += [(aj.order() - c) / (d - j) for j, aj in enumerate(a[:d])
               if not aj.is_exact_zero()]
    return min(bounds), c


def _escaped(zpair, e) -> bool:
    """Whether the z-chart disk lies in the escape region ``m < e``.  A center
    zero only to truncation is not trusted; its disk escapes when s < e."""
    a, s = zpair
    return (s.numerator * e.denominator < e.numerator * s.denominator
            or bool(a.terms) and min(a.terms) * e.denominator < e.numerator * a.ram)


# |log| bound on an orbit step's magnitudes: normal floats span e**-708..e**709
_FLOAT_LOG = 690.0


def _in_float_range(a: LaurentSeries, d: int) -> bool:
    """Whether the d-th power of every coefficient of the center ``a``, as a
    Taylor shift of a degree-d map forms it, is finite and normal; past that
    a term overflows or underflows to 0, and orders come out wrong."""
    return all(abs(math.log(abs(c))) * d < _FLOAT_LOG for _, c in a.items())


def _center_key(a: LaurentSeries) -> tuple:
    """Everything a Taylor shift reads of a center: its grid, truncation and
    stored terms in stored order (which fixes the order of the float sums),
    coefficients bit for bit (``float.hex`` keeps the two zeros apart)."""
    return (a.ram, a.trunc, tuple((k, c.real.hex(), c.imag.hex()) for k, c in a.terms.items()))


def _disk_key(zpair) -> tuple:
    """Everything ``_orbit_step`` reads of a z-chart disk: its center's
    ``_center_key`` and its radius."""
    a, s = zpair
    return _center_key(a), s


class GreenEvaluator:
    """Canonical-metric Green potential of a degree-d family, evaluated at
    type-II points by a forward-orbit walk.

    The n-th approximant is ``q_n * log(r)`` with ``q_n`` the orbit partial
    sum ``sum_{k<n} d**-(k+1) * g1(R^k xi)``, g1 the one-step section
    exponent; it equals ``d**-n`` times the section exponent of the n-th
    homogeneous iterate (``iterate_exponents``) without building that
    degree-``d**n`` iterate.  An orbit step Taylor-shifts P and Q once
    (``_orbit_step``), which gives both g1 and the image disk; a polynomial
    family reads its shifts from its table (``affine_shift``).  The
    evaluator keeps a table from each disk it has stepped to its (reduced
    image, g1), so each distinct disk that some orbit visits costs one step
    per evaluator and later visits, by any vertex, are table reads; a step
    that raises is not stored.  A uniform bound C on |g1| certifies the
    tail: the evaluator stops at the first n with
    ``C * d**-n / (1 - 1/d) < tol``, or at ``n_max`` with the achieved bound
    reported.

    For polynomial families the walk is closed exactly once the orbit enters
    the escape region (``_escape_region``): at the first orbit point
    ``k <= n_star`` there, ``exponent`` returns the partial sum plus
    ``c / (d**k * (d - 1))`` with bound 0.0.  An orbit that does not enter it
    by ``n_star``, and every rational family, get the partial sum at
    ``n_star`` and the tail bound above.  ``escape`` holds ``(E, c)`` for
    polynomial families and None otherwise.  The walk stops early at a
    center it cannot step from in floating point (``_in_float_range``) and
    reports the k steps taken with the tail bound at k.
    """

    def __init__(self, R, r: float, n_max: int = 12, tol: float = 1e-3):
        if not 0.0 < r < 1.0:
            raise LaurentError("radius must lie in (0, 1)")
        self.R = R
        self.tol = tol
        d = R.degree
        ordmin = R.min_coeff_order()
        ordres = resultant_valuation(R)
        upper = ordres - (2 * d - 1) * ordmin  # one-step seminorm exponent range
        self.c_exponent = max(abs(ordmin), abs(upper))
        self.c_constant = float(self.c_exponent) * abs(math.log(r))
        n = 0
        while n < n_max and self._tail_bound(n) >= tol:
            n += 1
        self.n_star = n
        # the affine map P/Q that moves disks along the orbit; a polynomial
        # family steps with P/B, so ord B is added back to g1
        if R.is_polynomial():
            self._num, self._den = R.affine_shift, None
            self._ord_b = R.p1.coeffs[0].order()
            self.escape = _escape_region(R)
        else:
            self._num, self._den = R.p0.dehomogenized(), R.p1.dehomogenized()
            self._ord_b = Fraction(0)
            self.escape = None
        self._steps = {}  # _disk_key(disk) -> (reduced image disk, g1)

    def _tail_bound(self, n: int) -> float:
        d = self.R.degree
        return self.c_constant * d ** float(-n) / (1.0 - 1.0 / d)

    def approximant_exponent(self, xi: TypeIIPoint, n: int) -> Fraction:
        """q with n-th approximant = q * log(r) (exact): the orbit partial
        sum of n terms.  Raises PrecisionError when the orbit leaves the
        float range first."""
        q, k, _ = self._orbit_exponent(xi.zpair(), n, None)
        if k < n:
            raise PrecisionError(f"orbit center leaves the float range after {k} steps")
        return q

    def _orbit_exponent(self, zpair, n: int, escape):
        """(q, k, exact): the partial sum of the first k orbit terms, k = n
        unless the walk stops early, or with ``escape = (E, c)`` the whole
        sum once the orbit enters the region at step k <= n."""
        d = self.R.degree
        # d**k times the partial sum is num / den (Horner in integers)
        num, den, cur, k = 0, 1, zpair, 0
        while escape is None or not _escaped(cur, escape[0]):
            if k == n or not _in_float_range(cur[0], d):
                return Fraction(num, den * d ** k), k, False
            key = _disk_key(cur)
            step = self._steps.get(key)
            if step is None:
                image, m = _orbit_step(self._num, cur, self._den)
                g1 = m + self._ord_b - d * min(Fraction(0), cur[0].order(), cur[1])
                step = self._steps[key] = (_reduce_center(*image), g1)
            cur, g1 = step
            grid = math.lcm(den, g1.denominator)
            num = num * d * (grid // den) + g1.numerator * (grid // g1.denominator)
            den = grid
            k += 1
        c = escape[1]
        return Fraction(num * (d - 1) * c.denominator + c.numerator * den,
                        den * d ** k * (d - 1) * c.denominator), k, True

    def exponent(self, xi: TypeIIPoint):
        """(exact exponent, float error bound): the bound is 0.0 where the
        orbit closes in the escape region, the tail bound after the steps
        taken (``n_star`` unless the walk stops early) otherwise."""
        q, k, exact = self._orbit_exponent(xi.zpair(), self.n_star, self.escape)
        return q, 0.0 if exact else self._tail_bound(k)


def iterate_exponents(R, points, n: int) -> list:
    """Symbolic reference for ``GreenEvaluator.approximant_exponent`` at each
    point: ``d**-n`` times the section exponent of the n-th homogeneous
    iterate.  The iterate has degree ``d**n`` and is built once per call, so
    this is for small n only."""
    if n == 0:
        return [Fraction(0)] * len(points)  # the identity datum (w0, w1)
    sections = iterate_pair(R.p0, R.p1, n)
    out = []
    for xi in points:
        e = _section_exponent(sections, xi)
        if e == _INF:
            raise DegenerateFamilyError("all iterate sections vanish at the point")
        out.append(Fraction(e) / R.degree ** n)
    return out


# -- finite subtrees and the tree measure -------------------------------------------


class BerkTree:
    """Finite subtree of the Berkovich line spanned by type-II points.

    ``vertices`` are type-II points (the Gauss point always included),
    ``edges`` are (i, j, length) with exact Fraction lengths equal to the
    radius-exponent gap along the path.
    """

    def __init__(self, vertices, edges, gauss_index: int):
        self.vertices = vertices
        self.edges = edges
        self.gauss_index = gauss_index
        self.adjacency = {i: [] for i in range(len(vertices))}
        for i, j, length in edges:
            self.adjacency[i].append((j, length))
            self.adjacency[j].append((i, length))

    def __len__(self):
        return len(self.vertices)

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])

    def leaves(self):
        return [i for i in range(len(self.vertices))
                if self.degree(i) <= 1 and i != self.gauss_index]


# A disk's depth-first key is a tuple of tokens on the exponent grid (1/n)Z:
# (e, _TERM, re, im) for each stored center term, in increasing e, then one
# end token (s, _CLOSE, s) at the radius s, or (T, _UNKNOWN, s) when the
# center is known only below T < s.  Keys sort a disk before the disks inside
# it, containment is a prefix of center terms, and equal disks have equal keys.
_CLOSE, _TERM, _UNKNOWN = 0, 1, 2


def _dfs_key(zpair, n: int) -> tuple:
    """Depth-first key of a reduced z-chart disk; ``n`` is a multiple of the
    center's ramification and of the radius's denominator."""
    a, s = zpair
    f, radius = n // a.ram, s.numerator * (n // s.denominator)
    key = [(k * f, _TERM, c.real, c.imag) for k, c in sorted(a.terms.items())]
    end = radius if a.trunc is None else a.trunc * f
    key.append((end, _CLOSE if a.trunc is None else _UNKNOWN, radius))
    return tuple(key)


def _join_key(kx: tuple, ky: tuple) -> tuple:
    """Key of the path join of two disks: their common center terms, closed
    at the exponent where the keys part.  Raises PrecisionError when a center
    known only below T meets a disk that agrees with it below T and reaches
    past T, since then neither containment nor disjointness is decidable."""
    i, last = 0, min(len(kx), len(ky)) - 1
    while i < last and kx[i] == ky[i]:
        i += 1
    tx, ty = kx[i], ky[i]
    for t, o in ((tx, ty), (ty, tx)):
        if t[1] == _UNKNOWN and o[:2] > (t[0], _CLOSE):
            raise PrecisionError("disk containment undecidable at the available precision")
    m = min(tx[0], ty[0])
    return kx[:i] + ((m, _CLOSE, m),)


def _key_contains(outer: tuple, inner: tuple) -> bool:
    """Whether the disk keyed ``outer`` contains the distinct disk keyed
    ``inner``, which comes after it in key order."""
    return outer[-1][1] == _CLOSE and inner[:len(outer) - 1] == outer[:-1]


def _key_point(key: tuple, n: int) -> TypeIIPoint:
    """The disk an exact key closes."""
    center = LaurentSeries({Fraction(e, n): complex(re, im) for e, _, re, im in key[:-1]})
    return TypeIIPoint(center, Fraction(key[-1][2], n))


def subtree_span(points) -> BerkTree:
    """Smallest tree containing the given points and the Gauss point.

    Its vertices are the points and the joins of pairs of points.  Each disk
    gets a depth-first key once (``_dfs_key``): its center's stored terms on
    one exponent grid, closed by its radius, so the key's size is that of the
    center.  Sorted by key, a disk precedes the disks it contains, and the
    joins of consecutive points are all the pairwise joins; each join's key
    is read off the common prefix of its two points' keys (``_join_key``).
    Everything is sorted again, equal keys are merged, and one stack pass
    gives each vertex its parent, the deepest earlier vertex whose key
    prefixes its own.  So n points cost O(n log n) key comparisons and no
    series arithmetic; input points are the vertices as given, and only a
    vertex that is nothing but a join is built anew.  Nothing depends on the
    order the keys give sibling branches.

    Vertices are ordered by radius exponent, ties by first appearance in the
    closure "points (the Gauss point last), then the joins of pairs (i, j),
    i < j, in lexicographic order"; vertex indices, and so every table built
    on them, do not depend on how the tree is found.  A vertex that is a
    point appears at its smallest point index; a vertex that is only a join
    appears at the pair (i, j) where i is the smallest point index below it
    and j the smallest below it outside i's branch.

    Raises PrecisionError exactly when the containment of some two points is
    undecidable from their truncated centers.  Neighbours in key order
    suffice: the disks undecidable against a center known only below T are
    those whose keys extend its known terms past T, a run of the key order
    that holds the point itself.
    """
    if not points:
        raise ChartError("need at least one point")
    pts = [p if isinstance(p, TypeIIPoint) else TypeIIPoint(*p) for p in points]
    pts.append(TypeIIPoint.gauss())
    zpairs = [p.zpair() for p in pts]
    n = math.lcm(*(math.lcm(a.ram, s.denominator) for a, s in zpairs))
    # items are (key, input index or None for a join); both sorts are
    # stable, so the first of a run of equal keys is the earliest input
    inputs = sorted(((_dfs_key(zp, n), k) for k, zp in enumerate(zpairs)), key=itemgetter(0))
    joins = [(_join_key(x[0], y[0]), None) for x, y in zip(inputs, inputs[1:])]
    nodes = []
    for key, k in sorted(inputs + joins, key=itemgetter(0)):
        if not nodes or nodes[-1][0] != key:
            nodes.append((key, k))
    # parents: the deepest earlier vertex whose closed key prefixes the key
    parent = [None] * len(nodes)
    stack = []
    for v, (key, _) in enumerate(nodes):
        while stack and not _key_contains(nodes[stack[-1]][0], key):
            stack.pop()
        if stack:
            parent[v] = stack[-1]
        elif v:
            raise ChartError("disconnected point set: no containing vertex found")
        stack.append(v)
    # first appearance in the pairwise closure, from the smallest input
    # index below each vertex's branches (children follow parents in dfs order)
    branch_low = [[] for _ in nodes]
    first = [None] * len(nodes)
    for v in range(len(nodes) - 1, -1, -1):
        k = nodes[v][1]
        lows = sorted(branch_low[v])
        first[v] = (1, lows[0], lows[1]) if k is None else (0, k)
        if parent[v] is not None:
            branch_low[parent[v]].append(lows[0] if k is None else min(lows[:1] + [k]))
    radius = [key[-1][2] for key, _ in nodes]
    order = sorted(range(len(nodes)), key=lambda v: (radius[v], first[v]))
    pos = {v: i for i, v in enumerate(order)}
    edges = [(i, pos[parent[v]], Fraction(radius[v] - radius[parent[v]], n))
             for i, v in enumerate(order) if parent[v] is not None]
    vertices = [_key_point(nodes[v][0], n) if nodes[v][1] is None else pts[nodes[v][1]]
                for v in order]
    gauss_index = next(i for i, p in enumerate(vertices) if p.is_gauss())
    return BerkTree(vertices, edges, gauss_index)


class TreeMeasure:
    """Atomic measure on the vertices of a finite subtree."""

    def __init__(self, tree: BerkTree, masses, r: float, clipped: float = 0.0,
                 negative_report=None):
        self.tree = tree
        self.masses = [float(m) for m in masses]
        self.r = r
        self.clipped = clipped
        self.negative_report = negative_report or []

    @classmethod
    def gauss(cls, r: float) -> "TreeMeasure":
        """The Dirac mass at the Gauss point, on the one-vertex tree: the
        equilibrium measure of a family with good reduction (Favre and
        Rivera-Letelier, Proc. LMS 100, 2010)."""
        return cls(BerkTree([TypeIIPoint.gauss()], [], 0), [1.0], r)

    def total_mass(self) -> float:
        return sum(self.masses)

    def mass_at_gauss(self) -> float:
        return self.masses[self.tree.gauss_index]

    def leaf_mass_fraction(self) -> float:
        total = self.total_mass()
        if total == 0:
            return 0.0
        return sum(self.masses[i] for i in self.tree.leaves()) / total

    def records(self):
        """One record per vertex: its chart form (``chart_forms``) and mass."""
        return [{"chart": chart, "center": str(center), "s": f"{s.numerator}/{s.denominator}",
                 "mass": m}
                for (chart, center, s), m in zip(chart_forms(self.tree.vertices), self.masses)]

    def support(self):
        return [(pt, m) for pt, m in zip(self.tree.vertices, self.masses) if m != 0.0]


def tree_ma(g, tree: BerkTree, r: float, on_negative: str = "raise") -> TreeMeasure:
    """Monge-Ampere measure of a potential on a finite probe tree.

    ``g`` maps a TypeIIPoint to an exact Fraction exponent q (value
    q * log r).  The mass at a vertex is the sum of outgoing slopes of g, in
    units of |log r| per unit edge length, plus a unit Dirac at the Gauss
    point.  Mass sitting beyond a leaf of the finite tree is absorbed by the
    leaf (retraction).  Negative vertex masses beyond tolerance signal a
    normalization-convention failure: raised by default, recorded when
    ``on_negative='report'``.
    """
    values = [g(v) for v in tree.vertices]
    # each edge's slope from i to j, (q_i - q_j) / length since value = q*log r
    # with log r < 0, as an integer fraction; masses are numerators over one
    # common denominator, and int true division rounds exactly as float(Fraction)
    slopes = []
    for i, j, length in tree.edges:
        diff = values[i] - values[j]
        slopes.append((i, j, diff.numerator * length.denominator,
                       diff.denominator * length.numerator))
    common = math.lcm(*(den for *_, den in slopes))
    numer = [0] * len(tree.vertices)
    numer[tree.gauss_index] = common
    for i, j, num, den in slopes:
        num *= common // den
        numer[i] += num
        numer[j] -= num
    tol = 1e-6
    masses = []
    report = []
    clipped_total = 0.0
    for i, num in enumerate(numer):
        mass = num / common
        if mass < -tol:
            msg = (f"negative mass {mass:.3e} at vertex {tree.vertices[i]!r}: "
                   "Monge-Ampere normalization convention failure")
            if on_negative == "raise":
                raise ConventionError(msg)
            report.append(msg)
        if mass < 0:
            clipped_total += -mass
            mass = 0.0
        masses.append(mass)
    return TreeMeasure(tree, masses, r, clipped=clipped_total, negative_report=report)


# -- non-Archimedean Lyapunov exponent ----------------------------------------------


def det_norm_exponent(R, xi: TypeIIPoint):
    """Exponent q with |det dR| = r**q in the sup metric at a type-II point.

    Computed as (normalized Jacobian seminorm) - 2 * (normalized section
    seminorm); the chart normalizations cancel so the result is intrinsic.
    """
    return _det_norm_exponent(R, jacobian_determinant(R.p0, R.p1), xi)


def _det_norm_exponent(R, jac: HomogeneousPoly, xi):
    """``det_norm_exponent`` with the Jacobian determinant ``jac`` of R given."""
    qj = homog_seminorm(jac, xi)
    q1 = _section_exponent((R.p0, R.p1), xi)
    if qj == _INF or q1 == _INF:
        return _INF
    return qj - 2 * q1


def na_lyapunov(R, mu: TreeMeasure) -> float:
    """Integral of log|det dR| against an atomic tree measure (natural logs)."""
    logr = math.log(mu.r)
    jac = jacobian_determinant(R.p0, R.p1)
    total = 0.0
    for pt, mass in mu.support():
        q = _det_norm_exponent(R, jac, pt)
        if q == _INF:
            return -_INF if logr < 0 else _INF
        total += mass * float(q) * logr
    return total


# -- probe trees ---------------------------------------------------------------------


def _pole_free_base(num, den, a, s):
    """(P, Q) Taylor coefficients at a point b of the disk D(a, r**s) where Q
    has no zero in the open disk D-(b, r**s), i.e. ``ord q_0`` is the Newton
    minimum of Q at b: b = a when that holds, else the first b = a + u*t**s
    for 2d + 1 fixed units u.  Q's zeros fill at most d of the residue
    classes of the disk, so some u works; PrecisionError if none does."""
    d = len(num) - 1
    for k in range(2 * d + 2):
        b = a if k == 0 else a + LaurentSeries.t_power(s, complex(math.cos(k), math.sin(k)))
        qs = taylor_shift(list(den), b)
        if not qs[0].is_zero() and _newton_min(qs, s) == qs[0].order():
            return taylor_shift(list(num), b), qs
    raise PrecisionError("no base point of the disk avoids the poles")


def _orbit_step(num, zpair, den=None):
    """(image, m): one step of the z-chart disk D(a, r**s) under the affine
    map P/Q, read off one Taylor shift of P and of Q.

    ``num`` and ``den`` are the ascending LaurentSeries coefficients of P and
    Q, lists of one length; ``den`` None stands for Q = 1 (a polynomial
    map), and then ``num`` may also be a function from a center to P's
    Taylor shift there (a family's ``affine_shift``).  With p_j, q_j the
    Taylor coefficients at a base point b where Q has no zero in the open
    disk D-(b, r**s) (``_pole_free_base``; b = a for polynomials), the
    image is D(P(b)/Q(b), r**s') with

        s' = min over j >= 1 of ord(p_j q_0 - p_0 q_j) + j*s - 2 ord q_0,

    and m = min(Newton min of P, ord q_0) is the exponent of max(|P|, |Q|)
    on the disk.  PrecisionError when a truncated zero could lower s' or m.
    """
    a, s = zpair
    if den is None:
        shifted = num(a) if callable(num) else taylor_shift(list(num), a)
        slopes, ord_q0 = shifted[1:], 0
    else:
        shifted, qs = _pole_free_base(num, den, a, s)
        p0, q0 = shifted[0], qs[0]
        slopes = [p * q0 - p0 * q for p, q in zip(shifted[1:], qs[1:])]
        ord_q0 = q0.order()
    best = _newton_min([LaurentSeries.zero(), *slopes], s)
    if best == _INF:
        raise DegenerateFamilyError("constant map has no disk image")
    s_image = _as_frac(best - 2 * ord_q0)
    m = min(_newton_min(shifted, s), ord_q0)
    if den is None or p0.is_zero():
        return (shifted[0], s_image), m
    # the image center matters below exponent s_image only
    window = max(1, math.ceil(s_image - p0.order() + ord_q0))
    return (p0 * q0.inverse(window=window), s_image), m


def map_disk(num, zpair, den=None):
    """Forward image (center, s') of a z-chart disk under P/Q (``_orbit_step``)."""
    return _orbit_step(num, zpair, den)[0]


def critical_centers(R, target=Fraction(6)):
    """Truncated Puiseux expansions of the finite critical points of a
    polynomial family (roots of the derivative of the affine polynomial):
    all of them, or PrecisionError from ``newton_puiseux``."""
    coeffs = R.affine_coeffs
    deriv = [c * float(j) for j, c in enumerate(coeffs) if j >= 1]
    if len(deriv) <= 1:
        return []
    return newton_puiseux(deriv, Fraction(target))


def critical_lyapunov(R, evaluator: GreenEvaluator):
    """(q, exact): the non-Archimedean Lyapunov exponent ``q * log(r)`` of a
    polynomial family, by the critical-point formula ``L = log d + sum_c G(c)``
    (Manning 1984; Przytycki 1985), whose ``log |d|`` is 0 over Laurent series.

    The sum runs over the d - 1 finite critical points (``critical_centers``
    at target 12).  ``G(c) = (q_c + min(ord c, 0)) * log(r)``, where
    ``evaluator`` gives ``q_c`` at the disk ``D(c, r**12)`` and the ord term
    adds back ``log+|c|``.  ``exact`` is true when every Green bound is 0.
    ``critical_centers`` raises PrecisionError rather than return a short
    list, so a short list is never summed.
    """
    centers = critical_centers(R, target=12)
    total, exact = Fraction(0), True
    for c in centers:
        q, bound = evaluator.exponent(TypeIIPoint(c, 12))
        total += q + min(c.order(), 0)
        exact = exact and bound == 0.0
    return total, exact


def build_probe_tree(R, s_min=-3, s_max=3, q: int = 2, orbit_len: int = 2,
                     include_critical: bool = True) -> BerkTree:
    """Default probe tree: a radius grid at center 0, forward-orbit segments
    of the grid disks, and (for polynomial families) critical-orbit centers
    carrying their own radius grids.  Every orbit step reads the family's
    Taylor-shift table (``affine_shift``)."""
    zero = LaurentSeries.zero()
    grid = [Fraction(j, q) for j in range(int(s_min * q), int(s_max * q) + 1)]
    pairs = [(zero, s) for s in grid]
    if R.is_polynomial():
        shift = R.affine_shift
        # forward orbit segments of the grid disks
        for s in grid:
            cur = (zero, s)
            for _ in range(orbit_len):
                try:
                    cur = map_disk(shift, cur)
                except DegenerateFamilyError:
                    break
                pairs.append(cur)
        # critical-orbit centers, each with its own radius grid
        centers = critical_centers(R, target=Fraction(s_max + 3)) if include_critical else []
        orbit = []
        for c in centers:
            cur = c
            for _ in range(orbit_len):
                cur = shift(cur)[0]
                orbit.append(cur)
        distinct = []
        for c in centers + orbit:
            if c.is_zero():
                continue
            if not any((c - c2).is_zero() for c2 in distinct):
                distinct.append(c)
        for c in distinct:
            for s in grid:
                pairs.append((c, s))
    return subtree_span([TypeIIPoint(a, s) for a, s in pairs])

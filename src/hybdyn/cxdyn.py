"""Complex dynamics at a fixed parameter: specialization, integrals against
the measure of maximal entropy by preimage quadrature, and Lyapunov
estimation.

Points on the Riemann sphere are kept as homogeneous pairs (w0, w1) with
sup-norm 1 so that both charts stay numerically safe.  The integrals rest
on the equidistribution of the balanced pullback: ``d^-n Σ_{R^n y = x} δ_y``
converges to the measure of maximal entropy from any non-exceptional x.
The quadrature (``preimage_levels``) sums over all ``d^n`` branches from a
computed repelling periodic point, level by level, and reports each cell's
value with an error estimate and whether the differences between levels
certify it.  The seeded backward sampler (``backward_sample``) draws a
random inverse branch at each step of one map's orbit; with
``integrate_mu`` it stays as the one-map Monte-Carlo reference, and
``integrate_mu(R, lambda pts: log_det_norm(MapStack([R]), pts), s)`` is
that reference's Lyapunov exponent.

The quadrature treats a grid of cells, one map each, as one batch: the
root, every quadrature level and integrand evaluation is a numpy call
over the points of all cells, in blocks of bounded size, and a cell's
result is bit for bit what it would be alone.  ``MapStack`` is the grid's
layout, its coefficient rows stacked once; one map is ``MapStack([R])``.
An integrand ``f(cell, pts)`` gets the points of many cells at once,
``cell[k]`` being the stack row of point k, as ``log_det_norm(stack, pts,
cell)`` takes them.

Every zero of a binary form, a preimage (``_solve``) or a periodic point
(``_periodic_points``), comes from one kernel, ``_zeros``, over the one
root solver ``_roots``; a leading coefficient at its cut is a zero at
infinity.  A quadrature level keeps all d preimages of a point; a walker
step keeps the one its chain drew.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .errors import (DegenerateMapError, NoRepellingCycleError,
                     UnsupportedDegreeError, UnsupportedMapError)
from .parser import MAX_DEGREE as _MAX_ROOT_DEGREE

_LEAD_CUT = 1e-14  # a leading coefficient at most this times its row's largest: a zero at infinity


class RationalMapC:
    """Complex rational map of degree d in homogeneous coordinates.

    ``resultant`` is the value of Res(p0, p1) when the caller has already
    decided that it is nonzero (``specialize`` does so from the family's
    exact resultant); without it the float Sylvester determinant is
    computed and checked against a relative tolerance.
    """

    def __init__(self, p0c, p1c, label: str = "", resultant: complex | None = None):
        self.p0c = np.asarray(p0c, dtype=complex)  # ascending in z, length d+1
        self.p1c = np.asarray(p1c, dtype=complex)
        if self.p0c.shape != self.p1c.shape or self.p0c.ndim != 1:
            raise DegenerateMapError("coefficient arrays must share length d+1")
        self.degree = len(self.p0c) - 1
        self.label = label
        s0 = np.abs(self.p0c).max()
        s1 = np.abs(self.p1c).max()
        if s0 == 0 or s1 == 0:
            raise DegenerateMapError("zero section")
        if resultant is None:
            resultant = _sylvester_det(self.p0c, self.p1c)
            # the resultant is degree d in each section's coefficients;
            # strongly degenerating lifts (huge coefficient spread) shrink it
            # legitimately, so the relative tolerance is kept small
            if abs(resultant) <= 1e-15 * (s0 * s1) ** self.degree:
                raise DegenerateMapError(
                    f"resultant vanishes to tolerance for map {label!r}")
        self.resultant = resultant

    def __repr__(self):
        return f"<RationalMapC deg={self.degree} {self.label!r}>"


class MapStack:
    """The coefficient rows of maps of one degree, stacked once: row i of
    ``p0c`` and ``p1c`` is ``maps[i]``'s.  The rows ``log_det_norm`` reads,
    the chart-z Wronskian ``_wz`` of p0' p1 - p0 p1' and the 1/z-chart
    sections ``_q0``, ``_q1`` with their Wronskian ``_wu``, are built on
    first read."""

    def __init__(self, maps):
        self.maps = list(maps)
        self.degree = self.maps[0].degree
        if any(R.degree != self.degree for R in self.maps):
            raise UnsupportedMapError("a stack needs maps of one degree")
        self.p0c = np.array([R.p0c for R in self.maps])
        self.p1c = np.array([R.p1c for R in self.maps])

    @functools.cached_property
    def _wz(self) -> np.ndarray:
        return np.array([_wronskian(a, b) for a, b in zip(self.p0c, self.p1c)])

    @functools.cached_property
    def _q0(self) -> np.ndarray:
        return self.p1c[:, ::-1].copy()

    @functools.cached_property
    def _q1(self) -> np.ndarray:
        return self.p0c[:, ::-1].copy()

    @functools.cached_property
    def _wu(self) -> np.ndarray:
        return np.array([_wronskian(a, b) for a, b in zip(self._q0, self._q1)])


def _derivative(c: np.ndarray) -> np.ndarray:
    """Ascending coefficients of the derivative: the products ``j * c[j]``
    of ``numpy.polynomial.polynomial.polyder``, bit for bit."""
    return c[1:] * np.arange(1, len(c))


def _wronskian(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ascending coefficients of ``a' b - a b'``."""
    return _polysub(np.convolve(_derivative(a), b), np.convolve(a, _derivative(b)))


def _polysub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = max(len(a), len(b))
    out = np.zeros(n, dtype=complex)
    out[: len(a)] += a
    out[: len(b)] -= b
    return out


def _safe_div(a, b):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(b != 0, a / np.where(b != 0, b, 1.0), 0.0)


def _sylvester_det(a: np.ndarray, b: np.ndarray) -> complex:
    d = len(a) - 1
    m = np.zeros((2 * d, 2 * d), dtype=complex)
    for i in range(d):
        m[i, i: i + d + 1] = a[::-1]
        m[d + i, i: i + d + 1] = b[::-1]
    return complex(np.linalg.det(m))


def specialize(R, t: complex, r: float | None = None) -> RationalMapC:
    """Specialize a family at a nonzero parameter; checks non-degeneracy.

    The map is degenerate when the family's resultant series vanishes at
    ``t``.  For an exact series (no truncation) that is decided from its
    value against the rounding bound of the evaluation, so strongly
    degenerating lifts such as ``z^3 + 1/t`` pass at any |t|; a truncated
    series leaves the decision to the float check of ``RationalMapC``.
    """
    t = complex(t)
    if t == 0:
        raise DegenerateMapError("specialization requires t != 0")
    if r is not None and abs(t) > r:
        raise DegenerateMapError(f"|t| = {abs(t)} exceeds the radius {r}")
    p0c = np.array([c.eval(t) for c in R.p0.dehomogenized()], dtype=complex)
    p1c = np.array([c.eval(t) for c in R.p1.dehomogenized()], dtype=complex)
    label = f"{getattr(R, 'label', '')}@t={t}"
    res = R.resultant
    if res.trunc is None:
        value, bound = _shifted_eval(res, t)
        if abs(value) <= bound:
            raise DegenerateMapError(f"degenerate specialization at t = {t}: resultant "
                                     f"{value} is zero to rounding ({bound:.3g})")
        return RationalMapC(p0c, p1c, label=label, resultant=res.eval(t))
    try:
        return RationalMapC(p0c, p1c, label=label)
    except DegenerateMapError as exc:
        raise DegenerateMapError(f"degenerate specialization at t = {t}: {exc}")


def _shifted_eval(series, t: complex):
    """``series(t) / x^k0`` at ``x = series.uniformizer(t)``, k0 the lowest
    scaled exponent, by Horner on the dense polynomial of degree J in x,
    with that evaluation's rounding bound ``γ(4J+2) · Σ|c_j| |x|^j``.  The
    shift does not move the zeros and keeps negative orders from overflowing."""
    if not series.terms:
        return 0j, 0.0
    x = series.uniformizer(t)
    lo, hi = min(series.terms), max(series.terms)
    value, mag = 0j, 0.0
    for k in range(hi, lo - 1, -1):
        c = series.terms.get(k, 0.0)
        value = value * x + c
        mag = mag * abs(x) + abs(c)
    n = 4 * (hi - lo) + 2
    u = 2.0 ** -53
    return value, n * u / (1 - n * u) * mag


class SampleSet:
    """Backward-orbit sample of the equilibrium measure (seeded, reproducible).

    ``points``, (n_keep, 2) complex homogeneous with sup-norm 1, are the
    points of the chains forked after the burn-in, chain-major: chain 0's
    points in walk order, then chain 1's, and so on.
    """

    def __init__(self, points: np.ndarray, seed: int, n_burn: int, n_keep: int):
        self.points, self.seed, self.n_burn, self.n_keep = points, seed, n_burn, n_keep


def _preimages(R: RationalMapC, target: np.ndarray) -> np.ndarray:
    """The d preimages of a homogeneous point, with multiplicity: the roots
    of ``_roots`` in its order, then the points at infinity.  The scalar
    reference that ``_solve`` reproduces bit for bit."""
    d = R.degree
    y0, y1 = target
    qc = y1 * R.p0c - y0 * R.p1c  # ascending; roots are the finite preimages
    scale = np.abs(qc).max()
    if scale == 0:
        raise DegenerateMapError("preimage polynomial vanished identically")
    deg = d
    while deg > 0 and abs(qc[deg]) <= 1e-14 * scale:
        deg -= 1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        roots = _roots(qc[None, : deg + 1])[0] if deg > 0 else []
    out = np.empty((d, 2), dtype=complex)
    for i, z in enumerate(roots):
        if abs(z) <= 1.0:
            out[i] = (z, 1.0)
        else:
            out[i] = (1.0, 1.0 / z)
    for i in range(deg, d):
        out[i] = (1.0, 0.0)
    return out


def _roots(qc: np.ndarray, cap=_MAX_ROOT_DEGREE) -> np.ndarray:
    """The d roots of the polynomial with ascending coefficient row
    ``qc[i]``, whose leading coefficient must be nonzero, as row i of an
    (n, d) array: ``-c0/c1``, ``_quadratic_roots``, ``_cubic_roots``, or the
    eigenvalues of stacked companion matrices for degrees 4 to ``cap``.  A
    row's roots do not depend on the other rows."""
    d = qc.shape[1] - 1
    if d == 1:
        return -qc[:, :1] / qc[:, 1:]
    if d == 2:
        return _quadratic_roots(qc)
    if d == 3:
        return _cubic_roots(qc)
    if d > cap:
        raise UnsupportedDegreeError(f"polynomial degree {d} > {cap}")
    # numpy.roots' companion matrix: first row -p[1:] / p[0], p descending
    comp = np.tile(np.eye(d, k=-1, dtype=complex), (len(qc), 1, 1))
    comp[:, 0] = -qc[:, d - 1::-1] / qc[:, d:]
    try:
        return np.linalg.eigvals(comp)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMapError(f"companion-matrix root finder failed: {exc}")


def _cubic_roots(qc: np.ndarray) -> np.ndarray:
    """The three roots of the cubic with ascending coefficient row
    ``qc[i]``, whose leading coefficient must be nonzero, as row i of an
    (n, 3) array.

    Cardano on the depressed cubic: with the monic coefficients B, C, E,
    ``D0 = B^2 - 3C`` and ``D1 = 2B^3 - 9BC + 27E``, the roots are
    ``-(B + u + D0/u) / 3`` for the three cube roots ``u = ω^j U`` of
    ``(D1 + S) / 2``, U the principal one.  The sign of
    ``S = ±√(D1^2 - 4 D0^3)`` makes ``|D1 + S|`` largest, so U vanishes
    only at a triple root, whose root is ``-B/3``.

    The formula is accurate for the root of largest modulus only: beside a
    much larger root, two small roots look like a double root and lose half
    their digits.  So the root of largest modulus, from branch j, goes to
    column j, and columns j+1 and j+2 (mod 3) hold the roots ``qq`` and
    ``Q/qq`` of the quadratic ``z^2 + P z + Q`` left by deflating it from
    the constant term, solved as ``_quadratic_roots`` solves it.  No
    Newton step polishes the result: near a double root it can jump to
    another root, and the three columns would no longer be the three roots.

    Every operation is elementwise, so a row's roots do not depend on the
    other rows or on how many there are.
    """
    e, c, b, a = (qc[:, i] for i in range(4))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bm, cm, em = b / a, c / a, e / a
        d0 = bm * bm - 3.0 * cm
        d1 = (2.0 * bm * bm - 9.0 * cm) * bm + 27.0 * em
        s = np.sqrt(d1 * d1 - 4.0 * (d0 * d0) * d0)
        np.negative(s, out=s, where=d1.real * s.real + d1.imag * s.imag < 0)
        w = (d1 + s) / 2.0
        # U in polar form; the cube roots are ω^j U, and D0 / (ω^j U) = ω^-j D0 / U
        rad = np.cbrt(np.hypot(w.real, w.imag))
        arg = np.arctan2(w.imag, w.real) / 3.0
        u = np.empty_like(w)
        np.multiply(rad, np.cos(arg), out=u.real)
        np.multiply(rad, np.sin(arg), out=u.imag)
        g = np.divide(d0, u, out=np.zeros_like(u), where=u != 0)
        # |3 root_j|^2 = |B + ω^j U + ω^-j g|^2 = const + 2 Re(ω^-j h), so the
        # root of largest modulus is branch j nearest to 3 arg(h) / 2π
        h = bm * u.conj() + u * g.conj() + bm.conj() * g
        j = np.rint(np.arctan2(h.imag, h.real) * (1.5 / math.pi)).astype(int) % 3
        om = _OMEGA[j]
        big = -(bm + om * u + om.conj() * g) / 3.0
        # (z - big)(z^2 + P z + Q) with Q = -E/big and P = (Q - C)/big
        nonzero = big != 0
        qd = np.divide(-em, big, out=np.zeros_like(big), where=nonzero)
        pd = np.divide(qd - cm, big, out=np.zeros_like(big), where=nonzero)
        sq = np.sqrt(pd * pd - 4.0 * qd)
        np.negative(sq, out=sq, where=pd.real * sq.real + pd.imag * sq.imag < 0)
        qq = -(pd + sq) / 2.0
        z = np.divide(qd, qq, out=np.zeros_like(qq), where=qq != 0)
    # column k holds big, qq or Q/qq as (k - j) mod 3 is 0, 1 or 2
    return np.array([big, qq, z])[_ROLL[j], np.arange(len(j))[:, None]]


_OMEGA = np.array([1.0, complex(-0.5, math.sqrt(0.75)), complex(-0.5, -math.sqrt(0.75))])
_ROLL = (np.arange(3) - np.arange(3)[:, None]) % 3  # _ROLL[j, k] = (k - j) % 3


def _quadratic_roots(qc: np.ndarray) -> np.ndarray:
    """The two roots of the quadratic with ascending coefficient row
    ``qc[i]`` = (c, b, a), ``a`` nonzero, as row i of an (n, 2) array:
    ``qq / a`` and ``c / qq`` with ``qq = -(b + sq) / 2``, the sign of
    ``sq = ±√(b² − 4ac)`` making ``Re(conj(b) sq) >= 0``.  ``qq`` vanishes
    only at the double root 0, whose roots are 0 and ``-b / a``.

    The discriminant and the branch test are written out in real
    arithmetic, each real product rounded on its own, as complex128
    scalars round them; numpy's complex-array multiply may fuse them
    (``4a``, whose products are exact, stays complex).  Every operation is
    elementwise.
    """
    c, b, a = qc[:, 0], qc[:, 1], qc[:, 2]
    f = a * (4 + 0j)
    br, bi, cr, ci, fr, fi = b.real, b.imag, c.real, c.imag, f.real, f.imag
    disc = np.empty_like(b)
    np.subtract(br * br - bi * bi, fr * cr - fi * ci, out=disc.real)
    np.subtract(2.0 * (br * bi), fr * ci + fi * cr, out=disc.imag)
    sq = np.sqrt(disc)
    np.negative(sq, out=sq, where=br * sq.real + bi * sq.imag < 0)
    qq = -(b + sq) / 2.0
    z = np.empty((len(qc), 2), dtype=complex)
    np.divide(qq, a, out=z[:, 0])
    np.divide(c, qq, out=z[:, 1])
    if not qq.all():
        double = qq == 0
        z[double, 0] = 0j
        z[double, 1] = -b[double] / a[double]
    return z


def _solve(stack: MapStack, rows: np.ndarray, y: np.ndarray) -> np.ndarray:
    """All d preimages of the point ``y[:, i]`` under the map of stack row
    ``rows[i]``, for every i, at ``[:, i, :]`` of a (2, n, d) result: the
    ``_zeros`` of ``y1 P0 - y0 P1``, in blocks of at most ``_BLOCK_POINTS``
    preimages.  Row i is ``_preimages`` bit for bit, whatever the other
    rows and the blocks.  Callers silence float warnings."""
    d, n = stack.degree, y.shape[1]
    out = np.empty((2, n, d), dtype=complex)
    size = max(1, _BLOCK_POINTS // d)
    for lo in range(0, n, size):
        r, yb = rows[lo: lo + size], y[:, lo: lo + size]
        # the gathered rows are freed before the roots are found
        _zeros(yb[1, :, None] * stack.p0c.take(r, axis=0)
               - yb[0, :, None] * stack.p1c.take(r, axis=0), out=out[:, lo: lo + size])
    return out


def _zeros(q: np.ndarray, cap=_MAX_ROOT_DEGREE, out=None) -> np.ndarray:
    """The D zeros of the binary form with ascending coefficient row ``q[i]``,
    for every i, at ``[:, i, :]`` of a (2, n, D) array (or ``out``): a root
    z of ``_roots`` is ``(z, 1)`` where ``np.hypot`` gives ``|z| <= 1`` (the
    scalar ``abs``, bit for bit), else ``(1, 1/z)``.  A leading coefficient
    at most ``_LEAD_CUT`` times the row's largest is a zero ``(1, 0)`` at
    infinity, after the zeros of the lower degree, as in ``_preimages``.  A
    row's zeros do not depend on the other rows.  Callers silence float warnings."""
    mag, top = np.abs(q), q.shape[1] - 1
    if out is None:
        out = np.empty((2, len(q), top), dtype=complex)
    # the leading column against each coefficient: no row reduction unless a row is cut
    if not np.count_nonzero(mag[:, top:] <= _LEAD_CUT * mag):
        z = _roots(q, cap)
        out.fill(1.0)
        inside = np.hypot(z.real, z.imag) <= 1.0
        np.copyto(out[0], z, where=inside)
        np.divide(1.0, z, out=out[1], where=~inside)
        return out
    above = mag > _LEAD_CUT * mag.max(axis=1, keepdims=True)
    if not above.any(axis=1).all():
        raise DegenerateMapError("a binary form vanished identically")
    deg = top - above[:, ::-1].argmax(axis=1)
    out[0], out[1] = 1.0, 0.0  # the point at infinity
    for g in set(deg[deg > 0].tolist()):  # np.unique would import numpy.ma
        out[:, deg == g, :g] = _zeros(q[deg == g, : g + 1], cap)  # no row is cut again
    return out


def backward_sample(R: RationalMapC, seed: int, n_burn: int, n_keep: int,
                    start) -> SampleSet:
    """Random backward orbit: one uniformly chosen preimage per step, every
    draw from ``default_rng(seed)``.

    One chain walks ``max(n_burn, 3)`` burn-in steps from ``start``.  At
    each of the first three, a point all of whose preimages lie within
    chordal distance 1e-12 of it (numerically exceptional) is not left:
    the start moves by ``eps e^(i angle)``, eps and then the angle drawn
    with ``rng.random()``, and the chain starts again; the eighth such
    point raises.  The burned-in point is then forked into
    ``K = min(16, n_keep)`` chains of ``ceil(n_keep / K)`` steps each, and
    the sample is chain-major (chain 0's points, then chain 1's, ...),
    truncated to ``n_keep``.  The one-map Monte-Carlo reference that
    acceptance criterion 6 samples through.
    """
    if n_keep < 1:
        raise ValueError(f"n_keep must be >= 1, got {n_keep}")
    d, stack, rng = R.degree, MapStack([R]), np.random.default_rng(seed)
    first = _as_point(start)
    state, steps, found = first[:, None].copy(), 0, 0
    while steps < _HEAD_STEPS:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            pre = _solve(stack, np.zeros(1, dtype=int), state)[:, 0]
            dist = np.abs(pre[0] * state[1] - pre[1] * state[0]) / (
                np.maximum(np.abs(pre[0]), np.abs(pre[1]))
                * np.maximum(np.abs(state[0]), np.abs(state[1])))
        if (dist < 1e-12).all():
            found += 1
            if found == 8:
                raise DegenerateMapError("could not move the start off the exceptional set")
            eps = 0.25 + 0.5 * rng.random()
            angle = 2 * math.pi * rng.random()
            first = _as_point(_to_affine(first) + eps * complex(math.cos(angle), math.sin(angle)))
            state[:, 0], steps = first, 0
        else:
            state[:, 0], steps = pre[:, rng.integers(d)], steps + 1
    _walk(stack, rng, state, max(n_burn, _HEAD_STEPS) - _HEAD_STEPS, 1)
    n_chains = min(_CHAINS, n_keep)
    n_steps = -(-n_keep // n_chains)
    state = np.repeat(state, n_chains, axis=1)
    kept = np.empty((n_chains, n_steps, 2), dtype=complex)
    _walk(stack, rng, state, n_steps, n_chains, kept)
    return SampleSet(points=kept.reshape(-1, 2)[:n_keep], seed=seed,
                     n_burn=n_burn, n_keep=n_keep)


def preimage_levels(stack: MapStack, n_keep: int, f) -> list:
    """Integrate ``f`` against the measure of maximal entropy of the map of
    stack row i by preimage quadrature, for every i: ``I_n = d^-n Σ f(y)``
    over all ``d^n`` points y with ``R^n y = x``, counted with
    multiplicity, for the root x.

    The root is ``_repelling_root``'s, a point of the Julia set and never
    exceptional.  Level 1 holds the d preimages of the root and level n+1
    those of every point of level n, all rows at once; a level is entered
    only while ``d^n <= n_keep``.  With ``Δ_n = I_n - I_{n-1}``, a cell is certified
    at level n when ``|Δ_n|`` and ``|Δ_{n-1}|`` are both below
    ``_QUAD_TOL``; one small difference is no certificate, since an
    integrand can be locally constant at coarse levels.  A cell stops early,
    uncertified, when its budget runs out, when a level has a value that is
    not finite (the cell keeps the level before), or when the ratios of the
    differences have stopped shrinking and the last one, extrapolated,
    reaches no certificate within the budget.

    Result i is ``(I_n, estimate, n, certified)`` for the last level n the
    cell kept, the estimate from ``_tail_estimate``; a cell with no finite
    level reports ``(nan, inf, 0, False)``.

    ``f(cell, pts)`` is called on the points of every cell still active,
    level by level, in blocks of at most ``_BLOCK_POINTS`` homogeneous
    points (an (m, 2) array): each cell's d^n points of the level, cell
    after cell, ``cell[k]`` being the stack row of point k.  A cell's
    ``I_n`` is the mean over its own slice, so its result does not depend
    on the other cells or on the blocks.
    """
    d, n_cells = stack.degree, len(stack.maps)
    if d < 2:
        raise UnsupportedMapError("preimage quadrature needs degree >= 2")
    top = 0  # the last level within the budget
    while d ** (top + 1) <= n_keep:
        top += 1
    points = _repelling_root(stack)[0]
    active = np.arange(n_cells)
    means = [[] for _ in range(n_cells)]
    peak = [0.0] * n_cells  # max |f| on a cell's last kept level
    results = [None] * n_cells
    for level in range(1, top + 1):
        width = d ** level
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            points = _solve(stack, active.repeat(d ** (level - 1)), points).reshape(2, -1)
        cell = active.repeat(width)
        vals = np.empty(len(cell))
        for lo in range(0, len(cell), _BLOCK_POINTS):
            hi = lo + _BLOCK_POINTS
            vals[lo:hi] = f(cell[lo:hi], points[:, lo:hi].T)
        vals = vals.reshape(len(active), width)
        finite = np.isfinite(vals).all(axis=1).tolist()
        with np.errstate(invalid="ignore"):  # the mean of a row not finite is unused
            level_means = vals.mean(axis=1).tolist()  # bit for bit each row's 1-d mean
        peaks = np.abs(vals).max(axis=1).tolist()
        keep = []
        for c, i in enumerate(active.tolist()):
            hist = means[i]
            if not finite[c]:
                results[i] = _settle(hist, peak[i], d, False)
                continue
            hist.append(level_means[c])
            peak[i] = peaks[c]
            if level >= 3:
                step, prev = abs(hist[-1] - hist[-2]), abs(hist[-2] - hist[-3])
                if step < _QUAD_TOL and prev < _QUAD_TOL:
                    results[i] = _settle(hist, peak[i], d, True)
                    continue
                # extrapolating the last ratio is optimistic only once the
                # ratios stop shrinking, so only then may it end the cell
                rho = _ratio(step, prev)
                if (level >= 4 and rho >= _ratio(prev, abs(hist[-3] - hist[-4]))
                        and level + _levels_to_certify(step, rho) > top):
                    results[i] = _settle(hist, peak[i], d, False)
                    continue
            keep.append(c)
        if not keep:
            break
        active = active[keep]
        points = points.reshape(2, -1, width)[:, keep].reshape(2, -1)
    # the cells still active when the budget ran out
    return [res if res is not None else _settle(hist, pk, d, False)
            for res, hist, pk in zip(results, means, peak)]


def _settle(means: list, peak: float, d: int, certified: bool) -> tuple:
    """A cell's result from its level means ``I_1, ..., I_n``, ``peak``
    being max |f| on level n."""
    if not means:
        return math.nan, math.inf, 0, False
    n = len(means)
    return means[-1], _tail_estimate(means, d ** n, peak), n, certified


def _tail_estimate(means: list, n_points: int, peak: float) -> float:
    """Error estimate of the last of the level means ``I_1, ..., I_n``.

    The level differences of smooth and of locally constant integrands
    shrink at uneven rates (ratios such as 0.58, 0.04, 0.57, 0.04), so the
    tail is taken from the larger of the last two ``|Δ|`` and the largest
    ``ρ*`` of the last three ratios ``|Δ_k / Δ_{k-1}|``: the geometric tail
    ``|Δ| ρ* / (1 - ρ*)`` when ``ρ* < 1``, else ``|Δ|``; inf with a single
    level.  It is floored at the rounding of the level's sum,
    ``n_points · eps · max(1, peak)``.  An estimate, not a bound.
    """
    diffs = [abs(b - a) for a, b in zip(means, means[1:])]
    if not diffs:
        return math.inf
    step = max(diffs[-2:])
    rho = max([_ratio(b, a) for a, b in zip(diffs, diffs[1:])][-3:], default=math.inf)
    tail = step * rho / (1 - rho) if rho < 1 else step
    return max(tail, n_points * sys.float_info.epsilon * max(1.0, peak))


def _ratio(step: float, prev: float) -> float:
    return step / prev if prev > 0 else math.inf


def _levels_to_certify(step: float, rho: float) -> float:
    """Levels still needed for a certificate if the level differences keep
    shrinking by ``rho`` from ``step`` (inf when they do not shrink)."""
    if step < _QUAD_TOL:
        return 1
    if rho >= 1:
        return math.inf
    # the first k with step * rho^k below the tolerance, then one more level
    return math.floor(math.log(_QUAD_TOL / step) / math.log(rho)) + 2


_HEAD_STEPS = 3  # leading steps checked for an exceptional start
_CHAINS = 16  # chains forked from backward_sample's burned-in point
# points per kernel block over all cells and chains: the preimages one _solve
# block gives, and the points one integrand call gets; the temporaries of
# both grow with it
_BLOCK_POINTS = 2 * 1024
_QUAD_TOL = 1e-12  # preimage quadrature: certificate on two level differences


_PERIODS = 3  # the longest cycle _repelling_root looks for
# a cycle repels when log|λ| exceeds this, |λ| > 1.001: rounding splits a
# multiple fixed point, of multiplier 1, into zeros whose |λ| reads up to
# about 1 + 4e-6
_REPELLING = 1e-3


def _repelling_root(stack: MapStack):
    """The quadrature's root of every stack row, all rows at once: the most
    repelling periodic point of the smallest period k <= 3 with a repelling
    cycle (the w0 row and the w1 row), with each row's k and ``log|λ|``.
    The candidates are the zeros of ``w1 P0^(k) - w0 P1^(k)``, ``P^(k)`` the
    k-th iterate, and ``log|λ|`` sums ``log_det_norm`` over the cycle, as
    the spherical factors telescope.  No parabolic point is chosen, not even
    a multiple zero that rounding splits (``_REPELLING``), and a row with no
    repelling cycle raises.  Every step is row by row."""
    n = len(stack.maps)
    root, period, log_mult = np.empty((2, n), dtype=complex), np.zeros(n, int), np.zeros(n)
    todo, a, b = np.arange(n), stack.p0c, stack.p1c  # the forms of R^k on the rows todo
    for k in range(1, _PERIODS + 1):
        if k > 1:
            a, b = _compose(stack, todo, a, b)
        pts = _periodic_points(a, b)
        rows, x = todo.repeat(pts.shape[2]), pts.reshape(2, -1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lam = log_det_norm(stack, x.T, rows)
            for _ in range(k - 1):
                x = _image(stack, rows, x)
                lam += log_det_norm(stack, x.T, rows)
        lam = np.where(np.isnan(lam), -np.inf, lam).reshape(len(todo), -1)
        best = lam.argmax(axis=1)
        top = lam[np.arange(len(todo)), best]
        found = top > _REPELLING
        root[:, todo[found]] = pts[:, found, best[found]]
        period[todo[found]], log_mult[todo[found]] = k, top[found]
        todo, a, b = todo[~found], a[~found], b[~found]
        if not len(todo):
            return root, period, log_mult
    raise NoRepellingCycleError(
        f"no repelling cycle of period <= {_PERIODS} for {stack.maps[todo[0]]!r}")


def _periodic_points(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The zeros of ``w1 a - w0 b``, a and b forms of degree D with ascending
    coefficient rows, as a (2, n, D + 1) array: ``_zeros`` without the
    degree cap of ``_roots``."""
    q = np.zeros((len(a), a.shape[1] + 1), dtype=complex)
    q[:, :-1] = a
    q[:, 1:] -= b
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _zeros(q, cap=math.inf)


def _compose(stack: MapStack, rows: np.ndarray, a: np.ndarray, b: np.ndarray) -> list:
    """The forms ``Σ_j c[j] a^j b^(d-j)`` of ``R∘(a, b)`` for both coefficient
    rows c of stack row ``rows[i]`` and the forms of row i of a and b."""
    def mul(x, y):
        return np.array([np.convolve(u, v) for u, v in zip(x, y)])

    pa, pb = [np.ones((len(rows), 1))], [np.ones((len(rows), 1))]
    for _ in range(stack.degree):
        pa, pb = pa + [mul(pa[-1], a)], pb + [mul(pb[-1], b)]
    terms = [mul(x, y) for x, y in zip(pa, pb[::-1])]
    return [sum(c[rows, j, None] * term for j, term in enumerate(terms))
            for c in (stack.p0c, stack.p1c)]


def _image(stack: MapStack, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``R(x[:, i])`` under stack row ``rows[i]``, unnormalized, in the chart
    where the coordinate of x has modulus at most 1."""
    z_chart = np.abs(x[0]) <= np.abs(x[1])
    z = np.where(z_chart, _safe_div(x[0], x[1]), _safe_div(x[1], x[0]))
    return np.where(z_chart, [_horner(stack.p0c, rows, z), _horner(stack.p1c, rows, z)],
                    [_horner(stack._q1, rows, z), _horner(stack._q0, rows, z)])


def _walk(stack: MapStack, rng, state: np.ndarray, n_steps: int, n_chains: int,
          kept=None) -> None:
    """Walk ``n_chains`` chains of the map of one-row ``stack`` for
    ``n_steps`` steps from ``state`` (the w0 row and the w1 row, one column
    per chain), which ends holding the last step; with ``kept``, an
    (n_chains, n_steps, 2) array, chain c's point after step s goes to
    ``kept[c, s]``.

    The whole (n_steps, n_chains) int64 block of draws comes from ``rng``
    at once, and at step s chain c keeps preimage ``block[s, c]`` of the
    ``_solve`` call on every chain; int64 draws do not depend on how a
    generator's stream is split.
    """
    d = stack.degree
    rows = np.zeros(n_chains, dtype=int)
    # columns of _solve's (2, n_chains * d) result
    picks = rng.integers(d, size=(n_steps, n_chains)) + np.arange(n_chains) * d
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for s, pick in enumerate(picks):
            np.take(_solve(stack, rows, state).reshape(2, -1), pick, axis=1, out=state)
            if kept is not None:
                kept[:, s] = state.T


def _as_point(p) -> np.ndarray:
    if isinstance(p, (tuple, list, np.ndarray)) and len(p) == 2:
        arr = np.array([complex(p[0]), complex(p[1])], dtype=complex)
    else:
        z = complex(p)
        arr = np.array([z, 1.0], dtype=complex) if abs(z) <= 1 else \
            np.array([1.0, 1.0 / z], dtype=complex)
    scale = max(abs(arr[0]), abs(arr[1]))
    return arr / scale


def _to_affine(p) -> complex:
    return p[0] / p[1] if p[1] != 0 else 1e6 + 0j


class IntegralResult:
    def __init__(self, mean: float, stderr: float, n_used: int, n_excluded: int,
                 warn: bool):
        self.mean, self.stderr = mean, stderr
        self.n_used, self.n_excluded, self.warn = n_used, n_excluded, warn


def integrate_mu(R: RationalMapC, f, s: SampleSet) -> IntegralResult:
    """Monte-Carlo integral of f over the sample; -inf/nan values are
    excluded and counted, with a warning status above 1% exclusions."""
    vals = np.asarray(f(s.points), dtype=float)
    finite = np.isfinite(vals)
    kept = vals[finite]
    n_used = int(finite.sum())
    n_exc = int(len(vals) - n_used)
    if n_used == 0:
        return IntegralResult(math.nan, math.nan, 0, n_exc, True)
    mean = float(kept.mean())
    stderr = float(kept.std(ddof=1) / math.sqrt(n_used)) if n_used > 1 else 0.0
    return IntegralResult(mean, stderr, n_used, n_exc, n_exc > 0.01 * len(vals))


def log_det_norm(stack: MapStack, pts: np.ndarray, cell=None) -> np.ndarray:
    """log of the spherical derivative norm at homogeneous points.

    Chart-stable form of log(|f'(z)| (1+|z|^2) / (1+|f(z)|^2)): evaluates
    log|W| + log(|w0|^2+|w1|^2) - log(|P0|^2+|P1|^2) in whichever affine
    chart has coordinate of modulus <= 1, on stack row ``cell[k]`` for
    point k (row 0 without ``cell``); each value is the one map's, bit for
    bit, whatever the other points.
    """
    pts = np.atleast_2d(pts)
    z_chart = np.abs(pts[:, 0]) <= np.abs(pts[:, 1])
    z = np.where(z_chart, _safe_div(pts[:, 0], pts[:, 1]),
                 _safe_div(pts[:, 1], pts[:, 0]))
    out = np.empty(len(pts), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        for mask, w, c0, c1 in ((z_chart, stack._wz, stack.p0c, stack.p1c),
                                (~z_chart, stack._wu, stack._q0, stack._q1)):
            if not mask.any():
                continue
            zz, row = z[mask], 0 if cell is None else np.asarray(cell)[mask]
            wv = np.abs(_horner(w, row, zz))
            v0 = np.abs(_horner(c0, row, zz))
            v1 = np.abs(_horner(c1, row, zz))
            out[mask] = (np.log(wv) + np.log1p(np.abs(zz) ** 2)
                         - np.log(v0 ** 2 + v1 ** 2))
    return out


def _horner(c: np.ndarray, row, x: np.ndarray) -> np.ndarray:
    """The polynomial with ascending coefficients ``c[row[k]]`` at
    ``x[k]``, for every k: ``npoly.polyval``'s Horner scheme, each
    coefficient column gathered in turn, so every value is
    ``npoly.polyval``'s bit for bit."""
    out = c[row, -1] + x * 0
    for j in range(c.shape[1] - 2, -1, -1):
        out = c[row, j] + out * x
    return out


# -- escape-rate oracle ---------------------------------------------------------------


def escape_green(coeffs, z0: complex, n_max: int = 700) -> float:
    """Escape-rate potential of an affine polynomial at a point.

    Iterates the polynomial and returns lim d^{-n} log+ |orbit|.  Once the
    orbit is astronomically large the limit equals
    ``d^{-n} (log|z_n| + log|lead|/(d-1))`` up to a relatively negligible
    tail, so the value is stable to far better than 1e-10.  Orbits that
    never get large within n_max steps contribute 0 (any true escape would
    only add a d^{-n_max}-sized correction).
    """
    c = np.asarray(coeffs, dtype=complex)
    d = len(c) - 1
    if d < 2:
        raise UnsupportedMapError("escape rate needs degree >= 2")
    lead = abs(c[d])
    if lead == 0:
        raise DegenerateMapError("leading coefficient vanished")
    # Horner on Python complex, in npoly.polyval's operation order
    cs = [complex(a) for a in c]
    top, rest = cs[d], cs[d - 1::-1]
    z = complex(z0)
    big = 1e30  # d <= 8 keeps |p(z)| under the float range at this size
    for n in range(1, n_max + 1):
        v = top + z * 0
        for a in rest:
            v = a + v * z
        z = v
        if abs(z) > big:
            return (math.log(abs(z)) + math.log(lead) / (d - 1)) / d ** n
    return 0.0


def przytycki_oracle(R, t: complex) -> float:
    """Independent Lyapunov oracle for polynomial families:
    log d plus the escape-rate potential summed over finite critical points."""
    if not R.is_polynomial():
        raise UnsupportedMapError("oracle requires a polynomial family (P1 = c*w1^d)")
    coeffs = np.array([c.eval(t) for c in R.affine_coeffs], dtype=complex)
    d = len(coeffs) - 1
    if abs(coeffs[d]) == 0:
        raise DegenerateMapError(f"degenerate specialization at t = {t}")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        crit = _roots(_derivative(coeffs)[None])[0] if d > 1 else []
    total = math.log(d)
    for z in crit:
        total += escape_green(coeffs, complex(z))
    return total

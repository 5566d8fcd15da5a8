"""Complex dynamics at a fixed parameter: specialization, integrals against
the measure of maximal entropy by preimage quadrature, and Lyapunov
estimation.

Points on the Riemann sphere are kept as homogeneous pairs (w0, w1) with
sup-norm 1 so that both charts stay numerically safe.  The integrals rest
on the equidistribution of the balanced pullback: ``d^-n Σ_{R^n y = x} δ_y``
converges to the measure of maximal entropy.  The quadrature
(``preimage_levels``) sums over all ``d^n`` branches, level by level, and
reports each cell's value with an error estimate and whether the
differences between levels certify it.  The backward sampler
(``backward_sample``) draws a uniformly random inverse branch at each step
of one map's orbit; with ``integrate_mu`` it stays as the one-cell
Monte-Carlo reference, and ``integrate_mu(R, lambda pts: log_det_norm(R,
pts), s)`` is that reference's Lyapunov exponent.

The quadrature treats a grid of cells, one map each, as one batch: every
burn-in step, quadrature level and integrand evaluation is a numpy call
over the points of all cells, in blocks of bounded size, and a cell's
result is bit for bit what it would be alone.  An integrand ``f(cell,
pts)`` gets the points of many cells at once, ``cell[k]`` being the grid
index of row k; ``MapStack`` and ``log_det_norm(stack, pts, cell)``
evaluate such a batch on its own maps.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import (DegenerateMapError, UnsupportedDegreeError,
                     UnsupportedMapError)

_MAX_ROOT_DEGREE = 8


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
        # chart-z Wronskian p0' p1 - p0 p1', and the 1/z-chart data
        self._wz = _polysub(np.convolve(npoly.polyder(self.p0c), self.p1c),
                            np.convolve(self.p0c, npoly.polyder(self.p1c)))
        self._q0 = self.p1c[::-1].copy()
        self._q1 = self.p0c[::-1].copy()
        self._wu = _polysub(np.convolve(npoly.polyder(self._q0), self._q1),
                            np.convolve(self._q0, npoly.polyder(self._q1)))

    def __repr__(self):
        return f"<RationalMapC deg={self.degree} {self.label!r}>"


class MapStack:
    """The coefficient rows of a grid of maps of one degree, stacked once:
    row i of ``p0c``, ``p1c``, ``_wz``, ``_q0``, ``_q1`` and ``_wu`` is
    ``maps[i]``'s.  ``log_det_norm`` reads a stack as it reads one map,
    taking row ``cell[k]`` for point k."""

    def __init__(self, maps):
        self.maps = list(maps)
        for name in ("p0c", "p1c", "_wz", "_q0", "_q1", "_wu"):
            setattr(self, name, np.array([getattr(R, name) for R in self.maps]))


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


@dataclass
class SampleSet:
    """Backward-orbit sample of the equilibrium measure (seeded, reproducible).

    The points of the chains forked after the burn-in, chain-major: chain
    0's points in walk order, then chain 1's, and so on.
    """

    points: np.ndarray  # (n_keep, 2) complex homogeneous, sup-norm 1
    seed: int
    n_burn: int
    n_keep: int


def _preimages(R: RationalMapC, target: np.ndarray) -> np.ndarray:
    """The d preimages of a homogeneous point, with multiplicity: the roots
    of ``_poly_roots`` in its order, then the points at infinity.  The
    one-point reference that ``_step`` reproduces and falls back to."""
    d = R.degree
    y0, y1 = target
    qc = y1 * R.p0c - y0 * R.p1c  # ascending; roots are the finite preimages
    scale = np.abs(qc).max()
    if scale == 0:
        raise DegenerateMapError("preimage polynomial vanished identically")
    deg = d
    while deg > 0 and abs(qc[deg]) <= 1e-14 * scale:
        deg -= 1
    roots = _poly_roots(qc[: deg + 1]) if deg > 0 else []
    out = np.empty((d, 2), dtype=complex)
    for i, z in enumerate(roots):
        if abs(z) <= 1.0:
            out[i] = (z, 1.0)
        else:
            out[i] = (1.0, 1.0 / z)
    for i in range(deg, d):
        out[i] = (1.0, 0.0)
    return out


def _poly_roots(qc: np.ndarray):
    """Roots of an ascending-coefficient polynomial, as numpy complex128
    values: the quadratic formula on complex128 scalars (root k is what
    ``_quadratic_root`` gives for branch k), the cubic's root k from
    ``_cubic_root``'s branch k, and companion-matrix eigenvalues
    (numpy.roots) for degrees 4 to 8."""
    deg = len(qc) - 1
    if deg == 1:
        return [-qc[0] / qc[1]]
    if deg == 2:
        c, b, a = qc
        sq = np.sqrt(complex(b * b - 4 * a * c))
        if (np.conj(b) * sq).real < 0:
            sq = -sq
        qq = -(b + sq) / 2.0
        if qq == 0:
            return [0.0 + 0j, -b / a]
        return [qq / a, c / qq]
    if deg == 3:
        return list(_cubic_root(np.tile(qc, (3, 1)), np.arange(3)))
    if deg > _MAX_ROOT_DEGREE:
        raise UnsupportedDegreeError(f"preimage degree {deg} > {_MAX_ROOT_DEGREE}")
    try:
        return list(np.roots(qc[::-1]))
    except np.linalg.LinAlgError as exc:
        raise DegenerateMapError(
            f"root finder failed on preimage polynomial {list(qc)}: {exc}")


def _cubic_root(qc: np.ndarray, k) -> np.ndarray:
    """Root ``k[i]`` (0, 1 or 2) of the cubic with ascending coefficient row
    ``qc[i]``, whose leading coefficient must be nonzero.

    Cardano on the depressed cubic: with the monic coefficients B, C, E,
    ``D0 = B^2 - 3C`` and ``D1 = 2B^3 - 9BC + 27E``, the roots are
    ``-(B + u + D0/u) / 3`` for the three cube roots ``u = ω^j U`` of
    ``(D1 + S) / 2``, U the principal one.  The sign of
    ``S = ±√(D1^2 - 4 D0^3)`` makes ``|D1 + S|`` largest, so U vanishes
    only at a triple root, whose root is ``-B/3``.

    The formula is accurate for the root of largest modulus only: beside a
    much larger root, two small roots look like a double root and lose half
    their digits.  So branch j of largest modulus is kept, and branches j+1
    and j+2 (mod 3) are the roots ``qq`` and ``Q/qq`` of the quadratic
    ``z^2 + P z + Q`` left by deflating it from the constant term, solved
    as ``_poly_roots`` solves a quadratic.  No Newton step polishes the
    result: near a double root it can jump to another root, and the three
    branches would no longer be the three roots.

    Every operation is elementwise, so a row's root does not depend on the
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
    branch = (np.asarray(k) - j) % 3
    np.copyto(z, qq, where=branch == 1)
    np.copyto(z, big, where=branch == 0)
    return z


_OMEGA = np.array([1.0, complex(-0.5, math.sqrt(0.75)), complex(-0.5, -math.sqrt(0.75))])


def _quadratic_root(qc: np.ndarray, k) -> np.ndarray:
    """Root ``k[i]`` (0 or 1) of the quadratic with ascending coefficient
    row ``qc[i]`` = (c, b, a), ``a`` nonzero, rounded as ``_poly_roots``
    rounds it: ``qq / a`` and ``c / qq`` with ``qq = -(b + sq) / 2``, the
    sign of ``sq = ±√(b² − 4ac)`` making ``Re(conj(b) sq) >= 0``.  ``qq``
    vanishes only at the double root 0, whose roots are 0 and ``-b / a``.

    ``_poly_roots`` evaluates the discriminant and the branch test on
    complex128 scalars, which round each real product separately, while
    numpy's complex-array multiply may fuse them; so both are written out in
    real arithmetic (``4a``, whose products are exact, stays complex).
    Every operation is elementwise.
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
    first = np.asarray(k) == 0
    z = c / qq
    np.divide(qq, a, out=z, where=first)
    if not qq.all():
        double = qq == 0
        z[double] = np.where(first[double], 0j, -b[double] / a[double])
    return z


def _step(maps, p0: np.ndarray, p1: np.ndarray, y: np.ndarray, k) -> np.ndarray:
    """Preimage ``k[i]`` of the point ``y[:, i]`` under ``maps[i]``, with
    coefficient rows ``p0[i]`` and ``p1[i]``, for every i; ``y`` and the
    result hold the w0 and the w1 row.  Callers silence float warnings.

    Row i is ``_preimages(maps[i], y[:, i])[k[i]]`` bit for bit, whatever
    the other rows: qc is formed by the same array products, the roots come
    from ``_quadratic_root``, ``_cubic_root`` or the stacked companion
    matrices of ``np.roots`` (degrees 4 to 8), and the chart test uses
    ``np.hypot``, because ``np.abs`` on complex arrays can differ from the
    scalar ``abs`` in the last bit.  ``_preimages`` redoes the rows with a
    leading coefficient near the 1e-14 cut (a preimage at infinity) and,
    for degrees 4 to 8, those with an exact zero constant term, which
    ``np.roots`` strips, or a failed eigenvalue solve.
    """
    n, d = p0.shape[0], p0.shape[1] - 1
    qc = y[1, :, None] * p0 - y[0, :, None] * p1
    mag = np.abs(qc)
    # within 10x of the cut: the margin absorbs abs rounding
    redo = mag[:, d:] * 1e13 <= mag[:, :d]
    if d == 1:
        z = -qc[:, 0] / qc[:, 1]
    elif d == 2:
        z = _quadratic_root(qc, k)
    elif d == 3:
        z = _cubic_root(qc, k)
    else:
        # np.roots' companion matrix: first row -p[1:] / p[0], p descending
        comp = np.tile(np.eye(d, k=-1, dtype=complex), (n, 1, 1))
        np.divide(-qc[:, d - 1::-1], qc[:, d:], out=comp[:, 0],
                  where=~redo.any(axis=1)[:, None])
        redo[:, 0] |= qc[:, 0] == 0
        try:
            z = np.linalg.eigvals(comp)[np.arange(n), k]
        except np.linalg.LinAlgError:
            z, redo[:] = np.zeros(n, dtype=complex), True
    inside = np.hypot(z.real, z.imag) <= 1.0
    out = np.empty((2, n), dtype=complex)
    out.fill(1.0)
    np.copyto(out[0], z, where=inside)
    np.divide(1.0, z, out=out[1], where=~inside)
    if np.count_nonzero(redo):
        for i in np.flatnonzero(redo.any(axis=1)):
            out[:, i] = _preimages(maps[i], y[:, i])[k[i]]
    return out


def backward_sample(R: RationalMapC, seed: int, n_burn: int, n_keep: int,
                    start) -> SampleSet:
    """Random backward orbit: one uniformly chosen preimage per step.

    One chain walks ``max(n_burn, 3)`` burn-in steps from ``start``
    (``_burn_in`` with ``default_rng(seed)``, the root of the quadrature);
    starts on (numerically) exceptional points are detected in the first
    three steps and perturbed.  The burned-in point is then forked into
    ``K = min(16, n_keep)`` chains of ``ceil(n_keep / K)`` steps each, and
    the sample is chain-major (chain 0's points, then chain 1's, ...),
    truncated to ``n_keep``.  The one-cell Monte-Carlo reference that
    acceptance criterion 6 samples through.
    """
    if n_keep < 1:
        raise ValueError(f"n_keep must be >= 1, got {n_keep}")
    n_chains = min(_CHAINS, n_keep)
    n_steps = -(-n_keep // n_chains)
    rngs = [np.random.default_rng(seed)]
    state = np.repeat(_burn_in([R], rngs, n_burn, start), n_chains, axis=1)
    kept = np.empty((n_chains, n_steps, 2), dtype=complex)
    for lo, block in _lockstep([R], rngs, state, n_steps, n_chains):
        # block[k] holds step lo + k of every chain, the w0 row and the w1 row
        kept[:, lo: lo + len(block)] = block.transpose(2, 0, 1)
    return SampleSet(points=kept.reshape(-1, 2)[:n_keep], seed=seed,
                     n_burn=n_burn, n_keep=n_keep)


def preimage_levels(maps, seeds, n_burn: int, n_keep: int, start, f) -> list:
    """Integrate ``f`` against the measure of maximal entropy of ``maps[i]``
    by preimage quadrature, for every i: ``I_n = d^-n Σ f(y)`` over all
    ``d^n`` points y with ``R^n y = x``, counted with multiplicity, for the
    root x.

    The root is cell i's burned-in point (``_burn_in`` with
    ``default_rng(seeds[i])``, as ``backward_sample`` starts).  Level 1
    holds the d preimages of the root and level n+1 those of every point of
    level n, all cells at once; a level is entered only while
    ``d^n <= n_keep``.  With ``Δ_n = I_n - I_{n-1}``, a cell is certified
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
    after cell, ``cell[k]`` being the index in ``maps`` of row k.  A cell's
    ``I_n`` is the mean over its own slice, so its result does not depend
    on the other cells or on the blocks.
    """
    d = maps[0].degree
    if d < 2:
        raise UnsupportedMapError("preimage quadrature needs degree >= 2")
    top = 0  # the last level within the budget
    while d ** (top + 1) <= n_keep:
        top += 1
    rngs = [np.random.default_rng(seed) for seed in seeds]
    points = _burn_in(maps, rngs, n_burn, start)
    active = np.arange(len(maps))
    means = [[] for _ in maps]
    peak = [0.0] * len(maps)  # max |f| on a cell's last kept level
    results = [None] * len(maps)
    for level in range(1, top + 1):
        width = d ** level
        points = _branches([maps[i] for i in active], points, d ** (level - 1))
        cell = active.repeat(width)
        vals = np.empty(len(cell))
        for lo in range(0, len(cell), _BLOCK_POINTS):
            hi = lo + _BLOCK_POINTS
            vals[lo:hi] = f(cell[lo:hi], points[:, lo:hi].T)
        vals = vals.reshape(len(active), width)
        finite = np.isfinite(vals).all(axis=1)
        peaks = np.abs(vals).max(axis=1)
        keep = []
        for c, i in enumerate(active):
            hist = means[i]
            if not finite[c]:
                results[i] = _settle(hist, peak[i], d, False)
                continue
            hist.append(float(vals[c].mean()))
            peak[i] = float(peaks[c])
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


def _branches(maps, points: np.ndarray, per_map: int) -> np.ndarray:
    """All d preimages of every point: ``points`` holds the w0 row and the
    w1 row, ``per_map`` consecutive columns per map of ``maps``, and
    column p becomes columns ``p*d, ..., p*d + d - 1`` of the result,
    preimage k of ``_preimages`` in column ``p*d + k``: ``_step`` on each
    point repeated d times, in blocks of at most ``_BLOCK_POINTS``."""
    d, n = maps[0].degree, points.shape[1]
    p0, p1 = np.array([R.p0c for R in maps]), np.array([R.p1c for R in maps])
    out = np.empty((2, n * d), dtype=complex)
    size = max(1, _BLOCK_POINTS // d)
    for lo in range(0, n, size):
        hi = min(n, lo + size)
        cell = np.arange(lo, hi).repeat(d) // per_map
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out[:, lo * d: hi * d] = _step([maps[c] for c in cell], p0[cell], p1[cell],
                                           np.repeat(points[:, lo:hi], d, axis=1),
                                           np.tile(np.arange(d), hi - lo))
    return out


_HEAD_STEPS = 3  # leading steps checked for an exceptional start
_CHAINS = 16  # chains forked from backward_sample's burned-in point
# points per kernel call over all cells and chains: the preimages one _step
# call solves, and the points one integrand call gets; the temporaries of
# both grow with it
_BLOCK_POINTS = 2 * 1024
_QUAD_TOL = 1e-12  # preimage quadrature: certificate on two level differences


def _burn_in(maps, rngs, n_burn: int, start) -> np.ndarray:
    """Every cell's burned-in point, the root of both the quadrature and
    ``backward_sample``: ``max(n_burn, 3)`` steps from ``start`` on one
    chain per cell, the first three checked by ``_head`` and the rest in
    lockstep, all cells at once.  Returns the w0 row and the w1 row, one
    column per cell."""
    d = maps[0].degree
    if any(R.degree != d for R in maps):
        raise UnsupportedMapError("lockstep chains need maps of one degree")
    if d > _MAX_ROOT_DEGREE:
        raise UnsupportedDegreeError(f"preimage degree {d} > {_MAX_ROOT_DEGREE}")
    state = _head(maps, rngs, start)
    for _ in _lockstep(maps, rngs, state, max(n_burn, _HEAD_STEPS) - _HEAD_STEPS, 1):
        pass
    return state


def _lockstep(maps, rngs, state: np.ndarray, n_steps: int, n_chains: int):
    """Walk ``n_chains`` chains per cell for ``n_steps`` steps from
    ``state`` (the w0 row and the w1 row, cell-major columns), which ends
    holding the last step.

    At each block of b steps every cell draws one (b, n_chains) int64
    block from its generator, and chain c takes column c; int64 draws do
    not depend on how the stream is split into blocks.  Yields
    ``(lo, buf[1:b+1])``, steps lo, lo+1, ... of every chain.
    """
    width = state.shape[1]
    d = maps[0].degree
    rows = [R for R in maps for _ in range(n_chains)]
    p0, p1 = np.array([R.p0c for R in rows]), np.array([R.p1c for R in rows])
    size = max(1, _BLOCK_POINTS // width)
    # planar state: buf[k] = (w0 row, w1 row) after k steps of the block
    buf = np.empty((min(size, n_steps) + 1, 2, width), dtype=complex)
    buf[0] = state
    for lo in range(0, n_steps, size):
        b = min(size, n_steps - lo)
        idx = np.concatenate([rng.integers(d, size=(b, n_chains)) for rng in rngs],
                             axis=1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for k in range(b):
                buf[k + 1] = _step(rows, p0, p1, buf[k], idx[k])
        yield lo, buf[1: b + 1]
        buf[0] = buf[b]
    state[...] = buf[0]


def _head(maps, rngs, start) -> np.ndarray:
    """The first ``_HEAD_STEPS`` steps of every cell's chain, all cells at
    once; returns the points they reach, the w0 row and the w1 row.

    At each step ``_branches`` gives the d preimages of the point of every
    cell still in its head, and the cell goes to branch ``rng.integers(d)``
    of its own generator.  A cell whose point has all its preimages within
    chordal distance 1e-12 of it (numerically exceptional) instead perturbs
    its start by ``eps e^(i angle)``, drawing eps and then the angle with
    ``rng.random()``, and restarts; its eighth exceptional point raises.
    The other cells walk on.  Each generator draws what and in which order
    it would with its cell walked alone.
    """
    d, n = maps[0].degree, len(maps)
    first = np.repeat(_as_point(start)[:, None], n, axis=1)  # each cell's start
    current = first.copy()
    steps = np.zeros(n, dtype=int)
    found = np.zeros(n, dtype=int)  # exceptional points met per cell
    walking = np.arange(n)
    while walking.size:
        pre = _branches([maps[i] for i in walking], current[:, walking], 1)
        pre = pre.reshape(2, walking.size, d)
        at = current[:, walking, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            dist = np.abs(pre[0] * at[1] - pre[1] * at[0]) / (
                np.maximum(np.abs(pre[0]), np.abs(pre[1]))
                * np.maximum(np.abs(at[0]), np.abs(at[1])))
        exceptional = (dist < 1e-12).all(axis=1)
        for i in walking[exceptional]:
            found[i] += 1
            if found[i] == 8:
                raise DegenerateMapError("could not move the start off the exceptional set")
            eps = 0.25 + 0.5 * rngs[i].random()
            angle = 2 * math.pi * rngs[i].random()
            first[:, i] = _as_point(_to_affine(first[:, i])
                                    + eps * complex(math.cos(angle), math.sin(angle)))
            current[:, i] = first[:, i]
            steps[i] = 0
        moving = ~exceptional
        branch = np.array([rngs[i].integers(d) for i in walking[moving]], dtype=int)
        current[:, walking[moving]] = pre[:, moving][:, np.arange(len(branch)), branch]
        steps[walking[moving]] += 1
        walking = walking[steps[walking] < _HEAD_STEPS]
    return current


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


@dataclass
class IntegralResult:
    mean: float
    stderr: float
    n_used: int
    n_excluded: int
    warn: bool


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


def log_det_norm(R, pts: np.ndarray, cell=None) -> np.ndarray:
    """log of the spherical derivative norm at homogeneous points.

    Chart-stable form of log(|f'(z)| (1+|z|^2) / (1+|f(z)|^2)): evaluates
    log|W| + log(|w0|^2+|w1|^2) - log(|P0|^2+|P1|^2) in whichever affine
    chart has coordinate of modulus <= 1.  ``R`` is one map, or a
    ``MapStack`` with ``cell[k]`` the row of point k; each value is the one
    map's, bit for bit, whatever the other points.
    """
    pts = np.atleast_2d(pts)
    z_chart = np.abs(pts[:, 0]) <= np.abs(pts[:, 1])
    z = np.where(z_chart, _safe_div(pts[:, 0], pts[:, 1]),
                 _safe_div(pts[:, 1], pts[:, 0]))
    out = np.empty(len(pts), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        for mask, w, c0, c1 in ((z_chart, R._wz, R.p0c, R.p1c),
                                (~z_chart, R._wu, R._q0, R._q1)):
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
    ``x[k]``, for every k (``c`` one row, and ``row`` 0, for one
    polynomial): ``npoly.polyval``'s Horner scheme, each coefficient column
    gathered in turn, so every value is ``npoly.polyval``'s bit for bit."""
    c = np.atleast_2d(c)
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
    coeffs = np.array([c.eval(t) for c in R.affine_coeffs()], dtype=complex)
    d = len(coeffs) - 1
    if abs(coeffs[d]) == 0:
        raise DegenerateMapError(f"degenerate specialization at t = {t}")
    deriv = npoly.polyder(coeffs)
    crit = np.roots(deriv[::-1]) if d > 1 else []
    total = math.log(d)
    for z in crit:
        total += escape_green(coeffs, complex(z))
    return total

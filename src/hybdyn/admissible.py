"""Admissible data and their model functions.

An admissible datum is a degree together with finitely many homogeneous
sections with Laurent coefficients.  On a complex fiber it produces the
log-max of the section norms in the Fubini-Study reference metric; on the
non-Archimedean side the analogous quantity in the sup-of-coordinates
(canonical) metric, whose values are exact rational multiples of log r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import LaurentError, ParseError, PrecisionError
from .poly import iterate_pair, ramification

_INF = math.inf


@dataclass(frozen=True)
class AdmissibleDatum:
    """Degree d >= 1 plus a nonempty list of degree-d sections in w0..wk."""

    degree: int
    k: int
    sections: tuple

    def __init__(self, degree: int, k: int, sections):
        sections = tuple(sections)
        if not sections:
            raise ParseError("admissible datum needs at least one section")
        if degree < 1:
            raise ParseError("admissible datum degree must be >= 1")
        for s in sections:
            if s.nvars != k + 1:
                raise ParseError("section variable count does not match k")
            if s.degree != degree:
                raise ParseError(
                    f"section degree {s.degree} does not match datum degree {degree}")
        if all(s.is_zero() for s in sections):
            raise ParseError("all sections are zero")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "sections", sections)

    def truncation_order(self):
        """Residual truncation order across all section coefficients."""
        return min(s.truncation_order() for s in self.sections)

    def is_regular_at(self, z, t: complex, tol: float = 1e-12) -> bool:
        """No common zero of the sections at the complex fiber point (z, t)."""
        vals = [abs(complex(s.eval_numeric(z, t))) for s in self.sections]
        scale = max(max(abs(complex(c.eval(t))) for c in s.coeffs.values())
                    for s in self.sections if s.coeffs)
        return max(vals) > tol * max(scale, 1.0)


def datum_regular(F: AdmissibleDatum, t_values, n_points: int = 64,
                  seed: int = 0, tol: float = 1e-9) -> bool:
    """Sampled regularity check: no common zero on a grid of fiber points.

    A lazy stand-in for zero-freeness of the section family; scheme-level
    verticality is out of scope, and a False here only means a common zero
    was actually hit on the sampled fibers.
    """
    rng = np.random.default_rng(seed)
    z = [rng.normal(size=n_points) + 1j * rng.normal(size=n_points)
         for _ in range(F.k + 1)]
    for t in t_values:
        best = None
        for s in F.sections:
            v = np.abs(s.eval_numeric(z, complex(t)))
            best = v if best is None else np.maximum(best, v)
        scale = max(max((abs(complex(c.eval(complex(t)))) for c in s.coeffs.values()),
                        default=0.0) for s in F.sections)
        if np.min(best) <= tol * max(scale, 1.0):
            return False
    return True


def phi_complex(F: AdmissibleDatum, z, t: complex, root: complex | None = None):
    """log max section norm in the Fubini-Study metric at homogeneous z.

    Scale-invariant in z; returns -inf when every section vanishes at (z, t).
    Accepts numpy arrays in the coordinates (shape (...,) each).  For
    ramified coefficients ``root`` is a branch of ``t^(1/L)``, L the
    ``ramification`` of the sections.
    """
    w = [np.asarray(x, dtype=complex) for x in z]
    scale = np.maximum.reduce([np.abs(x) for x in w])
    if np.any(scale == 0):
        raise LaurentError("z must be a nonzero homogeneous vector")
    w = [x / scale for x in w]
    ram = ramification(F.sections)
    best = None
    for s in F.sections:
        v = np.abs(s.eval_numeric(w, t, root, ram))
        best = v if best is None else np.maximum(best, v)
    sq = np.add.reduce([np.abs(x) ** 2 for x in w])
    with np.errstate(divide="ignore"):
        out = np.log(best) - (F.degree / 2.0) * np.log(sq)
    if out.ndim == 0:
        return float(out)
    return out


def phi_canonical(F: AdmissibleDatum, z, t: complex, root: complex | None = None):
    """log max section norm in the sup-of-coordinates metric at homogeneous z.

    This is the complex-fiber counterpart of the non-Archimedean model value;
    the hybrid gluing uses it so that the two sides match without a bounded
    Fubini-Study correction.  ``root`` is as in ``phi_complex``.
    """
    w = [np.asarray(x, dtype=complex) for x in z]
    scale = np.maximum.reduce([np.abs(x) for x in w])
    if np.any(scale == 0):
        raise LaurentError("z must be a nonzero homogeneous vector")
    w = [x / scale for x in w]
    ram = ramification(F.sections)
    best = None
    for s in F.sections:
        v = np.abs(s.eval_numeric(w, t, root, ram))
        best = v if best is None else np.maximum(best, v)
    with np.errstate(divide="ignore"):
        out = np.log(best)  # max coordinate norm is 1 after scaling
    if out.ndim == 0:
        return float(out)
    return out


def g_na_exponent(F: AdmissibleDatum, xi):
    """Exponent q with g = q * log r at a Berkovich point (exact Fraction).

    Accepts a TypeIIPoint (k = 1, or the Gauss point for any k) or a TypeIPoint
    given by Laurent homogeneous coordinates.  Returns ``math.inf`` when every
    section vanishes at the point (the value is then -inf in log scale).
    """
    from .berkovich import TypeIIPoint, TypeIPoint, homog_seminorm

    if isinstance(xi, TypeIPoint):
        if len(xi.coords) != F.k + 1:
            raise LaurentError("point dimension does not match the datum")
        coord_ord = min(c.order() for c in xi.coords)
        exps = []
        for s in F.sections:
            val = s.eval_series(list(xi.coords))
            if val.is_zero() and not val.is_exact_zero():
                raise PrecisionError(
                    "section value is zero only to truncation at the type-I point")
            exps.append(val.order() if val.terms else _INF)
        q = min(exps)
        if q == _INF:
            return _INF
        return q - F.degree * coord_ord
    if isinstance(xi, TypeIIPoint):
        if F.k == 1:
            exps = [homog_seminorm(s, xi) for s in F.sections]
            q = min(exps)
            return q
        if not xi.is_gauss():
            raise LaurentError("k > 1 data can only be evaluated at the Gauss point")
        exps = []
        for s in F.sections:
            q = min((c.order() for c in s.coeffs.values()), default=_INF)
            exps.append(q)
        return min(exps)
    raise LaurentError(f"unsupported point type {type(xi).__name__}")


def g_na(F: AdmissibleDatum, xi, r: float) -> float:
    """Model value max_i log|section_i| - d log max_j |w_j| at a Berkovich point."""
    q = g_na_exponent(F, xi)
    if q == _INF:
        return -_INF
    return float(q) * math.log(r)


def datum_tensor(F: AdmissibleDatum, G: AdmissibleDatum) -> AdmissibleDatum:
    """Tensor datum: degree d + d', sections all pairwise products."""
    if F.k != G.k:
        raise ParseError("tensor requires data on the same dimension")
    sections = [a * b for a in F.sections for b in G.sections]
    return AdmissibleDatum(degree=F.degree + G.degree, k=F.k, sections=sections)


def datum_max(F: AdmissibleDatum, G: AdmissibleDatum) -> AdmissibleDatum:
    """Max datum of degree lcm(d, d') realizing max(lcm/d * phi, lcm/d' * phi')."""
    if F.k != G.k:
        raise ParseError("max requires data on the same dimension")
    delta = F.degree * G.degree // gcd(F.degree, G.degree)
    sections = [s ** (delta // F.degree) for s in F.sections]
    sections += [s ** (delta // G.degree) for s in G.sections]
    return AdmissibleDatum(degree=delta, k=F.k, sections=sections)


def iterate_datum(R, n: int) -> AdmissibleDatum:
    """Datum of degree d**n whose sections are the homogeneous n-th iterates."""
    if n < 1:
        raise LaurentError("iterate count must be >= 1")
    q0, q1 = iterate_pair(R.p0, R.p1, n)
    return AdmissibleDatum(degree=R.degree ** n, k=1, sections=(q0, q1))


def phi_iterate(R, n: int, z, t: complex, metric: str = "fs"):
    """Numerically stable evaluation of d**-n times the n-th iterate's model
    function at complex fiber points.

    Equal (by telescoping the orbit) to ``phi_complex(iterate_datum(R, n),
    z, t) / d**n``, but accumulates renormalized one-step factors instead of
    evaluating the huge iterate polynomial, whose direct evaluation loses all
    precision after a few steps.  ``metric`` is "fs" (Fubini-Study reference)
    or "max" (sup of coordinates).
    """
    if n < 0:
        raise LaurentError("iterate count must be >= 0")
    d = R.degree
    w0 = np.asarray(z[0], dtype=complex)
    w1 = np.asarray(z[1], dtype=complex)
    scale = np.maximum(np.abs(w0), np.abs(w1))
    if np.any(scale == 0):
        raise LaurentError("z must be a nonzero homogeneous vector")
    w0, w1 = w0 / scale, w1 / scale
    if metric == "fs":
        base = -0.5 * np.log(np.abs(w0) ** 2 + np.abs(w1) ** 2)
    elif metric == "max":
        base = np.zeros_like(np.abs(w0))
    else:
        raise LaurentError(f"unknown metric {metric!r}")
    acc = np.zeros_like(base)
    with np.errstate(divide="ignore"):
        for j in range(n):
            v0 = R.p0.eval_numeric((w0, w1), t)
            v1 = R.p1.eval_numeric((w0, w1), t)
            m = np.maximum(np.abs(v0), np.abs(v1))
            acc = acc + np.log(m) / d ** (j + 1)
            with np.errstate(invalid="ignore"):
                w0, w1 = np.where(m > 0, v0 / np.where(m > 0, m, 1.0), 0.0), \
                    np.where(m > 0, v1 / np.where(m > 0, m, 1.0), 0.0)
    out = acc + base
    if out.ndim == 0:
        return float(out)
    return out


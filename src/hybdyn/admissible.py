"""Admissible data and their model functions.

An admissible datum is a degree together with finitely many homogeneous
sections with Laurent coefficients.  On a complex fiber it produces the
log-max of the section norms in the Fubini-Study reference metric; on the
non-Archimedean side the analogous quantity in the sup-of-coordinates
(canonical) metric, whose values are exact rational multiples of log r.
The complex evaluators import numpy when called; the non-Archimedean side
never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd

from .errors import DegenerateMapError, LaurentError, ParseError, PrecisionError
from .poly import iterate_pair

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


def datum_regular(F: AdmissibleDatum, t_values) -> bool:
    """Whether the sections of a datum on P^1 have no common zero on the
    fiber of any parameter in ``t_values``, decided from resultants: two
    sections share a zero at t exactly when ``_det_laurent(sylvester_matrix(
    a, b))`` vanishes there, by ``cxdyn.specialize``'s rule (``_shifted_eval``'s
    rounding bound for an exact series, ``RationalMapC``'s float check for a
    truncated one).  With more than two sections a fiber passes when some
    pair's resultant is nonzero there, which suffices but is not necessary.
    """
    from .berkovich import _det_laurent, sylvester_matrix
    from .cxdyn import RationalMapC, _shifted_eval

    if F.k != 1:
        raise LaurentError(f"datum_regular needs a datum on P^1, got k = {F.k}")
    pairs = [(a, b, _det_laurent(sylvester_matrix(a, b)))
             for i, a in enumerate(F.sections) for b in F.sections[i + 1:]]

    def apart(a, b, res, t):
        if res.trunc is None:
            value, bound = _shifted_eval(res, t)
            return abs(value) > bound
        try:
            RationalMapC(*([c.eval(t) for c in s.dehomogenized()] for s in (a, b)))
        except DegenerateMapError:
            return False
        return True

    return all(any(apart(*pair, complex(t)) for pair in pairs) for t in t_values)


def _sup_normalized(z):
    """Homogeneous coordinates divided by their largest modulus."""
    import numpy as np

    w = [np.asarray(x, dtype=complex) for x in z]
    # pairwise, without stacking the moduli into one 2-D array
    scale = np.abs(w[0])
    for x in w[1:]:
        scale = np.maximum(scale, np.abs(x))
    if np.any(scale == 0):
        raise LaurentError("z must be a nonzero homogeneous vector")
    return [x / scale for x in w]


def _fubini_study(w):
    """log of the Fubini-Study norm sqrt(sum |w_j|^2) of a coordinate vector."""
    import numpy as np

    return 0.5 * np.log(np.add.reduce([np.abs(x) ** 2 for x in w]))


def _as_output(out):
    return float(out) if out.ndim == 0 else out


def coefficient_tables(F: AdmissibleDatum, ts) -> list:
    """Each section's ``coefficient_table`` at the sequence of parameters
    ``ts``, evaluated once for a grid: what ``phi_canonical`` takes as ``t``
    with ``cell``."""
    return [s.coefficient_table(ts) for s in F.sections]


def phi_canonical(F: AdmissibleDatum, z, t, cell=None):
    """log max section norm in the sup-of-coordinates metric at homogeneous z.

    The one complex model-function evaluator: ``phi_complex`` and
    ``phi_iterate`` are built on it.  It is the complex-fiber counterpart of
    the non-Archimedean model value; the hybrid gluing uses it so that the two
    sides match without a bounded Fubini-Study correction.  Scale-invariant in
    z; returns -inf when every section vanishes at (z, t).  Accepts numpy
    arrays in the coordinates (shape (...,) each).  Fractional powers of t
    take the principal branch of ``LaurentSeries.eval``.  With ``cell``, of
    the coordinates' shape, ``t`` is ``coefficient_tables(F, ts)`` for a
    sequence of parameters ``ts``, and point k is evaluated at
    ``ts[cell[k]]``, bit for bit as alone at that parameter.
    """
    import numpy as np

    w = _sup_normalized(z)
    best = None
    for i, s in enumerate(F.sections):
        v = np.abs(s.eval_numeric(w, t if cell is None else t[i], cell))
        best = v if best is None else np.maximum(best, v)
    with np.errstate(divide="ignore"):
        out = np.log(best)  # max coordinate norm is 1 after scaling
    return _as_output(out)


def phi_complex(F: AdmissibleDatum, z, t: complex):
    """log max section norm in the Fubini-Study metric at homogeneous z.

    Acceptance criterion 3 states the tensor and max algebra of model
    functions through this name.  It is ``phi_canonical`` minus the
    Fubini-Study term ``d * log sqrt(sum |w_j|^2)`` at the sup-normalized
    point, with the same arguments and the same -inf convention.
    """
    w = _sup_normalized(z)
    return _as_output(phi_canonical(F, w, t) - F.degree * _fubini_study(w))


def g_na_exponent(F: AdmissibleDatum, xi):
    """Exponent q with g = q * log r at a Berkovich point (exact Fraction).

    The non-Archimedean model-function evaluator, the counterpart of
    ``phi_canonical``; on type-II points of the line it is the min over the
    sections of ``homog_seminorm``, as in the Green and Lyapunov routines.
    Accepts a TypeIIPoint (k = 1, or the Gauss point for any k) or a TypeIPoint
    given by Laurent homogeneous coordinates.  Returns ``math.inf`` when every
    section vanishes at the point (the value is then -inf in log scale).
    """
    from .berkovich import TypeIIPoint, TypeIPoint, _section_exponent

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
            return _section_exponent(F.sections, xi)
        if not xi.is_gauss():
            raise LaurentError("k > 1 data can only be evaluated at the Gauss point")
        return min(s.min_coeff_order() for s in F.sections)
    raise LaurentError(f"unsupported point type {type(xi).__name__}")


def g_na(F: AdmissibleDatum, xi, r: float) -> float:
    """Model value max_i log|section_i| - d log max_j |w_j| at a Berkovich point."""
    q = g_na_exponent(F, xi)
    if q == _INF:
        return -_INF
    return float(q) * math.log(r)


def datum_tensor(F: AdmissibleDatum, G: AdmissibleDatum) -> AdmissibleDatum:
    """Tensor datum: degree d + d', sections all pairwise products.

    Acceptance criterion 3 states the additivity of model functions under
    tensor products through this name."""
    if F.k != G.k:
        raise ParseError("tensor requires data on the same dimension")
    sections = [a * b for a in F.sections for b in G.sections]
    return AdmissibleDatum(degree=F.degree + G.degree, k=F.k, sections=sections)


def datum_max(F: AdmissibleDatum, G: AdmissibleDatum) -> AdmissibleDatum:
    """Max datum of degree lcm(d, d') realizing max(lcm/d * phi, lcm/d' * phi').

    Acceptance criterion 3 states the max rule of model functions through
    this name."""
    if F.k != G.k:
        raise ParseError("max requires data on the same dimension")
    delta = F.degree * G.degree // gcd(F.degree, G.degree)
    sections = [s ** (delta // F.degree) for s in F.sections]
    sections += [s ** (delta // G.degree) for s in G.sections]
    return AdmissibleDatum(degree=delta, k=F.k, sections=sections)


def iterate_datum(R, n: int) -> AdmissibleDatum:
    """Datum of degree d**n whose sections are the homogeneous n-th iterates
    (the symbolic reference that ``phi_iterate`` is checked against)."""
    if n < 1:
        raise LaurentError("iterate count must be >= 1")
    q0, q1 = iterate_pair(R.p0, R.p1, n)
    return AdmissibleDatum(degree=R.degree ** n, k=1, sections=(q0, q1))


def phi_iterate(R, n: int, z, t: complex):
    """Numerically stable evaluation of d**-n times the n-th iterate's model
    function at complex fiber points.

    Acceptance criterion 4 (the key estimate) is stated through this name.
    Equal (by telescoping the orbit) to ``phi_complex(iterate_datum(R, n),
    z, t) / d**n``: the Fubini-Study term at z plus ``d**-(j+1)`` times
    ``phi_canonical`` of the one-step datum at each sup-normalized orbit point
    ``R^j(z)``.  This avoids evaluating the huge iterate polynomial, whose
    direct evaluation loses all precision after a few steps.  Where the orbit
    meets a common zero of the two sections (a degenerate fiber) the value
    is -inf, as for the iterate datum.
    """
    if n < 0:
        raise LaurentError("iterate count must be >= 0")
    one_step = AdmissibleDatum(R.degree, 1, (R.p0, R.p1))
    w = _sup_normalized(z)
    out = -_fubini_study(w)
    for j in range(n):
        out = out + phi_canonical(one_step, w, t) / R.degree ** (j + 1)
        v0, v1 = (p.eval_numeric(w, t) for p in (R.p0, R.p1))
        # past a common zero the value stays -inf; any nonzero point continues
        w = _sup_normalized([v0 + ((v0 == 0) & (v1 == 0)), v1])
    return _as_output(out)

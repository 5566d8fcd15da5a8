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
from math import gcd

from .berkovich import TypeIIPoint, TypeIPoint, _section_exponent
from .errors import LaurentError, ParseError, PrecisionError
from .poly import exact_form, iterate_pair, resultant

_INF = math.inf


class AdmissibleDatum:
    """Degree d >= 1 plus a nonempty list of degree-d binary forms: every
    datum lives on P^1."""

    def __init__(self, degree: int, sections):
        sections = tuple(sections)
        if not sections:
            raise ParseError("admissible datum needs at least one section")
        if degree < 1:
            raise ParseError("admissible datum degree must be >= 1")
        for s in sections:
            if s.degree != degree:
                raise ParseError(
                    f"section degree {s.degree} does not match datum degree {degree}")
        if all(s.is_zero() for s in sections):
            raise ParseError("all sections are zero")
        self.degree, self.sections = degree, sections

    def truncation_order(self):
        """Residual truncation order across all section coefficients."""
        return min(s.truncation_order() for s in self.sections)


def datum_regular(F: AdmissibleDatum, t_values) -> bool:
    """Whether the sections of a datum on P^1 have no common zero on the
    fiber of any parameter in ``t_values``, decided from resultants: two
    sections share a zero at t exactly when their resultant vanishes there,
    by ``cxdyn.specialize``'s rule.  Each resultant is formed once, exactly,
    from the sections' doubles (``poly.exact_form``).  With more than two
    sections a fiber passes when some pair's resultant is nonzero there,
    which suffices but is not necessary.  A resultant that no double holds
    raises PrecisionError (``poly.resultant``), since it decides nothing.
    """
    from .cxdyn import _shifted_eval

    forms = [exact_form(s) for s in F.sections]
    pairs = [resultant(a, b) for i, a in enumerate(forms) for b in forms[i + 1:]]

    def apart(res, t):
        value, bound = _shifted_eval(res, t)
        return abs(value) > bound

    return all(any(apart(res, complex(t)) for res in pairs) for t in t_values)


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
    Accepts a TypeIIPoint or a TypeIPoint given by Laurent homogeneous
    coordinates.  Returns ``math.inf`` when every section vanishes at the
    point (the value is then -inf in log scale).
    """
    if isinstance(xi, TypeIPoint):
        coord_ord = min(c.order() for c in xi.coords)
        exps = []
        for s in F.sections:
            val = s.eval_series(xi.coords)
            if val.is_zero() and not val.is_exact_zero():
                raise PrecisionError(
                    "section value is zero only to truncation at the type-I point")
            exps.append(val.order() if val.terms else _INF)
        q = min(exps)
        if q == _INF:
            return _INF
        return q - F.degree * coord_ord
    if isinstance(xi, TypeIIPoint):
        return _section_exponent(F.sections, xi)
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
    sections = [a * b for a in F.sections for b in G.sections]
    return AdmissibleDatum(F.degree + G.degree, sections)


def datum_max(F: AdmissibleDatum, G: AdmissibleDatum) -> AdmissibleDatum:
    """Max datum of degree lcm(d, d') realizing max(lcm/d * phi, lcm/d' * phi').

    Acceptance criterion 3 states the max rule of model functions through
    this name."""
    delta = F.degree * G.degree // gcd(F.degree, G.degree)
    sections = [s ** (delta // F.degree) for s in F.sections]
    sections += [s ** (delta // G.degree) for s in G.sections]
    return AdmissibleDatum(delta, sections)


def iterate_datum(R, n: int) -> AdmissibleDatum:
    """Datum of degree d**n whose sections are the homogeneous n-th iterates
    (the symbolic reference that ``phi_iterate`` is checked against)."""
    if n < 1:
        raise LaurentError("iterate count must be >= 1")
    q0, q1 = iterate_pair(R.p0, R.p1, n)
    return AdmissibleDatum(R.degree ** n, (q0, q1))


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
    one_step = AdmissibleDatum(R.degree, (R.p0, R.p1))
    w = _sup_normalized(z)
    out = -_fubini_study(w)
    for j in range(n):
        out = out + phi_canonical(one_step, w, t) / R.degree ** (j + 1)
        v0, v1 = (p.eval_numeric(w, t) for p in (R.p0, R.p1))
        # past a common zero the value stays -inf; any nonzero point continues
        w = _sup_normalized([v0 + ((v0 == 0) & (v1 == 0)), v1])
    return _as_output(out)

"""Evaluation semantics of the hybrid circle and the hybrid fibration.

Points of the hybrid circle of radius r are either interior (a complex
parameter t with 0 < |t| <= r) or central.  A Laurent series evaluates to
``|f(t)| ** (log r / log |t|)`` at an interior point and to ``r ** ord(f)``
at the central one; the interior exponent interpolates between the usual
absolute value on the circle |t| = r and the t-adic norm in the center.

Points of the fibration carry, on top of the base point, either complex
homogeneous fiber coordinates (interior) or a Berkovich point (central).
The model value of an admissible datum glues the scaled complex model
function to the non-Archimedean one; the complex side uses the
sup-of-coordinates reference metric so that the gluing is exact for
monomial data.
"""

from __future__ import annotations

import math

from .berkovich import TypeIIPoint, TypeIPoint
from .errors import LaurentError
from .laurent import LaurentSeries


class HybridPoint:
    """Point of the hybrid circle of radius r: interior (t) or central (t=None)."""

    def __init__(self, r: float, t: complex | None = None):
        if not 0.0 < r < 1.0:
            raise LaurentError("radius must lie in (0, 1)")
        if t is not None and not 0.0 < abs(complex(t)) <= r:
            raise LaurentError(
                f"interior points need 0 < |t| <= r, got |t| = {abs(complex(t))}")
        self.r, self.t = r, t

    @property
    def is_central(self) -> bool:
        return self.t is None

    @classmethod
    def interior(cls, t: complex, r: float) -> "HybridPoint":
        return cls(r=r, t=complex(t))

    @classmethod
    def central(cls, r: float) -> "HybridPoint":
        return cls(r=r, t=None)


class HybridFiberPoint:
    """Fiber point over the hybrid circle.

    ``fiber`` is a tuple of complex homogeneous coordinates for an interior
    base, or a Berkovich point (TypeIIPoint / TypeIPoint) for the central one.
    """

    def __init__(self, base: HybridPoint, fiber):
        if base.is_central:
            if not isinstance(fiber, (TypeIIPoint, TypeIPoint)):
                raise LaurentError("central fiber points carry a Berkovich point")
        else:
            try:
                fiber = tuple(complex(c) for c in fiber)
            except TypeError:
                raise LaurentError("interior fiber points carry complex coordinates")
            if all(c == 0 for c in fiber):
                raise LaurentError("fiber coordinates must be a nonzero vector")
        self.base, self.fiber = base, fiber

    @classmethod
    def interior(cls, z, t: complex, r: float) -> "HybridFiberPoint":
        """Embed a complex fiber point over the parameter t."""
        return cls(HybridPoint.interior(t, r), tuple(z))

    @classmethod
    def central(cls, xi, r: float) -> "HybridFiberPoint":
        """Embed a Berkovich point into the central fiber."""
        return cls(HybridPoint.central(r), xi)


def tau_eval(f: LaurentSeries, p: HybridPoint) -> float:
    """Seminorm of a series at a hybrid-circle point.

    Interior: |f(t)| ** (log r / log |t|); central: r ** ord(f) (0 for the
    zero series).  An honest-to-goodness pole at the evaluation parameter is
    flagged with +inf.
    """
    if p.is_central:
        if f.is_zero():
            return 0.0
        return p.r ** float(f.order())
    t = complex(p.t)
    exponent = math.log(p.r) / math.log(abs(t))
    try:
        value = abs(f.eval(t))
    except OverflowError:
        return math.inf
    if value == 0.0:
        return 0.0
    if math.isinf(value):
        return math.inf
    return value ** exponent


def scaling_n(p: HybridPoint) -> float:
    """Scaling factor in [0, 1]: log r / log |t| on the interior, 0 centrally.

    Equals 1 on the circle |t| = r and decreases to 0 as t approaches the
    central point (|t| = r**k maps to 1/k).
    """
    if p.is_central:
        return 0.0
    return math.log(p.r) / math.log(abs(complex(p.t)))


def hybrid_model_value(F, x: HybridFiberPoint) -> float:
    """Model value of a datum (``admissible.AdmissibleDatum``) at a hybrid
    fiber point.

    Interior fibers: scaling factor times the complex model value in the
    sup-of-coordinates metric; central fiber: the non-Archimedean model value.
    The gluing is continuous in the degeneration limit.  Acceptance
    criterion 2 (hybrid continuity) is stated through this name.
    """
    from .admissible import g_na, phi_canonical

    if x.base.is_central:
        return g_na(F, x.fiber, x.base.r)
    n = scaling_n(x.base)
    return n * phi_canonical(F, x.fiber, complex(x.base.t))

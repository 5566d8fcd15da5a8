"""Shared exception types."""


class HybdynError(Exception):
    """Base class for all library errors."""


class LaurentError(HybdynError, ValueError):
    """Invalid series operation (evaluation at a pole, a radius outside (0, 1), ...)."""


class PrecisionError(LaurentError):
    """An operation consumed all available truncation precision.

    Raised instead of returning a silently wrong order/seminorm when the
    stored terms of a truncated series cannot decide the result.
    """


class ParseError(HybdynError, ValueError):
    """Syntax or structural error in a textual input.

    ``position`` is the byte offset of the offending token in the input.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class DegenerateFamilyError(HybdynError, ValueError):
    """The resultant vanishes identically: not a genuine degree-d family."""


class DegenerateMapError(HybdynError, ValueError):
    """A specialized complex map has (numerically) vanishing resultant."""


class ChartError(HybdynError, ValueError):
    """A Berkovich point cannot be represented or compared in the standard charts."""


class UnsupportedDegreeError(HybdynError, ValueError):
    """Root finding requested for a degree outside the supported range."""


class UnsupportedMapError(HybdynError, ValueError):
    """Operation requires a polynomial (or otherwise restricted) map."""


class NoRepellingCycleError(UnsupportedMapError):
    """A map has no repelling cycle of a short period to root a quadrature at."""


class ConfigError(HybdynError, ValueError):
    """Invalid experiment configuration."""


class ConventionError(HybdynError, RuntimeError):
    """A normalization convention check failed (e.g. negative tree mass)."""

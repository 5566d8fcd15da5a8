"""Shipped example families and datum pairs used by the test suites and docs."""

from __future__ import annotations

from .parser import RationalMapFamily, parse_sections

#: families exercised by the verification suites
FAMILY_TEXTS = (
    "z^2",
    "z^2 - 2",
    "z^2 + 1/t",
    "z^2 + t*z",
    "(z^2 - t)/z",
    "z^3 + t*z",
)


def shipped_datum_pairs() -> list:
    """Three datum pairs covering equal and mixed degrees."""
    return [
        (parse_sections(["w0", "w1"], d=1), parse_sections(["t*w0", "t*w1"], d=1)),
        (parse_sections(["t*w0", "w1"], d=1), parse_sections(["w0^2", "t*w1^2", "w0*w1"], d=2)),
        (parse_sections(["w0^2 + t*w1^2", "w1^2"], d=2), parse_sections(["t^2*w0", "w1"], d=1)),
    ]


def twisted_lift(family: RationalMapFamily, power: int = 1) -> RationalMapFamily:
    """Same map with both sections multiplied by t**power (a different lift)."""
    from .laurent import LaurentSeries

    s = LaurentSeries.t_power(power)
    return RationalMapFamily(family.degree, family.p0 * s, family.p1 * s,
                             label=f"{family.label} (t^{power} lift)")

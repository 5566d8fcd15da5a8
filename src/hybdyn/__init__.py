"""Degeneration of rational-map families: complex equilibrium measures and
Lyapunov exponents for small parameters, the non-Archimedean side over
Laurent series, and hybrid-space evaluations comparing the two.

The complex layer ``cxdyn`` is the one module that needs numpy at import; it
and its names load on first access, so the non-Archimedean side runs without
numpy."""

import importlib

from .laurent import LaurentSeries
from .poly import HomogeneousPoly
from .parser import (RationalMapFamily, parse_family, parse_section,
                     parse_sections, parse_series)
from .admissible import (AdmissibleDatum, datum_max, datum_regular,
                         datum_tensor, g_na, g_na_exponent, iterate_datum,
                         phi_canonical, phi_complex, phi_iterate)
from .hybrid import (HybridFiberPoint, HybridPoint, hybrid_model_value,
                     scaling_n, tau_eval)
from .berkovich import (BerkTree, GreenEvaluator, TreeMeasure, TypeIIPoint,
                        TypeIPoint, build_probe_tree, homog_seminorm,
                        na_lyapunov, poly_seminorm, resultant_valuation,
                        subtree_span, tree_ma)

_CXDYN_NAMES = ("RationalMapC", "SampleSet", "backward_sample", "integrate_mu",
                "lyapunov_complex", "przytycki_oracle", "specialize")

__version__ = "0.1.0"


def __getattr__(name):
    if name == "cxdyn" or name in _CXDYN_NAMES:
        cxdyn = importlib.import_module(".cxdyn", __name__)
        return cxdyn if name == "cxdyn" else getattr(cxdyn, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), "cxdyn", *_CXDYN_NAMES})

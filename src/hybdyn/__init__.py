"""Degeneration of rational-map families: complex equilibrium measures and
Lyapunov exponents for small parameters, the non-Archimedean side over
Laurent series, and hybrid-space evaluations comparing the two.

``import hybdyn`` loads the non-Archimedean core (``laurent``, ``poly``,
``parser``, ``berkovich``).  The layers only some experiments run on load on
first access to them or to their names below: ``admissible`` and ``hybrid``,
and the complex layer ``cxdyn``, the one module that needs numpy at import.
So the non-Archimedean side runs without numpy, and ``na-measure`` loads
none of the three."""

import importlib

from .laurent import LaurentSeries
from .poly import HomogeneousPoly
from .parser import (RationalMapFamily, parse_family, parse_section,
                     parse_sections, parse_series)
from .berkovich import (BerkTree, GreenEvaluator, TreeMeasure, TypeIIPoint,
                        TypeIPoint, build_probe_tree, homog_seminorm,
                        na_lyapunov, resultant_valuation, subtree_span,
                        tree_ma)

_LAZY = {
    "admissible": ("AdmissibleDatum", "datum_max", "datum_regular", "datum_tensor",
                   "g_na", "g_na_exponent", "iterate_datum", "phi_canonical",
                   "phi_complex", "phi_iterate"),
    "hybrid": ("HybridFiberPoint", "HybridPoint", "hybrid_model_value", "scaling_n",
               "tau_eval"),
    "cxdyn": ("RationalMapC", "SampleSet", "backward_sample", "integrate_mu",
              "przytycki_oracle", "specialize"),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name):
    module = name if name in _LAZY else _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f".{module}", __name__)
    return loaded if name == module else getattr(loaded, name)


def __dir__():
    return sorted({*globals(), *_LAZY, *_OWNER})

"""The benchmark's workloads: the config each one runs and the gates its
output must pass.

Every config is generated here; ``sampler.seed`` is the benchmark's seed.
The non-Archimedean workloads never sample, so their output does not depend
on the seed.  Tolerances follow acceptance criteria 7-9 in
``tests/test_acceptance.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    why: str
    config: str  # INI text; ``{seed}`` is replaced by the benchmark seed
    gates: Callable[[dict], list]  # summary -> list of failed-gate messages


def _failed(checks: dict) -> list:
    return [name for name, ok in checks.items() if not ok]


def _lyap_gates(s: dict) -> list:
    # Unsigned: na_lyapunov has the wrong sign today (ROADMAP item 2).  The
    # fix for that item tightens this gate to a signed comparison.
    slope = abs(s["slope"])
    return _failed({
        "||slope| - 0.5| <= 0.05": abs(slope - 0.5) <= 0.05,
        "|na_ratio - 0.5| <= 0.05": abs(s["na_ratio"] - 0.5) <= 0.05,
        "||slope| - na_ratio| <= 0.05": abs(slope - s["na_ratio"]) <= 0.05,
        "oracle deviation <= 3 sigma": s["max_oracle_deviation_sigmas"] <= 3.0,
        "briend_duval_ok": s["briend_duval_ok"] is True,
        "tree mass 1 +/- 1e-9": abs(s["measure_total_mass"] - 1.0) <= 1e-9,
    })


def _hybrid_gates(s: dict) -> list:
    return _failed({
        "final_abs_error < 0.05": s["final_abs_error"] < 0.05,
        "monotone_within_stderr": s["monotone_within_stderr"] is True,
        "tree mass 1 +/- 1e-9": abs(s["measure_total_mass"] - 1.0) <= 1e-9,
    })


def _na_gates(s: dict) -> list:
    return _failed({"tree mass 1 +/- 1e-9": abs(s["total_mass"] - 1.0) <= 1e-9})


def _na_deep_gates(s: dict) -> list:
    return _na_gates(s) + _failed({
        "na_ratio == 0.5": s["na_ratio"] == 0.5,
        "no clipped mass": s["clipped_mass"] == 0.0,
        "no convention failures": s["convention_failures"] == [],
        "Green certified": s["green_tail_bound"] < 1e-3,
    })


# The paper's headline: configs/lyap-slope-quad-pole.ini byte for byte, except
# that the seed is the benchmark's.  harness.run's out_dir overrides [output].
_LYAP_QUAD_POLE = """\
[experiment]
kind = lyap-slope
label = lyap-slope-quad-pole
family = z^2 + 1/t
r = 0.5

[tgrid]
moduli = 1e-2, 1e-3, 1e-4, 1e-5, 1e-6
phases = 8

[sampler]
seed = {seed}
n_burn = 100
n_keep = 20000

[green]
n_max = 16
tol = 1e-3

[output]
dir = out
"""

# z^3 + 1/t would be the cubic twin of the headline family, but RationalMapC
# rejects it at |t| = 1e-5 (two of eight phases) and 1e-6 (all), "resultant
# vanishes to tolerance": the relative tolerance 1e-15 * (s0*s1)^d in cxdyn.py
# is too strict for strongly degenerating lifts.  That is a program defect,
# recorded here and left for its own fix; the benchmark uses the shipped
# family z^3 + t*z instead.
_HYBRID_CUBIC = """\
[experiment]
kind = hybrid-converge
label = hybrid-cubic
family = z^3 + t*z
r = 0.5

[tgrid]
moduli = 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6
phases = 8

[sampler]
seed = {seed}
n_burn = 100
n_keep = 2000

[datum]
sections = w0^2 + t*w1^2; w1^2
k = 1
d = 2
"""

_NA_DEEP_TREE = """\
[experiment]
kind = na-measure
label = na-deep-tree
family = z^2 + 1/t
r = 0.5

[green]
n_max = 16
tol = 1e-3

[probes]
s_min = -4
s_max = 4
q = 4
orbit_len = 3
include_critical = true
"""

# n_max = 8 leaves the Green tail bound (5.4e-3) above tol, so the run is not
# certified; the benchmark reports that (berkovich.green_certified) and does
# not gate on it.
_NA_RATIONAL = """\
[experiment]
kind = na-measure
label = na-rational
family = (z^2 - t)/z
r = 0.5

[green]
n_max = 8
tol = 1e-3
"""

WORKLOADS = {
    "lyap-quad-pole": Workload(
        "paper headline z^2+1/t: 40 long chains on the d=2 closed-form sampler "
        "path (backward_sample ~97%), small NA tree, no poly",
        _LYAP_QUAD_POLE, _lyap_gates),
    "hybrid-cubic": Workload(
        "z^3+t*z: 48 short chains on the d=3 np.roots sampler path with "
        "phi_canonical; good reduction, so berkovich is idle (z^3+1/t is "
        "rejected by cxdyn)",
        _HYBRID_CUBIC, _hybrid_gates),
    "na-deep-tree": Workload(
        "z^2+1/t on a dense probe grid: 149-vertex tree, O(n^2) subtree_span "
        "joins dominate, repeated Green exponents and taylor_shift; no sampler, "
        "no poly",
        _NA_DEEP_TREE, _na_deep_gates),
    "na-rational": Workload(
        "(z^2-t)/z at n_max 8: the only workload where poly.iterate_pair runs "
        "(degree-256 dense iterates, ~99%); Green is not certified and reported",
        _NA_RATIONAL, _na_gates),
}

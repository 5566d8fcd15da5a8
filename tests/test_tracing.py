"""The benchmark's per-layer tracer still finds every name it wraps.

``bench/tracing.py`` wraps library functions by module attribute and reads
attributes of their results.  A renamed function or result field there only
makes a metric absent, so this test fails instead: it installs the tracer
unchanged, runs two small experiments and checks that nothing went missing.
"""

import importlib.util
import os

import pytest

from hybdyn import admissible, berkovich, cxdyn, harness
from hybdyn.harness import load_config
from hybdyn.parser import parse_family

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

# a rational family, so the Green route walks rational disk images
SLOPE_INI = """
[experiment]
kind = lyap-slope
label = traced-slope
family = (z^2 - t)/z
r = 0.5

[tgrid]
moduli = 1e-2, 1e-3, 1e-4
phases = 1

[sampler]
seed = 31
n_burn = 20
n_keep = 200

[green]
n_max = 3
"""

CONVERGE_INI = """
[experiment]
kind = hybrid-converge
label = traced-converge
family = z^2 + 1/t
r = 0.5

[tgrid]
moduli = 1e-2, 1e-4
phases = 1

[sampler]
seed = 31
n_burn = 20
n_keep = 200

[datum]
sections = w0 + w1; w1
"""


@pytest.fixture
def tracing(monkeypatch):
    """The bench tracing module; every function it may replace is restored
    when the test ends, so its wrappers do not leak into other tests."""
    for owner in (admissible, berkovich, cxdyn, harness, berkovich.GreenEvaluator):
        for name, value in list(vars(owner).items()):
            if callable(value) and not name.startswith("__"):
                monkeypatch.setattr(owner, name, value)
    spec = importlib.util.spec_from_file_location("tracing", os.path.join(BENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_and_count_resolves(tracing, tmp_path):
    tracer = tracing.Tracer()
    tracing.install(tracer)
    assert tracer.missing == set()
    for text in (SLOPE_INI, CONVERGE_INI):
        harness.run(load_config(text), out_dir=str(tmp_path))
    # the harness integrates through preimage_levels, so the walker's count
    # callbacks are reached through its public one-cell route
    rc = cxdyn.specialize(parse_family("z^2 - 2"), 0.1)
    s = cxdyn.backward_sample(rc, 5, 20, 200, 0.3 + 0.2j)
    cxdyn.integrate_mu(rc, lambda pts: cxdyn.log_det_norm(cxdyn.MapStack([rc]), pts), s)
    # no experiment builds symbolic iterates; the Green reference does
    berkovich.iterate_exponents(parse_family("(z^2 - t)/z"), [berkovich.TypeIIPoint.gauss()], 2)
    assert tracer.missing == set()  # no wrapped name and no "#counts" source
    # every count callback ran, so the checks above are not vacuous
    for key in ("walk_steps", "kept_samples", "n_used", "log_det_norm_points",
                "tree_vertices", "green_calls", "iterate_degree", "record_bytes"):
        assert tracer.counts[key] > 0, key
    trace = {"spans": tracer.spans, "counts": tracer.counts, "missing": []}
    layers = {name for name in tracing.UNITS if not name.startswith(("import.", "trace."))}
    assert set(tracing.layer_metrics(trace)) == layers


def test_wrappers_are_gone_after_the_traced_test():
    assert not hasattr(cxdyn.backward_sample, "__wrapped__")
    assert not hasattr(berkovich.GreenEvaluator.exponent, "__wrapped__")

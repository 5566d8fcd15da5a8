"""Per-layer tracing from outside the library.

``install`` replaces each public function at the module attribute its caller
looks it up by with a wrapper that records a span (name, start, end, parent
span) and, for some layers, a count taken from the arguments or the result.
Spans stay in memory and are written once, when the run ends.
``layer_metrics`` turns them into the per-layer metrics.

A wrapped name that is missing, or a result whose shape changed, makes the
metrics built on it absent instead of crashing the run, so a later change that
restructures a layer needs no edit here to keep the rest of the trace.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

# name, unit, and the end-to-end metric and workloads the layer should move.
# ``_s`` metrics are inclusive span time unless marked self (span minus the
# wrapped spans it encloses).
LAYER_METRICS = [
    ("cxdyn.backward_sample_s", "s", "run_s on lyap-quad-pole, hybrid-cubic"),
    ("cxdyn.walk_steps", "count", "run_s on lyap-quad-pole, hybrid-cubic"),
    ("cxdyn.steps_per_s", "1/s", "run_s on lyap-quad-pole, hybrid-cubic"),
    ("cxdyn.kept_samples", "count", "size guard: cells x n_keep"),
    ("cxdyn.log_det_norm_s", "s", "run_s on lyap-quad-pole"),
    ("cxdyn.log_det_norm_points", "count", "run_s on lyap-quad-pole"),
    ("cxdyn.przytycki_oracle_s", "s", "run_s on lyap-quad-pole"),
    ("cxdyn.integrate_mu_s", "s", "self; run_s on lyap-quad-pole, hybrid-cubic"),
    ("cxdyn.used_frac", "frac", "useful-work ratio n_used / samples attempted"),
    ("admissible.phi_canonical_s", "s", "run_s on hybrid-cubic"),
    ("admissible.g_na_s", "s", "run_s on hybrid-cubic"),
    ("admissible.datum_regular_s", "s", "run_s on hybrid-cubic"),
    ("berkovich.subtree_span_s", "s", "run_s on na-deep-tree"),
    ("berkovich.build_probe_tree_s", "s", "self; run_s on na-deep-tree"),
    ("berkovich.tree_vertices", "count", "size guard"),
    ("berkovich.tree_leaves", "count", "size guard"),
    ("berkovich.green_exponent_s", "s", "self; run_s on na-deep-tree, na-rational"),
    ("berkovich.green_calls_per_vertex", "calls/vertex",
     "run_s on na-deep-tree, na-rational; 1.0 means no repeated work"),
    ("berkovich.green_n_star", "count", "run_s on na-deep-tree, na-rational"),
    ("berkovich.green_certified", "flag", "certificate: tail bound < tol"),
    ("berkovich.tree_ma_s", "s", "self; run_s on na-* workloads"),
    ("berkovich.na_lyapunov_s", "s", "run_s on na-* workloads"),
    ("poly.iterate_pair_s", "s", "run_s on na-rational only"),
    ("poly.iterate_degree", "count", "run_s on na-rational only"),
    ("laurent.taylor_shift_s", "s", "run_s on na-deep-tree"),
    ("laurent.taylor_shift_calls", "count", "run_s on na-deep-tree"),
    ("harness.write_record_s", "s", "run_s on every workload"),
    ("harness.record_bytes", "bytes", "record size"),
    ("import.hybdyn_s", "s", "setup_s, peak_rss_mb on every workload"),
    ("import.hybdyn.poly_s", "s", "setup_s, peak_rss_mb on every workload"),
    ("import.scipy_s", "s", "setup_s, peak_rss_mb on every workload"),
    ("import.numpy_s", "s", "setup_s, peak_rss_mb on every workload"),
    ("trace.run_s", "s", "traced run_s: the base for each layer's share"),
    ("trace.overhead_s", "s", "traced run_s minus untraced run_s"),
]
UNITS = {name: unit for name, unit, _ in LAYER_METRICS}

# count callbacks may read shapes a later change renames; such a failure makes
# the span's counts absent (name + _COUNTS in ``missing``) but keeps its times
_SHAPE_ERRORS = (AttributeError, TypeError, IndexError, KeyError, ValueError)
_COUNTS = "#counts"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self.missing = set()  # span or count names whose source is gone
        self._stack = []

    def wrap(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``count(counts, args, result)`` adds to the named counters.
        """
        fn = getattr(owner, attr, None)
        if not callable(fn):
            self.missing.add(name)
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx][1] = start
                self.spans[idx][2] = end
            if count is not None and name + _COUNTS not in self.missing:
                try:
                    count(self.counts, args, result)
                except _SHAPE_ERRORS:
                    self.missing.add(name + _COUNTS)
            return result

        setattr(owner, attr, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "missing": sorted(self.missing)}, fh)


def _count_sample(c, args, sample):
    c["walk_steps"] += sample.n_burn + sample.n_keep
    c["kept_samples"] += len(sample.points)


def _count_integral(c, args, est):
    c["n_used"] += est.n_used
    c["n_attempted"] += est.n_used + est.n_excluded


def _count_points(c, args, values):
    c["log_det_norm_points"] += len(values)


def _count_tree(c, args, tree):
    c["tree_vertices"] += len(tree.vertices)
    c["tree_leaves"] += len(tree.leaves())


def _count_green(c, args, result):
    evaluator = args[0]
    c["green_calls"] += 1
    c["green_n_star"] = max(c["green_n_star"], evaluator.n_star)
    c["green_uncertified"] += result[1] >= evaluator.tol


def _count_iterate(c, args, pair):
    c["iterate_degree"] = max(c["iterate_degree"], pair[0].degree)


def _count_record(c, args, paths):
    c["record_bytes"] += sum(os.path.getsize(p) for p in paths)


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions where the library looks them up."""
    from hybdyn import admissible, berkovich, cxdyn, harness

    # as harness calls them (and as cxdyn.lyapunov_complex calls its helpers)
    tracer.wrap(cxdyn, "backward_sample", "cxdyn.backward_sample", _count_sample)
    tracer.wrap(cxdyn, "integrate_mu", "cxdyn.integrate_mu", _count_integral)
    tracer.wrap(cxdyn, "log_det_norm", "cxdyn.log_det_norm", _count_points)
    tracer.wrap(cxdyn, "przytycki_oracle", "cxdyn.przytycki_oracle")
    tracer.wrap(admissible, "phi_canonical", "admissible.phi_canonical")
    tracer.wrap(admissible, "g_na", "admissible.g_na")
    tracer.wrap(admissible, "datum_regular", "admissible.datum_regular")
    tracer.wrap(berkovich, "build_probe_tree", "berkovich.build_probe_tree", _count_tree)
    tracer.wrap(berkovich, "tree_ma", "berkovich.tree_ma")
    tracer.wrap(berkovich, "na_lyapunov", "berkovich.na_lyapunov")
    tracer.wrap(harness, "write_record", "harness.write_record", _count_record)
    # in berkovich's globals, where build_probe_tree and the Green route find them
    tracer.wrap(berkovich, "subtree_span", "berkovich.subtree_span")
    tracer.wrap(berkovich, "iterate_pair", "poly.iterate_pair", _count_iterate)
    tracer.wrap(berkovich, "taylor_shift", "laurent.taylor_shift")
    evaluator = getattr(berkovich, "GreenEvaluator", None)
    if evaluator is None:
        tracer.missing.add("berkovich.green_exponent")
    else:
        tracer.wrap(evaluator, "exponent", "berkovich.green_exponent", _count_green)


def span_times(spans):
    """Per span name: total time, self time and call count."""
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    for name, start, end, parent in spans:
        total[name] += end - start
        own[name] += end - start
        calls[name] += 1
        if parent >= 0:
            own[spans[parent][0]] -= end - start
    return total, own, calls


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics from a dumped trace; absent where a source is missing."""
    counts, missing = trace["counts"], set(trace["missing"])
    total, own, calls = span_times(trace["spans"])
    out = {}

    def put(metric, spans, value, counted=False):
        needs = set(spans) | ({s + _COUNTS for s in spans} if counted else set())
        if not missing & needs:
            out[metric] = value()

    def count(key):
        return counts.get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    sample = "cxdyn.backward_sample"
    tree = "berkovich.build_probe_tree"
    green = "berkovich.green_exponent"
    put("cxdyn.backward_sample_s", [sample], lambda: total[sample])
    put("cxdyn.walk_steps", [sample], lambda: int(count("walk_steps")), True)
    put("cxdyn.steps_per_s", [sample], lambda: ratio(count("walk_steps"), total[sample]), True)
    put("cxdyn.kept_samples", [sample], lambda: int(count("kept_samples")), True)
    put("cxdyn.log_det_norm_s", ["cxdyn.log_det_norm"], lambda: total["cxdyn.log_det_norm"])
    put("cxdyn.log_det_norm_points", ["cxdyn.log_det_norm"],
        lambda: int(count("log_det_norm_points")), True)
    put("cxdyn.przytycki_oracle_s", ["cxdyn.przytycki_oracle"],
        lambda: total["cxdyn.przytycki_oracle"])
    put("cxdyn.integrate_mu_s", ["cxdyn.integrate_mu"], lambda: own["cxdyn.integrate_mu"])
    put("cxdyn.used_frac", ["cxdyn.integrate_mu"],
        lambda: ratio(count("n_used"), count("n_attempted")), True)
    for fn in ("phi_canonical", "g_na", "datum_regular"):
        put(f"admissible.{fn}_s", [f"admissible.{fn}"], lambda fn=fn: total[f"admissible.{fn}"])
    put("berkovich.subtree_span_s", ["berkovich.subtree_span"],
        lambda: total["berkovich.subtree_span"])
    put("berkovich.build_probe_tree_s", [tree], lambda: own[tree])
    put("berkovich.tree_vertices", [tree], lambda: int(count("tree_vertices")), True)
    put("berkovich.tree_leaves", [tree], lambda: int(count("tree_leaves")), True)
    put("berkovich.green_exponent_s", [green], lambda: own[green])
    put("berkovich.green_calls_per_vertex", [green, tree],
        lambda: ratio(count("green_calls"), count("tree_vertices")), True)
    put("berkovich.green_n_star", [green], lambda: int(count("green_n_star")), True)
    put("berkovich.green_certified", [green],
        lambda: int(count("green_calls") > 0 and count("green_uncertified") == 0), True)
    put("berkovich.tree_ma_s", ["berkovich.tree_ma"], lambda: own["berkovich.tree_ma"])
    put("berkovich.na_lyapunov_s", ["berkovich.na_lyapunov"],
        lambda: total["berkovich.na_lyapunov"])
    put("poly.iterate_pair_s", ["poly.iterate_pair"], lambda: total["poly.iterate_pair"])
    put("poly.iterate_degree", ["poly.iterate_pair"],
        lambda: int(count("iterate_degree")), True)
    put("laurent.taylor_shift_s", ["laurent.taylor_shift"],
        lambda: total["laurent.taylor_shift"])
    put("laurent.taylor_shift_calls", ["laurent.taylor_shift"],
        lambda: calls["laurent.taylor_shift"])
    put("harness.write_record_s", ["harness.write_record"],
        lambda: total["harness.write_record"])
    put("harness.record_bytes", ["harness.write_record"],
        lambda: int(count("record_bytes")), True)
    return out


def import_metrics(importtime_stderr: str) -> dict:
    """import.* metrics from the output of ``python -X importtime``."""
    self_us = defaultdict(int)
    cumulative_us = {}
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        name = fields[2].strip()
        self_us[name.split(".")[0]] += int(fields[0])
        cumulative_us[name] = int(fields[1])
    out = {}
    for metric, module in (("import.hybdyn_s", "hybdyn"),
                           ("import.hybdyn.poly_s", "hybdyn.poly")):
        if module in cumulative_us:
            out[metric] = cumulative_us[module] / 1e6
    # whole-package cost: the self times of all its modules
    out["import.scipy_s"] = self_us["scipy"] / 1e6
    out["import.numpy_s"] = self_us["numpy"] / 1e6
    return out

"""Repeat the benchmark over seeds and summarize its spread.

    python3 bench/prove.py [--runs 10] [--first-seed 1] [--workload NAME ...]
                           [--trace] [--baseline bench/baseline.json]

Runs the command in BENCHMARK.json once per seed on each workload (seeds
interleaved across workloads, so slow drift of the machine touches all of
them alike) and prints, for every end-to-end metric, the median, the quartiles
and the quartile spread as a share of the median next to the metric's bound.
``--trace`` adds one traced run per workload and prints its per-layer metrics
with each layer's share of the traced run_s.  ``--baseline`` writes the medians, the
per-layer values, the workload configs and a machine block to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RAW = ("run_raw_s", "wall_raw_s")  # unscaled medians from run.py's report


def invoke(spec: dict, workload: str, seed: int, trace: int, log=None) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    if log is not None:
        print(f"== {workload} seed {seed} ({elapsed:.1f} s)\n{proc.stderr}", file=log, end="")
    result = json.loads(lines[-1])
    for fields in map(str.split, proc.stderr.splitlines()):
        if len(fields) > 1 and fields[0] in RAW:
            result["metrics"][fields[0]] = {"value": float(fields[1]), "unit": "s"}
    result["invocation_s"] = elapsed
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def check_spec(spec: dict) -> None:
    """BENCHMARK.json must name exactly the metrics and workloads emitted here."""
    from run import END_TO_END_UNITS
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if e2e != END_TO_END_UNITS:
        raise SystemExit(f"end_to_end {e2e} != emitted {END_TO_END_UNITS}")
    if layers != tracing.UNITS:
        raise SystemExit("per_layer names or units differ from tracing.LAYER_METRICS")
    names = {w["name"] for w in spec["workloads"]}
    if names != set(WORKLOADS):
        raise SystemExit(f"workloads {sorted(names)} != {sorted(WORKLOADS)}")


def machine() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--baseline")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 to give quartiles")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_spec(spec)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    values = {w: {name: [] for name in [*bounds, *RAW, "invocation_s"]} for w in workloads}
    failed = {w: 0 for w in workloads}
    for seed in seeds:
        for w in workloads:
            res = invoke(spec, w, seed, 0, log=sys.stderr)
            failed[w] += res["failed"]
            for name in [*bounds, *RAW]:
                values[w][name].append(res["metrics"][name]["value"])
            values[w]["invocation_s"].append(res["invocation_s"])
    summary = {}
    for w in workloads:
        print(f"\n{w}: {args.runs} runs, seeds {seeds[0]}-{seeds[-1]}, "
              f"{failed[w]} failed")
        summary[w] = {"failed": failed[w], "metrics": {}}
        for name, vals in values[w].items():
            med, q1, q3, rel = spread(vals)
            unit = next((m["unit"] for m in spec["end_to_end"] if m["name"] == name), "s")
            if name in bounds:
                mark = "ok" if rel < bounds[name] / 3 else (
                    "within bound" if rel <= bounds[name] else "TOO WIDE")
                note = f"(bound {bounds[name]}) {mark}"
            else:
                note = "(unscaled, no bound)" if name in RAW else "(benchmark process)"
            print(f"  {name:12s} median {med:10.4f} {unit:3s} q1 {q1:10.4f} q3 {q3:10.4f}"
                  f"  spread {rel:6.3f} {note}")
            summary[w]["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                           "unit": unit, "n": len(vals)}
    layers = {}
    if args.trace:
        for w in workloads:
            res = invoke(spec, w, seeds[0], 1)
            layers[w] = {k: v["value"] for k, v in res["metrics"].items()}
            run_s = layers[w]["trace.run_s"]
            print(f"\n{w} traced (seed {seeds[0]}):")
            for name, value in layers[w].items():
                timed_in_run = tracing.UNITS[name] == "s" and not name.startswith("import.")
                share = f"{value / run_s:6.1%} of traced run_s" if timed_in_run else ""
                print(f"  {name:34s} {value:14.6g} {tracing.UNITS[name]:12s} {share}")
    if args.baseline:
        doc = {
            "machine": machine(),
            "run_seconds": spec["run_seconds"],
            "seeds": list(seeds),
            "workloads": {w: {"why": WORKLOADS[w].why,
                              "config": WORKLOADS[w].config} for w in workloads},
            "layer_map": {name: {"unit": unit, "moves": moves}
                          for name, unit, moves in tracing.LAYER_METRICS},
            "end_to_end": summary,
            "per_layer": layers,
        }
        with open(args.baseline, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()

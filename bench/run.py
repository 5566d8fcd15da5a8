"""hybdyn benchmark: one workload, end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Each run is a fresh single-threaded child process that calls only
``hybdyn.harness.load_config`` and ``hybdyn.harness.run``, as a closed loop
with one client: the next run starts after the previous one has ended.

``--trace 0`` repeats the workload for about S seconds (at least one run) and
reports the median end-to-end metrics:

- ``run_s``: time of ``harness.run``;
- ``setup_s``: time of ``import hybdyn`` plus ``load_config`` in a fresh
  process, over the runs and extra set-up-only children (at least three);
- ``wall_s``: the child's wall time as this process sees it;
- ``peak_rss_mb``: the child's peak resident set size.

The three times are in uncontended-core seconds: each is measured as wall
time and scaled by the core speed the speed probe (``speed.py``) measured in
the child over the same interval.  The raw medians go to standard error.

``--trace 1`` makes one untraced and one traced run plus an import profile,
and reports the per-layer metrics (``tracing.py``); their times are raw.
Every run's output is checked against the workload's gates, and CSVs of runs
with the same seed must be byte-identical; a run that raises or fails a gate
counts in ``failed``.  The last line of standard output is the JSON result; a
readable report goes to standard error.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
MIN_SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # the whole invocation must end within 180 s
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


class ChildFailed(Exception):
    pass


class Bench:
    def __init__(self, workload: str, seed: int, tmp: str):
        self.workload = WORKLOADS[workload]
        self.tmp = tmp
        self.config = os.path.join(tmp, "workload.ini")
        with open(self.config, "w") as fh:
            fh.write(self.workload.config.format(seed=seed))
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **SINGLE_THREAD)
        self.t_end = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failures = []
        self.csv_digests = []
        self.setup = []

    def child(self, *args, python_flags=()):
        """Run one child; return (parsed last stdout line, stderr, wall seconds)."""
        cmd = [sys.executable, *python_flags, *args]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=max(1.0, self.t_end - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"timed out: {' '.join(args)}")
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise ChildFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        lines = proc.stdout.strip().splitlines()
        return (json.loads(lines[-1]) if lines else {}), proc.stderr, wall

    def setup_probe(self):
        out, _, _ = self.child(os.path.join(BENCH, "child.py"), "setup", self.config)
        if not os.path.samefile(os.path.dirname(out["hybdyn_file"]),
                                os.path.join(ROOT, "src", "hybdyn")):
            raise ChildFailed(f"imported hybdyn from {out['hybdyn_file']}, not src/")
        return out

    def run_once(self, trace_path=None):
        """One gated run; returns the child's report with ``wall_s``, or None."""
        self.attempted += 1
        out_dir = os.path.join(self.tmp, f"run{self.attempted}")
        args = [os.path.join(BENCH, "child.py"), "run", self.config, out_dir]
        try:
            out, _, wall = self.child(*args, *([trace_path] if trace_path else []))
            csvs = glob.glob(os.path.join(out_dir, "*.csv"))
            records = glob.glob(os.path.join(out_dir, "*.json"))
            if len(csvs) != 1 or len(records) != 1:
                raise ChildFailed(f"expected one CSV and one JSON record in {out_dir}")
            with open(records[0]) as fh:
                failed_gates = self.workload.gates(json.load(fh)["summary"])
            with open(csvs[0], "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
        except (ChildFailed, KeyError, ValueError, OSError) as exc:
            self.failures.append(f"run {self.attempted}: {exc}")
            return None
        if self.csv_digests and digest != self.csv_digests[0]:
            failed_gates.append("CSV differs from the first run with this seed")
        self.csv_digests.append(digest)
        if failed_gates:
            self.failures.append(f"run {self.attempted}: {', '.join(failed_gates)}")
            return None
        out["wall_raw_s"] = wall
        out["wall_s"] = wall * out["scale"]
        self.setup.append(out["setup_s"])
        return out

    def result(self, metrics: dict, units: dict) -> dict:
        return {"correct": not self.failures, "attempted": self.attempted,
                "failed": len(self.failures),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def measure(bench: Bench, seconds: float) -> dict:
    """Closed loop of untraced runs for about ``seconds``; median metrics."""
    runs = []
    start = time.monotonic()
    walls = []
    while True:
        t0 = time.monotonic()
        out = bench.run_once()
        walls.append(time.monotonic() - t0)
        if out is not None:
            runs.append(out)
        # start another run only if it should end within the budget
        now = time.monotonic()
        next_end = now + statistics.median(walls)
        if next_end - start > seconds or next_end > bench.t_end - 10.0:
            break
    while len(bench.setup) < MIN_SETUP_SAMPLES and time.monotonic() < bench.t_end - 10.0:
        bench.setup.append(bench.setup_probe()["setup_s"])
    if not runs:
        return bench.result({}, END_TO_END_UNITS)
    samples = {name: [r[name] for r in runs] for name in ("run_s", "wall_s", "peak_rss_mb")}
    samples["setup_s"] = bench.setup
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    report(metrics, samples, END_TO_END_UNITS)
    raw = {name: [r[name] for r in runs] for name in ("run_raw_s", "wall_raw_s")}
    report({name: statistics.median(values) for name, values in raw.items()}, raw,
           {name: "s" for name in raw})
    return bench.result(metrics, END_TO_END_UNITS)


def traced(bench: Bench) -> dict:
    """One untraced and one traced run plus an import profile; layer metrics."""
    plain = bench.run_once()
    trace_path = os.path.join(bench.tmp, "spans.json")
    traced_run = bench.run_once(trace_path)
    if plain is None or traced_run is None:
        return bench.result({}, tracing.UNITS)
    with open(trace_path) as fh:
        trace = json.load(fh)
    metrics = tracing.layer_metrics(trace)
    _, stderr, _ = bench.child("-c", "import hybdyn", python_flags=("-X", "importtime"))
    metrics.update(tracing.import_metrics(stderr))
    metrics["trace.run_s"] = traced_run["run_raw_s"]
    metrics["trace.overhead_s"] = traced_run["run_s"] - plain["run_s"]
    _, own, _ = tracing.span_times(trace["spans"])
    print(f"largest self time: {max(own, key=own.get) if own else 'none'}", file=sys.stderr)
    absent = [name for name in tracing.UNITS if name not in metrics]
    if absent:
        print(f"absent (source renamed or missing): {', '.join(absent)}", file=sys.stderr)
    report(metrics, {name: [value] for name, value in metrics.items()}, tracing.UNITS)
    return bench.result(metrics, tracing.UNITS)


def report(metrics: dict, samples: dict, units: dict) -> None:
    for name, value in metrics.items():
        values = " ".join(f"{v:.4g}" for v in samples[name])
        print(f"{name:34s} {value:14.6g} {units[name]:12s} n={len(samples[name])}: {values}",
              file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated benchmark still kills its child and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "hybdyn", "harness.py")):
        print(f"no hybdyn source under {ROOT}/src: run from a source checkout",
              file=sys.stderr)
        return 2
    tmp = os.path.join(ROOT, ".bench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp)
    try:
        bench = Bench(args.workload, args.seed, tmp)
        # untimed: compiles bytecode and warms the file cache, which users
        # do not pay on every run
        bench.setup_probe()
        result = traced(bench) if args.trace else measure(bench, args.seconds)
    except ChildFailed as exc:
        print(f"benchmark child failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass  # another invocation still uses it
    for failure in bench.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    if not result["metrics"]:
        print("no run succeeded; nothing measured", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

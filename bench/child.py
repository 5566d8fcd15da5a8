"""One fresh benchmark process: import hybdyn, load a config and, in ``run``
mode, run it through the public entry points.

    python3 bench/child.py setup CONFIG
    python3 bench/child.py run CONFIG OUT_DIR [SPANS_PATH]

Prints one JSON line with ``setup_s`` (import hybdyn plus load_config) and
``run_s`` (harness.run), both scaled to an uncontended core by the speed probe
(``speed.py``) and also raw (``*_raw_s``); ``scale``, the ratio of scaled to
raw time over the whole probed window; and ``peak_rss_mb``.  With SPANS_PATH
the run is traced and the spans are written there when it ends.
"""

import sys
import time

from speed import SpeedProbe


def main(argv):
    mode, config = argv[1], argv[2]
    probe = SpeedProbe()
    probe.start()
    t0 = time.perf_counter()
    import hybdyn
    from hybdyn import harness
    cfg = harness.load_config(config)
    t_setup = time.perf_counter()

    import json
    import resource

    out = {"hybdyn_file": hybdyn.__file__}
    tracer = None
    t_end = t_setup
    if mode == "run":
        probe.use_library_kernel()
        if len(argv) > 4:
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        t_run = time.perf_counter()
        harness.run(cfg, out_dir=argv[3])
        t_end = time.perf_counter()
        out["run_s"] = probe.scaled(t_run, t_end)
        out["run_raw_s"] = t_end - t_run
    probe.stop()
    if tracer is not None:
        tracer.dump(argv[4])
    out["setup_s"] = probe.scaled(t0, t_setup)
    out["setup_raw_s"] = t_setup - t0
    out["scale"] = probe.scaled(t0, t_end) / (t_end - t0)
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv)

"""Core-speed probe: scales measured times to an uncontended core.

On a shared machine the core a run gets can slow down by up to about 2x for
seconds at a time while neighbouring tenants load it.  That makes the raw wall
times of multi-second runs spread by 20-30 % from one run to the next, far
more than the changes the benchmark must resolve, and more runs do not help
because the slow phases last about as long as a run.

The probe runs inside the measured process: every ``INTERVAL_S`` a SIGALRM
handler runs a fixed kernel twice and records the slowdown of the second
pass, its duration over its duration on an uncontended core.  ``scaled`` divides each stretch of
a measured interval by the slowdown measured at its end and so returns the
time the interval would have taken on an uncontended core.  The kernel costs
about 3 % of the run and is the same on every commit.

A tight pure-Python loop slows down less under contention than the library's
code, whose larger working set of interpreter paths, numpy calls and
allocations suffers more from a busy sibling core.  So once hybdyn is imported
the probe switches to a kernel that mixes those (``use_library_kernel``); the
set-up phase keeps the pure-Python loop, because importing numpy or fractions
for the probe would take them out of the measured import.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.025
SMOOTHING = 5  # samples in the running median that hides a descheduled probe
# Each kernel's duration on an uncontended core of the 2-core Xeon machine the
# baseline was measured on; they only set the scale of the reported times.
PYTHON_LOOP_S = 175e-6
LIBRARY_MIX_S = 200e-6


def _python_loop():
    x = 0
    for k in range(3000):
        x += k * k


def _library_mix_kernel():
    """A kernel shaped like the library: interpreter loop, small numpy calls
    and Fractions."""
    from fractions import Fraction

    import numpy as np

    small = np.array([0.3 + 0.1j, -0.7, 0.2j])

    def kernel():
        x = 0
        for k in range(1000):
            x += k * k
        for k in range(40):
            np.abs(small).max()
            small * np.sqrt(complex(k, 1.0))
        f = Fraction(0)
        for k in range(1, 30):
            f += Fraction(1, k)

    return kernel


class SpeedProbe:
    def __init__(self):
        self.samples = []  # (start, slowdown against an uncontended core)
        self._kernel = _python_loop
        self._reference = PYTHON_LOOP_S
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def use_library_kernel(self) -> None:
        """Switch to the library-shaped kernel; call after importing hybdyn."""
        kernel = _library_mix_kernel()
        self._busy = True  # no tick between the two assignments
        self._kernel, self._reference = kernel, LIBRARY_MIX_S
        self._busy = False

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        # the first pass right after the timer interrupt runs slow in a way
        # the measured code, which is not aligned to interrupts, does not;
        # only the second pass is timed
        self._kernel()
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append((t0, (time.perf_counter() - t0) / self._reference))
        self._busy = False

    def scaled(self, start: float, end: float) -> float:
        """Uncontended-core seconds for the perf_counter interval [start, end].

        Each gap between probes is divided by the slowdown measured at its
        end; the tail after the last probe by the last slowdown measured.
        """
        import statistics  # not at import time: it would preload modules hybdyn imports

        if not self.samples:
            return end - start
        half = SMOOTHING // 2
        slowdowns = [s for _, s in self.samples]
        smooth = [statistics.median(slowdowns[max(0, i - half): i + half + 1])
                  for i in range(len(slowdowns))]
        total = 0.0
        prev = start
        slowdown = smooth[0]
        for (t, _), s in zip(self.samples, smooth):
            if t >= end:
                break
            slowdown = s
            if t > start:
                total += (t - prev) / s
                prev = t
        return total + (end - prev) / slowdown

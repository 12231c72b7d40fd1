"""Machine-speed probe that takes neighbours' load out of the timings.

On a shared host the same pass runs up to 1.5x slower while neighbouring
jobs are busy, in phases lasting seconds to minutes.  The probe runs a
fixed slice of exact arithmetic every ``INTERVAL_S`` seconds from a SIGALRM
handler, so its samples are spread evenly over the run, long calls
included.  ``REFERENCE_SLICE_S`` over the mean slice time in a window is
that window's scale; a duration times its scale is the duration at the
reference speed.

``clock()`` excludes the probe's own time, so durations read with it
contain only the benchmark's work.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

# Durations are reported as if a slice took this long.  On the 2-vCPU Intel
# Xeon host of the baseline a slice takes about 0.7 ms when the neighbours
# are quiet and 1.3 ms when they are busy.
REFERENCE_SLICE_S = 0.0010
INTERVAL_S = 0.05


def probe_slice() -> int:
    """A fixed mix of Fraction arithmetic, hashing and sorting."""
    x, seen = Fraction(1, 7), {}
    for i in range(200):
        x = (x * 3) % 1
        seen[(x.numerator % 97, i % 13)] = x
    return len(sorted(seen.values()))


class SpeedProbe:
    """Samples the slice time while active; use as a context manager."""

    def __init__(self):
        self.times: list[float] = []  # clock() at each sample
        self.samples: list[float] = []  # slice durations
        self.spent = 0.0
        self._busy = False
        self._old_handler = None

    def _on_alarm(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()  # keep the workload's garbage out of the slice
        try:
            t0 = time.perf_counter()
            probe_slice()
            dt = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
            self._busy = False
        self.spent += dt
        self.times.append(self.clock())
        self.samples.append(dt)

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        return False

    def clock(self) -> float:
        """Seconds of benchmark work: wall time minus the probe's own time."""
        return time.perf_counter() - self.spent

    def scale(self, t0: float, t1: float, margin: float = 0.0) -> float:
        """Multiplier that takes a duration between ``clock()`` readings
        ``t0`` and ``t1`` to the reference speed.

        It is the reference slice time over the mean slice time of the
        samples taken from ``t0 - margin`` to ``t1 + margin``.
        """
        lo = bisect.bisect_left(self.times, t0 - margin)
        hi = bisect.bisect_right(self.times, t1 + margin)
        if lo == hi:
            self._on_alarm(None, None)
            lo, hi = -1, None
        return REFERENCE_SLICE_S / statistics.fmean(self.samples[lo:hi])

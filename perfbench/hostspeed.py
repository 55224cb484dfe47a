"""Continuous host-speed sampling, used to rescale wall times to a fixed speed.

On a shared machine the speed of this process's CPU drifts by up to a factor
of two over seconds, as other tenants come and go; wall times taken minutes
apart are then not comparable.  While sampling is on, a timer interrupts
the process every INTERVAL_S and times a fixed micro-reference: a short loop
of interpreter-bound numpy calls that dpminimax never runs.  The drift moves
that loop and the measured work alike, so an interval's wall time is
rescaled to the speed at which the micro-reference takes NOMINAL_NS:

    normalized = wall * NOMINAL_NS / mean(micro-reference times in the interval)

The handler only runs Python between bytecodes of the main thread and
touches no dpminimax state, so outputs are unchanged; it costs about 1-2%
of the wall time, which both the raw and the normalized times include.
"""

from __future__ import annotations

import contextlib
import signal
import time
from array import array
from bisect import bisect_left, bisect_right

INTERVAL_S = 0.05
WINDOW_NS = 250_000_000  # samples this close to an interval also describe it
MICRO_LOOPS = 25
NOMINAL_NS = 550_000  # the micro-reference on a 2-vCPU Xeon VM with no other load


def micro_reference_ns() -> int:
    import numpy as np

    start = time.perf_counter_ns()
    for i in range(MICRO_LOOPS):
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence((i, 7))))
        gen.standard_normal(16).sum()
    return time.perf_counter_ns() - start


class HostSpeed:
    """Timer-driven sampler of the micro-reference; use as a context manager."""

    def __init__(self):
        self.stamps = array("q")
        self.durations = array("q")
        self._previous = None

    def _sample(self, signum, frame) -> None:
        duration = micro_reference_ns()
        self.stamps.append(time.perf_counter_ns())
        self.durations.append(duration)

    def __enter__(self):
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextlib.contextmanager
    def paused(self):
        """Stop sampling, e.g. while a child process runs on this CPU and the
        handler would compete with it."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def probe(self, count: int) -> None:
        """Take ``count`` samples now."""
        for _ in range(count):
            self._sample(None, None)

    def factor(self, start_ns: int, end_ns: int) -> float:
        """NOMINAL_NS over the mean micro-reference time around [start, end]."""
        lo = bisect_left(self.stamps, start_ns - WINDOW_NS)
        hi = bisect_right(self.stamps, end_ns + WINDOW_NS)
        if lo == hi:  # no sample near the interval: take the nearest one
            lo = min(max(lo, 1), len(self.stamps)) - 1
            hi = lo + 1
        window = self.durations[lo:hi]
        return NOMINAL_NS * len(window) / sum(window)

    def normalize(self, start_ns: int, end_ns: int) -> float:
        """Seconds of [start, end] at the nominal host speed."""
        return (end_ns - start_ns) * 1e-9 * self.factor(start_ns, end_ns)

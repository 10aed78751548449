"""Machine-speed probe that takes shared-machine drift out of the timings.

On a shared machine the speed of one core drifts by 20-40 % over tens of
seconds.  On a 2-vCPU Xeon guest, over 10 s blocks, a fixed pure-Python loop
tracked the time of fixed ebench ops with correlation 0.87, and dividing by
it cut their block-to-block variation from 13 % to 6 %; a 16 MB array sum
tracked them worse (0.61).  The benchmark therefore times that loop at most
every quarter second between ops and scales each op's time by PROBE_REF_S
over the median probe time within a second of the op, so a slow
stretch inside a run does not fill the tail.  The probe never calls ebench,
so a change to the program moves the scaled times as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

PROBE_REF_S = 1.25e-3     # the probe's time on a quiet 2-vCPU Xeon guest
EVERY_S = 0.25
WINDOW_S = 1.0


def probe() -> float:
    """Fastest of three runs of the fixed probe, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        x = 0
        for i in range(20_000):
            x += i * i
        best = min(best, perf_counter() - t0)
    return best


class SpeedTracker:
    """Probe times taken during a run."""

    def __init__(self):
        probe()                          # the interpreter specialises the loop on first use
        self.times = []
        self.samples = []
        self._last = float("-inf")

    def tick(self) -> float:
        """Probe if the last probe is EVERY_S old; return the seconds spent."""
        t0 = perf_counter()
        if t0 - self._last < EVERY_S:
            return 0.0
        self.samples.append(probe())
        self._last = perf_counter()
        self.times.append(0.5 * (t0 + self._last))
        return self._last - t0

    def scale_at(self, start: float, seconds: float) -> float:
        """Factor that maps an interval's duration to the reference speed."""
        mid, half = start + 0.5 * seconds, WINDOW_S + 0.5 * seconds
        lo = bisect.bisect_left(self.times, mid - half)
        hi = bisect.bisect_right(self.times, mid + half)
        if lo == hi:                     # no probe in the window: take the nearest
            lo = min(max(lo - 1, 0), len(self.times) - 1)
            hi = lo + 1
        return PROBE_REF_S / statistics.median(self.samples[lo:hi])

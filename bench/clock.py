"""Wall time corrected for the host's varying CPU speed.

On a shared virtual machine the same pure-Python work can take up to 85 %
longer for seconds or minutes at a time, which is wider than any bound a
benchmark could usefully hold.  While a `SpeedClock` is running, a timer
signal every `INTERVAL` seconds times a fixed reference loop that touches
nothing of the library.  `seconds(t0, t1)` then reports the wall time of
[t0, t1], minus the time spent in those samples, scaled by NOMINAL / (the
reference loop's time while the interval ran): seconds at a fixed nominal
speed.  A change to the library moves it as it moves wall time; most of a
slow spell of the host does not.

NOMINAL is the reference loop's time in a fast spell on the machine the
benchmark was defined on (2 vCPUs, CPython 3.11), so the numbers read close
to wall seconds there.  Only ratios between runs matter.
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

INTERVAL = 0.025
NOMINAL = 1.3e-4


_TABLE = dict.fromkeys(range(64), 0)
_SMALL = tuple(range(128)) * 12


def reference_loop():
    """Fixed interpreter work: small-integer arithmetic and dict stores.

    Every value stays below 256, inside CPython's cache of small ints, so the
    loop allocates nothing.  Its speed then depends on the host, not on the
    state of the program's allocator (which the traced passes, for one, fill
    with floats of the same size class as ints), and it never triggers the
    cyclic collector.
    """
    acc = 0
    table = _TABLE
    for x in _SMALL:
        acc = (acc + x) & 127
        table[x & 63] = acc ^ table[acc & 63]
    return acc


class SpeedClock:
    """Samples the reference loop while running (use as a context manager)."""

    def __init__(self):
        self.starts = []         # sample start times, increasing
        self.durations = []

    def sample(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            reference_loop()        # warms the caches the program left cold
            t0 = perf_counter()
            reference_loop()
            t1 = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(t0)
        self.durations.append(t1 - t0)

    def burst(self, n=10):
        """Take n samples now, for intervals the timer does not cover."""
        for _ in range(n):
            self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, t0, t1):
        """Nominal-speed seconds of the wall interval [t0, t1]."""
        lo, hi = bisect_left(self.starts, t0), bisect_right(self.starts, t1)
        inside = self.durations[lo:hi]
        if not inside:
            # no timer sample inside: use the nearest ones on either side
            inside = self.durations[max(lo - 5, 0):lo + 5]
        work = (t1 - t0) - sum(self.durations[lo:hi])
        return work * NOMINAL * sum(1 / d for d in inside) / len(inside)

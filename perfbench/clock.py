"""Reference-normalised time.

The benchmark shares its machine with other tenants, and their load switches
this machine between a fast and a slow mode (up to half again slower) from
one second to the next, for every process alike.  So while a run measures, a
SIGALRM timer runs a fixed reference loop every PERIOD_S (pure-Python list,
dict and object work plus small numpy products, the mix the program runs),
also in the middle of long operations, and every timing is divided by the
speed factor of its own moment:

    factor = mean time of the reference loops run within WINDOW_NS of the
             timed interval (or inside it) / REFERENCE_NS.

The time the handler takes is subtracted from the operation it interrupted
(``stolen_ns``).  REFERENCE_NS is the loop's time in the fast mode of the
machine the benchmark was written on (Intel Xeon, 2 cores, Python 3.11,
numpy 2.4), so normalised times read as that machine's.  The loop never runs
the program, so any change in the program's speed shows in full.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter_ns

import numpy as np

REFERENCE_NS = 2_400_000
PERIOD_S = 0.1
WINDOW_NS = 1_000_000_000


def _reference_work() -> int:
    rows = [[(i * j) % 5 for j in range(8)] for i in range(8)]
    for _ in range(12):
        rows = [[sum(a * b for a, b in zip(r, c)) % 5 for c in zip(*rows)] for r in rows]
    table: dict[int, int] = {}
    for i in range(3_000):
        table[i % 97] = table.get(i % 97, 0) + i
    a = np.arange(16, dtype=np.int64).reshape(4, 4)
    for _ in range(100):
        a = a.dot(a) % 3 + 1
    return rows[0][0] + len(table) + int(a[0, 0])


def reference_ns() -> int:
    """Duration of one run of the reference loop."""
    start = perf_counter_ns()
    _reference_work()
    return perf_counter_ns() - start


class Sampler:
    """Times the reference loop every PERIOD_S of wall time while running.

    Use as a context manager around the measured work; ``stolen_ns`` grows by
    the time the handler took, so a caller subtracts its change over a timed
    interval from that interval."""

    def __init__(self):
        self.at: list[int] = []
        self.samples: list[int] = []
        self.stolen_ns = 0
        self._previous = None

    def _handler(self, signum, frame):
        start = perf_counter_ns()
        self.samples.append(reference_ns())
        self.at.append(start)
        self.stolen_ns += perf_counter_ns() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self, start: int = None, end: int = None) -> float:
        """How much slower than nominal the machine ran around [start, end]
        (perf_counter_ns), or over everything sampled."""
        if not self.samples:
            self.at.append(perf_counter_ns())
            self.samples.append(reference_ns())
        if start is None:
            near = self.samples
        else:
            lo = bisect.bisect_left(self.at, start - WINDOW_NS)
            hi = bisect.bisect_right(self.at, end + WINDOW_NS)
            if lo == hi:  # nothing close: the nearest sample on either side
                lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
            near = self.samples[lo:hi]
        return sum(near) / len(near) / REFERENCE_NS

    def normalise(self, spans) -> list[float]:
        """Durations of (start, duration) intervals, each divided by the
        speed factor around it."""
        return [d / self.factor(s, s + d) for s, d in spans]

"""A clock that runs at the machine's nominal speed, from a reference loop.

The benchmark's machine is shared: other processes slow pure-Python code
on our core by up to about 1.7x, in stretches of a second to a minute,
so medians of raw times move between two sets of runs by more than any
useful bound.  A SIGALRM timer therefore interrupts the workload every
INTERVAL_S and times a fixed reference loop that does nothing with
lambdamu.  REFERENCE_S over its measured time is the machine's speed
for the next interval.

``Speedometer.now`` advances by each interval's raw seconds times the
speed measured at its start, and not at all while the reference loop
runs.  REFERENCE_S is the loop's fastest time on the 2-core Xeon machine
the benchmark was defined on; there, in the quietest runs, nominal
seconds came out 5-20 % below raw ones.  A change that slows the program
costs as many nominal seconds as raw ones.  The other tenants' share
mostly cancels, but not wholly: under some kinds of contention the
reference slows more than lambdamu does, and nominal times then read up
to about 10 % low.
"""

from __future__ import annotations

import random
import signal
import time
from time import perf_counter

INTERVAL_S = 0.05
REFERENCE_S = 0.00023


class _Cell:
    __slots__ = ("key", "next")


def _build_ring(n: int = 4096, seed: int = 0) -> tuple[_Cell, dict]:
    """Cells linked in a shuffled order, and a table keyed by their keys,
    so that the loop chases pointers through memory as the checker does."""
    cells = [_Cell() for _ in range(n)]
    order = list(range(n))
    random.Random(seed).shuffle(order)
    for i, j in zip(order, order[1:] + order[:1]):
        cells[i].key = f"k{i}"
        cells[i].next = cells[j]
    return cells[order[0]], {c.key: i for i, c in enumerate(cells)}


_START, _TABLE = _build_ring()


def reference_loop(steps: int = 1000) -> int:
    total = 0
    cell = _START
    table = _TABLE
    for _ in range(steps):
        total += len(f"{cell.key}:{total & 15}")
        cell = cell.next
        total += table[cell.key] & 7
    return total


class Speedometer:
    """Nominal and raw clocks for the time it is entered.

    A disabled speedometer never samples: its speed stays 1, so both
    clocks read raw seconds.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.speed = 1.0
        self.samples = 0
        self._nominal = 0.0      # nominal seconds up to self._last
        self._spent = 0.0        # raw seconds spent in the reference loop
        self._start = self._last = perf_counter()
        self._previous = None

    def _sample(self, signum, frame):
        t0 = perf_counter()
        self._nominal += (t0 - self._last) * self.speed
        reference_loop()  # brings the loop's data back into the cache
        t1 = perf_counter()
        reference_loop()
        t2 = perf_counter()
        self.speed = REFERENCE_S / (t2 - t1)
        self.samples += 1
        self._last = perf_counter()
        self._spent += self._last - t0

    def __enter__(self):
        self._start = self._last = perf_counter()
        self.started_monotonic = time.monotonic()
        if self.enabled:
            self._sample(None, None)
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        return False

    # A sample may interrupt a reading; then the reading is made again.

    def now(self) -> float:
        """Nominal seconds since entry, reference loop excluded."""
        while True:
            n = self.samples
            value = self._nominal + (perf_counter() - self._last) * self.speed
            if n == self.samples:
                return value

    def raw(self) -> float:
        """Raw seconds since entry, reference loop excluded."""
        while True:
            n = self.samples
            value = perf_counter() - self._start - self._spent
            if n == self.samples:
                return value

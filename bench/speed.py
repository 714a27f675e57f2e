"""Machine-speed reference: a fixed piece of pure-Python work timed between
runs, so reported times can be scaled to one nominal machine speed.

On a shared host the same interpreter work can take up to twice as long from
one minute to the next, and a 25-second pass does not average that away.  The
reference loop (dict and tuple churn plus SHA-256, like the simulator's inner
loops) slows with the host but not with the program: it calls no `ffg` code
and runs with the cyclic garbage collector off, so the size of the program's
heap does not change it.  Scaling by it removes the host's drift and leaves
the program's own cost.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
from time import perf_counter

# Reference-loop time of the nominal machine: the typical time on a 2-core
# x86-64 Linux VM with Python 3.11.  Scaled times are "as on that machine".
NOMINAL_S = 0.0125

# Sample the reference loop at most this often during a pass.
INTERVAL_S = 0.25


def reference_loop() -> float:
    """Seconds taken by the fixed reference work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        table: dict = {}
        acc = 0
        for i in range(30000):
            key = (i & 255, i >> 8)
            table[key] = table.get(key, 0) + i
            acc += len(table) & 7
        for i in range(300):
            acc += hashlib.sha256(b"x" * (i + 64)).digest()[0]
        return perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Reference-loop samples taken through one pass."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> float:
        """Take one sample now; returns the seconds it cost."""
        started = perf_counter()
        self.samples.append(reference_loop())
        self._last = perf_counter()
        return self._last - started

    def maybe_sample(self) -> float:
        """Sample if the last sample is older than INTERVAL_S; returns the
        seconds spent, so callers can leave it out of their wall time."""
        if perf_counter() - self._last < INTERVAL_S:
            return 0.0
        return self.sample()

    def factor(self) -> float:
        """Multiply a time measured during the pass by this to get the time on
        the nominal machine (divide a rate by it)."""
        return NOMINAL_S / statistics.mean(self.samples)

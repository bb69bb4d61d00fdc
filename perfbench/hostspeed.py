"""Host-speed correction for timings taken on a shared machine.

On a shared host a neighbour's load slows the program in spells of seconds
to minutes, by up to 1.8x: the same gap battery takes 6 ms in one spell and
11 ms in the next. No amount of averaging within a run removes a spell that
lasts the whole run. So a fixed reference kernel (pure-Python float math and
small numpy calls; no revshare code, so no change to revshare moves it) is
timed between ops, at most ``EVERY_S`` apart. A sample is the median of
three back-to-back kernel runs, so a single preemption of the benchmark
process, which can triple one run, does not count as a slow spell. The
host's slowdown at an op is
the mean of the kernel samples just before and just after it, divided by
``REFERENCE_S``, the kernel's time on an uncontended core of the host the
benchmark was tuned on (Python 3.11, 2-core VM). An op's corrected time is
its wall time divided by that slowdown: what it would have taken at the
reference speed. A fixed reference, rather than the fastest sample of each
run, keeps a run spent wholly in one slow spell comparable with the rest.
On another host the corrected times are in that host's kernel units, and
they compare only with runs on the same host, as any timing does. The raw
wall times are kept in the report next to the corrected ones.
"""
from __future__ import annotations

import math
import time

import numpy as np

EVERY_S = 0.25
REFERENCE_S = 0.00092
_GRID = np.linspace(0.1, 2.0, 64)


def kernel() -> float:
    """About 0.9 ms of work on an uncontended core."""
    s = 0.0
    for i in range(1, 4000):
        x = i * 1e-3
        s += math.log1p(x) * math.exp(-x) + math.sqrt(x)
    for _ in range(100):
        s += float(np.sum(np.log1p(_GRID) * _GRID))
    return s


class HostSpeed:
    def __init__(self):
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self) -> int:
        """Take one sample; return its index."""
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            kernel()
            runs.append(time.perf_counter() - t0)
        self._last = time.perf_counter()
        self.samples.append(sorted(runs)[1])
        return len(self.samples) - 1

    def before_op(self) -> int:
        """Index of the sample an op starting now follows; a new sample is
        taken when the last one is ``EVERY_S`` old. After a long op this
        is at once, so the sample after every op is at most that late."""
        if time.perf_counter() - self._last >= EVERY_S:
            return self.sample()
        return len(self.samples) - 1

    def corrected(self, seconds: float, before: int) -> float:
        """``seconds`` at the reference speed, for an op between samples
        ``before`` and ``before + 1``. Call once the run has taken its
        last sample."""
        around = self.samples[before:before + 2]
        return seconds * REFERENCE_S * len(around) / sum(around)

    def slowdowns(self) -> list[float]:
        return [s / REFERENCE_S for s in self.samples]

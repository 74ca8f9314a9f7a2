"""The machine's current speed, from a fixed reference kernel.

The benchmark's end-to-end times are scaled to a reference machine: one
on which ``kernel`` takes ``REF_NS``.  On a shared host the CPU can run
1.5x to 2.3x slower for stretches of seconds to minutes, whatever the
process does.  ``Clock`` times each stage in segments and the kernel
between them, and multiplies a segment's time by ``REF_NS`` over the
kernel's time around it.  The kernel does the kinds of work actmon does
-- dict lookups on tuple keys, like the BDD's unique table, numpy calls
on one short row, like ``forward`` and ``binarize``, and JSON, like the
trace and monitor files -- and calls nothing of actmon, so a change to
actmon does not move it.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

import numpy as np

# the kernel's time on the reference machine: about its time on a
# 2.1 GHz Xeon vCPU in that host's fast state
REF_NS = 1_000_000
# kernel calls per measurement; the median is kept
REPS = 5
# a segment this long is ended where a stage allows it (Clock.lap)
LAP_NS = 50_000_000


def kernel() -> None:
    table: dict[tuple[int, int], int] = {}
    for i in range(2000):
        key = (i & 63, i >> 4)
        table[key] = table.get(key, 0) + i
    row = np.arange(14.0)
    for _ in range(200):
        row = np.maximum(row * 0.5 - 1.0, 0.0) + 1.0
    json.loads(json.dumps(list(table.values())))


def kernel_ns() -> float:
    """Median time of ``REPS`` kernel calls, with the collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        samples = []
        for _ in range(REPS):
            t0 = time.perf_counter_ns()
            kernel()
            samples.append(time.perf_counter_ns() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(samples)


class Clock:
    """Times stages in segments, with the reference kernel between them.

    ``start`` begins a stage; ``lap`` ends the running segment, times the
    kernel and begins the next one.  Each segment gets a factor, ``REF_NS``
    over the mean of the kernel times before and after it, in
    ``factors[segment]``.  ``raw`` and ``scaled`` hold each stage's time
    in seconds, without the kernel calls: as measured, and with every
    segment multiplied by its factor.
    """

    def __init__(self):
        self.kernel = kernel_ns()
        self.factors: list[float] = []
        self.raw: dict[str, float] = {}
        self.scaled: dict[str, float] = {}
        self._stage = ""
        self._t0 = 0

    @property
    def segment(self) -> int:
        """Index of the running segment in ``factors``."""
        return len(self.factors)

    def start(self, stage: str) -> None:
        self._stage = stage
        self.raw[stage] = self.scaled[stage] = 0.0
        self._t0 = time.perf_counter_ns()

    def lap(self, min_ns: int = 0) -> None:
        """End the running segment, unless it has lasted under ``min_ns``."""
        elapsed = time.perf_counter_ns() - self._t0
        if elapsed < min_ns:
            return
        before, self.kernel = self.kernel, kernel_ns()
        factor = 2 * REF_NS / (before + self.kernel)
        self.factors.append(factor)
        self.raw[self._stage] += elapsed / 1e9
        self.scaled[self._stage] += elapsed * factor / 1e9
        self._t0 = time.perf_counter_ns()

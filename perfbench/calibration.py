"""Machine-speed normalisation of the benchmark's times.

The machines this benchmark runs on are shared, and their speed drifts:
the same pass has cost twice the CPU seconds an hour later.  Every
timed pass is therefore bracketed by calibration slices, a fixed
pure-Python workload that does not touch the simulator, and its CPU
seconds are rescaled to a machine on which one slice costs
:data:`REFERENCE_SLICE_S`.  A slower program still reads slower; a
slower machine mostly cancels out.
"""

from __future__ import annotations

import heapq
import random
import time

#: Iterations of one calibration slice.
STEPS = 60000
#: CPU seconds one slice is taken to cost at reference speed.
REFERENCE_SLICE_S = 0.1


def slice_s() -> float:
    """CPU seconds of one calibration slice: random draws, dict
    updates and a bounded heap, the interpreter work the simulator's
    event loop is made of."""
    start = time.process_time()
    rng = random.Random(7)
    heap: list = []
    table: dict = {}
    for i in range(STEPS):
        key = rng.randrange(8192)
        table[key] = table.get(key, 0) + i
        heapq.heappush(heap, (rng.random(), i))
        if len(heap) > 1024:
            heapq.heappop(heap)
    return time.process_time() - start


def scale(seconds: float, *slices: float) -> float:
    """``seconds`` at reference speed, given the slices measured
    around them."""
    return seconds * REFERENCE_SLICE_S / (sum(slices) / len(slices))

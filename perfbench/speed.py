"""How fast the host's CPU runs right now, sampled during a run.

On a shared 2-vCPU virtual machine a fixed pure-Python loop was measured
swinging between two speeds up to 1.7x apart, for seconds at a time, and
raw wall times carry that swing.  :class:`SpeedSampler`
times :func:`calibration` in thread CPU time every :data:`PERIOD_S` from a
background thread, so the time an operation took can be rescaled to what it
would have taken at :data:`REFERENCE_S`: ``wall * REFERENCE_S / sampled``.
Thread CPU time leaves out waits for the interpreter lock and for a core.
"""

from __future__ import annotations

import heapq
import statistics
import threading
import time
from typing import List, Tuple

PERIOD_S = 0.04
#: Thread CPU seconds of one :func:`calibration` at the usual speed of the
#: machine that defined the benchmark (median over its benchmark runs); it
#: only sets the scale of rescaled figures.
REFERENCE_S = 0.00135


def calibration(n: int = 1000) -> float:
    """Fixed interpreter-bound work shaped like the simulator's hot path:
    heap pushes and pops, dict reads and writes, float arithmetic."""
    heap: List[Tuple[float, int]] = []
    table = {}
    x = 0.0
    for i in range(n):
        heapq.heappush(heap, ((i * 0.6180339887) % 1.0, i))
        table[i & 1023] = x
        x += table.get((i * 7) & 1023, 1.0) * 1e-9
        if len(heap) > 256:
            heapq.heappop(heap)
    return x


class SpeedSampler:
    """Background thread recording ``(perf_counter, calibration CPU s)``."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="perfbench-speed", daemon=True)

    def _loop(self) -> None:
        while not self._stop.is_set():
            started = time.thread_time()
            calibration()
            self.samples.append((time.perf_counter(), time.thread_time() - started))
            self._stop.wait(PERIOD_S)

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def sampled(self, start: float, end: float) -> float:
        """Mean calibration time over ``[start, end]`` (nearest sample if none)."""
        inside = [cost for at, cost in self.samples if start <= at <= end]
        if inside:
            return statistics.fmean(inside)
        if not self.samples:
            return REFERENCE_S
        return min(self.samples, key=lambda sample: abs(sample[0] - end))[1]

    def rescale(self, wall_s: float, start: float, end: float) -> float:
        """``wall_s`` as it would read at :data:`REFERENCE_S`."""
        return wall_s * REFERENCE_S / self.sampled(start, end)

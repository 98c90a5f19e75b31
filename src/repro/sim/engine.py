"""The discrete-event simulation engine.

The :class:`Simulator` owns the simulation clock and a binary-heap event
queue.  Events scheduled at the same simulated time fire in FIFO order of
scheduling (a monotone tie-break counter), which keeps runs fully
deterministic.

Every heap record is ``(time, tick, event, fn, args)``: the call itself and
its slim :class:`~repro.sim.events.Event` handle.  The tick counter is unique,
so tuple comparison never reaches the third element.

A cancelled event stays on the heap until popped; :meth:`Simulator._discard`
rebuilds the heap whenever cancelled residents outnumber the live ones, so
the fabric's cancel-and-re-arm recompute timer keeps it O(live events).
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, List, Optional

from repro.sim.events import Event

#: Compaction never triggers below this heap size — rebuilding a tiny heap
#: costs more than carrying a few cancelled entries.
_COMPACT_MIN_HEAP = 64


class SimulationError(RuntimeError):
    """Raised for invalid simulator operations (e.g. scheduling in the past)."""


class Simulator:
    """A deterministic discrete-event simulator.

    Example::

        sim = Simulator()
        sim.call_at(2.5, lambda: print("hello at", sim.now))
        sim.run(until=10.0)
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: List[tuple] = []
        self._counter = itertools.count()
        self._running = False
        self._stopped = False
        self._event_count = 0
        self._cancelled_in_heap = 0
        #: Times the heap was rebuilt to shed cancelled residents (perf counter).
        self.heap_compactions = 0

    # -- clock ----------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (useful for sanity checks)."""
        return self._event_count

    @property
    def pending_count(self) -> int:
        """Live (non-cancelled) records currently on the heap."""
        return len(self._heap) - self._cancelled_in_heap

    @property
    def heap_size(self) -> int:
        """Raw heap length, cancelled residents included (compaction metric)."""
        return len(self._heap)

    # -- scheduling -------------------------------------------------------------
    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time``.

        Returns the event's handle so the call can be cancelled.
        """
        if not time >= self._now - 1e-12:  # NaN too
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        if time < self._now:
            time = self._now
        event = Event(self, time)
        heapq.heappush(self._heap, (time, next(self._counter), event, fn, args))
        return event

    def call_in(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self.call_at(self._now + delay, fn, *args)

    def _discard(self) -> None:
        """Account a lazy cancellation; compact the heap when it is mostly dead.

        ``heapq`` has no efficient removal, so cancelled events stay on the
        heap and the run loop skips them.  Once cancelled residents outnumber
        the live ones the whole heap is rebuilt without them, which bounds
        heap growth to O(live) amortised — a workload scheduling and
        cancelling N timers does O(N log N) total compaction work.
        """
        self._cancelled_in_heap += 1
        if (
            len(self._heap) >= _COMPACT_MIN_HEAP
            and self._cancelled_in_heap * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled events."""
        self._heap = [rec for rec in self._heap if not rec[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0
        self.heap_compactions += 1

    # -- execution ---------------------------------------------------------------
    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty."""
        heap = self._heap
        while heap:
            rec = heap[0]
            if rec[2].cancelled:
                heapq.heappop(heap)
                self._cancelled_in_heap -= 1
                continue
            return rec[0]
        return None

    def step(self) -> bool:
        """Fire the next event.  Returns False when the queue is empty."""
        heap = self._heap
        while heap:
            time, _, event, fn, args = heapq.heappop(heap)
            if event.cancelled:
                self._cancelled_in_heap -= 1
                continue
            if time < self._now - 1e-9:
                raise SimulationError("event heap corrupted: time went backwards")
            self._now = time
            self._event_count += 1
            event.triggered = True
            fn(*args)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or ``max_events`` fire.

        Returns the simulation time at which execution stopped.  If ``until``
        is given the clock is advanced to exactly ``until`` even when the
        queue drains earlier.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        if until is not None and math.isnan(until):
            raise SimulationError("cannot run until t=nan")
        self._running = True
        self._stopped = False
        fired = 0
        try:
            while True:
                if self._stopped:
                    break
                if max_events is not None and fired >= max_events:
                    break
                nxt = self.peek()
                if nxt is None:
                    break
                if until is not None and nxt > until + 1e-12:
                    break
                self.step()
                fired += 1
        finally:
            self._running = False
        if until is not None and self._now < until and not self._stopped:
            self._now = float(until)
        return self._now

    def stop(self) -> None:
        """Request the current :meth:`run` loop to stop after the current event."""
        self._stopped = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Simulator t={self._now:g} pending={self.pending_count}>"

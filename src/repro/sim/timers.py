"""Periodic timers.

The SCDA control plane re-computes rate allocations every control interval τ;
:class:`PeriodicTimer` drives those re-computations (and any other recurring
action such as metric sampling).

Each tick is one :meth:`~repro.sim.engine.Simulator.call_at`.  Stopping does
not cancel the scheduled tick: :meth:`PeriodicTimer.stop` bumps a generation
counter, so the already-scheduled tick fires as a no-op.

One observable consequence: the in-flight tick of a stopped timer stays on
the heap (at most one, at most one interval after the stop).  An
*unbounded* ``run()`` that would otherwise drain the queue processes it as a
no-op, i.e. the clock can come to rest up to one interval past the stop
time.  Bounded runs (``run(until=...)``) and ``FabricSimulator.drain`` are
unaffected.
"""

from __future__ import annotations

from typing import Any, Callable


class PeriodicTimer:
    """Invoke a callback every ``interval`` seconds of simulated time.

    Parameters
    ----------
    sim:
        The owning simulator.
    interval:
        Period in seconds (must be positive); the first tick is at
        ``sim.now + interval``.
    callback:
        Called as ``callback(now)`` on every tick.
    """

    def __init__(self, sim: Any, interval: float, callback: Callable[[float], None]) -> None:
        if not interval > 0:  # NaN too
            raise ValueError(f"interval must be positive, got {interval}")
        self.sim = sim
        self.interval = float(interval)
        self.callback = callback
        self._active = True
        self._ticks = 0
        #: Bumped on stop(); a tick carrying a stale generation is a no-op.
        self._generation = 0
        sim.call_at(sim.now + self.interval, self._tick, self._generation)

    @property
    def ticks(self) -> int:
        """Number of completed ticks."""
        return self._ticks

    @property
    def active(self) -> bool:
        """True until :meth:`stop` is called."""
        return self._active

    def stop(self) -> None:
        """Stop the timer; the callback never runs again.

        The already-scheduled tick is not cancelled; it fires as a no-op at
        its original time, which an unbounded ``run()`` observes as the clock
        resting up to one interval past the stop.
        """
        self._active = False
        self._generation += 1

    def _tick(self, generation: int) -> None:
        if not self._active or generation != self._generation:
            return
        self._ticks += 1
        self.callback(self.sim.now)
        if self._active:
            self.sim.call_at(self.sim.now + self.interval, self._tick, self._generation)

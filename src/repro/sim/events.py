"""The handle of a scheduled call.

:meth:`~repro.sim.engine.Simulator.call_at` returns an :class:`Event`; the
heap record ``(time, tick, event, fn, args)`` carries the call itself.  An
event is pending until it fires (``triggered``) or is cancelled
(``cancelled``); a fired event refuses :meth:`Event.cancel`.
"""

from __future__ import annotations

from typing import Any


class Event:
    """The cancellable handle of one call scheduled on a simulator."""

    __slots__ = ("sim", "scheduled_time", "triggered", "cancelled")

    def __init__(self, sim: Any, time: float) -> None:
        self.sim = sim
        #: Simulated time at which the call is/was scheduled to fire.
        self.scheduled_time = time
        #: True once the call has fired (set before it runs).
        self.triggered = False
        #: True if the call was cancelled before firing.
        self.cancelled = False

    @property
    def pending(self) -> bool:
        """True while the event has neither fired nor been cancelled."""
        return not (self.triggered or self.cancelled)

    def cancel(self) -> None:
        """Cancel the call; it will never run.  A second cancel is a no-op."""
        if self.triggered:
            raise RuntimeError(f"cannot cancel already-triggered {self!r}")
        if self.cancelled:
            return
        self.cancelled = True
        self.sim._discard()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "triggered" if self.triggered else "cancelled" if self.cancelled else "pending"
        return f"<Event {state} t={self.scheduled_time}>"

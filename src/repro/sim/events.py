"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot occurrence that callbacks can wait on.
Events move through the states PENDING -> SCHEDULED -> TRIGGERED, or
PENDING/SCHEDULED -> CANCELLED.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, List, Optional


class EventState(enum.Enum):
    """Lifecycle states of an :class:`Event`."""

    PENDING = "pending"        #: created, not yet placed on the event heap
    SCHEDULED = "scheduled"    #: placed on the heap with a firing time
    TRIGGERED = "triggered"    #: fired; callbacks have run
    CANCELLED = "cancelled"    #: removed before firing


class Event:
    """A one-shot occurrence in simulated time.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.engine.Simulator`.
    name:
        Optional human-readable label used in ``repr`` and error messages.
    """

    __slots__ = ("sim", "name", "_state", "_callbacks", "_time")

    def __init__(self, sim: "Any", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._state = EventState.PENDING
        self._callbacks: List[Callable[["Event"], None]] = []
        self._time: Optional[float] = None

    # -- state inspection ---------------------------------------------------
    @property
    def state(self) -> EventState:
        """Current lifecycle state."""
        return self._state

    @property
    def triggered(self) -> bool:
        """True once the event has fired."""
        return self._state is EventState.TRIGGERED

    @property
    def cancelled(self) -> bool:
        """True if the event was cancelled before firing."""
        return self._state is EventState.CANCELLED

    @property
    def pending(self) -> bool:
        """True while the event has neither fired nor been cancelled."""
        return self._state in (EventState.PENDING, EventState.SCHEDULED)

    @property
    def scheduled_time(self) -> Optional[float]:
        """Simulated time at which the event is/was scheduled to fire."""
        return self._time

    # -- wiring --------------------------------------------------------------
    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn(event)`` to run when the event triggers.

        If the event already triggered the callback runs immediately.
        """
        if self._state is EventState.TRIGGERED:
            fn(self)
        elif self._state is EventState.CANCELLED:
            return
        else:
            self._callbacks.append(fn)

    # -- transitions ---------------------------------------------------------
    def cancel(self) -> None:
        """Cancel the event; its callbacks will never run."""
        if self._state is EventState.TRIGGERED:
            raise RuntimeError(f"cannot cancel already-triggered {self!r}")
        if self._state is EventState.CANCELLED:
            return
        self._state = EventState.CANCELLED
        self._callbacks.clear()
        self.sim._discard(self)

    # -- internal ------------------------------------------------------------
    def _mark_scheduled(self, time: float) -> None:
        self._state = EventState.SCHEDULED
        self._time = time

    def _fire(self) -> None:
        """Run callbacks; used by the engine when the event fires."""
        self._state = EventState.TRIGGERED
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or self.__class__.__name__
        return f"<{label} state={self._state.value} t={self._time}>"

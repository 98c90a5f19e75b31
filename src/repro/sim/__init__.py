"""Discrete-event simulation kernel.

The kernel replaces NS-2 (used by the paper) and SimPy (unavailable offline)
with a small, deterministic, pure-Python discrete-event engine:

* :class:`~repro.sim.engine.Simulator` — event heap and simulation clock.
* :class:`~repro.sim.events.Event` — the cancellable handle that
  ``call_at``/``call_in`` return.
* :class:`~repro.sim.timers.PeriodicTimer` — self-rescheduling timers.
* :class:`~repro.sim.random.RandomStreams` — named, seeded random streams so
  every experiment is reproducible.
"""

from repro.sim.engine import Simulator, SimulationError
from repro.sim.events import Event
from repro.sim.random import RandomStreams
from repro.sim.timers import PeriodicTimer

__all__ = [
    "Simulator",
    "SimulationError",
    "Event",
    "RandomStreams",
    "PeriodicTimer",
]

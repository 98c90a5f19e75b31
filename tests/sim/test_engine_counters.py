"""Pins the engine's observable counters on one fixed script.

``events_processed`` and ``heap_compactions`` reach every scheme result's
canonical dict, so a change to the engine's bookkeeping (how cancelled
records are counted, when the heap is compacted, whether a stopped timer's
stale tick still fires) moves stored results.  The script mixes the three
patterns that decide those counters: the fabric's cancel-and-re-arm
recompute timer, FIFO ties at one time, and a periodic timer stopped
mid-run.  A change that moves the expected values changes stored results.
"""

from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer


def _run_script():
    sim = Simulator()
    snapshots = []
    order = []
    handle = [None]

    def rearm(at):
        # The fabric's pattern: cancel the pending recompute, arm a new one.
        if handle[0] is not None:
            handle[0].cancel()
        handle[0] = sim.call_at(at, on_timer)

    def on_timer():
        handle[0] = None
        if sim.now < 8.0:
            rearm(sim.now + 0.05)

    # A few thousand re-arms before the run: the heap compacts repeatedly.
    for i in range(3_000):
        rearm(1.0 + i * 1e-4)
    snapshots.append((sim.events_processed, sim.heap_compactions, sim.heap_size, sim.now))

    # FIFO ties at two instants; those at 3.0 sit through the run's compactions.
    for label in "abcde":
        sim.call_at(0.5, order.append, label)
    for label in "vwxyz":
        sim.call_at(3.0, order.append, label)

    ticks = []
    timer = PeriodicTimer(sim, 0.3, ticks.append)
    sim.call_at(10.05, timer.stop)

    # Arrivals during the run re-arm the recompute timer, as flow starts do.
    # Each schedules the next, so the cancelled records outnumber the live
    # ones and the heap compacts during the run too.
    def arrive(k):
        rearm(sim.now + 1.0)
        if k < 1_000:
            sim.call_in(0.0075, arrive, k + 1)

    sim.call_at(0.0075, arrive, 1)

    sim.run(until=5.0)
    snapshots.append((sim.events_processed, sim.heap_compactions, sim.heap_size, sim.now))
    # Unbounded: the stopped timer's stale tick fires as a no-op.
    sim.run()
    snapshots.append((sim.events_processed, sim.heap_compactions, sim.heap_size, sim.now))
    return sim, snapshots, order, ticks, timer


def test_engine_counters_are_pinned():
    sim, snapshots, order, ticks, timer = _run_script()
    assert snapshots == EXPECTED_SNAPSHOTS
    assert order == list("abcdevwxyz")
    assert timer.ticks == len(ticks) == EXPECTED_TICKS
    assert not timer.active
    assert sim.pending_count == 0


#: (events_processed, heap_compactions, heap_size, now) after the set-up,
#: after ``run(until=5.0)`` and after the unbounded ``run()``.  The last
#: clock is the stopped timer's stale tick (33 ticks of 0.3 s, then one more).
EXPECTED_SNAPSHOTS = [
    (0, 46, 56, 0.0),
    (692, 58, 27, 5.0),
    (1046, 63, 0, 10.200000000000003),
]
EXPECTED_TICKS = 33

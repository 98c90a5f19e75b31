"""Tests for the engine's lazy-cancellation compaction and periodic-timer ticks."""

from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer


class TestHeapCompaction:
    def test_schedule_and_cancel_100k_timers_keeps_heap_bounded(self):
        """Regression: cancelled events used to stay on the heap until popped."""
        sim = Simulator()
        live = sim.call_at(1e9, lambda: None)  # one live far-future event
        for i in range(100_000):
            ev = sim.call_at(1.0 + i * 1e-6, lambda: None)
            ev.cancel()
            # The heap may transiently hold up to ~2x the live count plus the
            # compaction floor, never the full cancelled backlog.
            assert sim.heap_size <= 256
        assert sim.pending_count == 1
        assert live.pending

    def test_compaction_preserves_live_event_order(self):
        sim = Simulator()
        fired = []
        for t in range(1, 6):
            sim.call_at(float(t), lambda t=t: fired.append(t))
        # Bury them under a pile of cancellations that forces compaction.
        for i in range(1_000):
            sim.call_at(100.0 + i, lambda: None).cancel()
        assert sim.heap_size < 100
        sim.run(until=10.0)
        assert fired == [1, 2, 3, 4, 5]

    def test_repeated_reschedule_pattern_stays_bounded(self):
        """The fabric's cancel-and-rearm recompute pattern must not leak."""
        sim = Simulator()
        pending = None
        for i in range(10_000):
            if pending is not None:
                pending.cancel()
            pending = sim.call_at(1.0 + i * 1e-4, lambda: None)
        assert sim.heap_size <= 256
        assert sim.pending_count == 1

    def test_no_compaction_below_the_minimum_heap_size(self):
        sim = Simulator()
        events = [sim.call_at(1.0 + i, lambda: None) for i in range(63)]
        for ev in events:
            ev.cancel()
        assert sim.heap_compactions == 0
        assert sim.heap_size == 63
        assert sim.pending_count == 0
        sim.run()
        assert sim.events_processed == 0
        assert sim.heap_size == 0

    def test_compaction_starts_once_cancelled_records_exceed_half(self):
        """A heap of 64 compacts at the 33rd cancellation, not the 32nd."""
        sim = Simulator()
        events = [sim.call_at(1.0 + i, lambda: None) for i in range(64)]
        for ev in events[:32]:
            ev.cancel()
        assert sim.heap_compactions == 0
        assert sim.heap_size == 64
        events[32].cancel()
        assert sim.heap_compactions == 1
        assert sim.heap_size == sim.pending_count == 31

    def test_cancelled_count_survives_peek_and_step(self):
        sim = Simulator()
        evs = [sim.call_at(float(t + 1), lambda: None) for t in range(10)]
        for ev in evs[:5]:
            ev.cancel()
        assert sim.peek() == 6.0
        sim.run()
        assert sim.events_processed == 5
        assert sim.heap_size == 0


class TestPeriodicTimerTicks:
    def test_timer_keeps_one_record_on_the_heap(self):
        sim = Simulator()
        ticks = []
        PeriodicTimer(sim, 1.0, lambda now: ticks.append(now))
        sim.run(until=3.5)
        assert ticks == [1.0, 2.0, 3.0]
        assert sim.heap_size == sim.pending_count == 1
        assert sim.peek() == 4.0

    def test_ticks_interleave_fifo_with_events_at_the_same_time(self):
        """Each tick is scheduled when the previous one fires, so it queues
        behind the calls scheduled for its time before then."""
        sim = Simulator()
        order = []
        sim.call_at(1.0, order.append, "a")
        PeriodicTimer(sim, 1.0, lambda now: order.append(f"tick@{now}"))
        sim.call_at(1.0, order.append, "b")
        sim.call_at(2.0, order.append, "c")
        sim.run(until=2.5)
        assert order == ["a", "tick@1.0", "b", "c", "tick@2.0"]

    def test_stopped_timer_stale_record_is_a_noop(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda now: ticks.append(now))
        sim.call_at(2.5, timer.stop)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]
        assert not timer.active

    def test_unbounded_run_rests_at_most_one_interval_past_stop(self):
        """Documented trade-off: the stale tick record advances the clock as a no-op."""
        sim = Simulator()
        timer = PeriodicTimer(sim, 10.0, lambda now: None)
        sim.call_at(12.0, timer.stop)  # tick at 10 fired; next record sits at 20
        end = sim.run()
        assert end == 20.0
        assert timer.ticks == 1

    def test_restart_semantics_via_generation(self):
        """A stale tick from before stop() never fires even at the same time."""
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda now: ticks.append(now))
        sim.call_at(1.5, timer.stop)
        sim.run(until=5.0)
        assert ticks == [1.0]
        assert timer.ticks == 1


class TestHeapCompactionCounter:
    def test_compactions_are_counted(self):
        sim = Simulator()
        assert sim.heap_compactions == 0
        for i in range(10_000):
            sim.call_at(1.0 + i, lambda: None).cancel()
        assert sim.heap_compactions > 0

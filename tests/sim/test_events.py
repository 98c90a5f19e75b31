"""Tests for event primitives."""

import pytest

from repro.sim.events import Event, EventState


class TestEventLifecycle:
    def test_new_event_is_pending(self, sim):
        ev = Event(sim, "x")
        assert ev.pending
        assert not ev.triggered
        assert not ev.cancelled

    def test_firing_triggers_the_event(self, sim):
        seen = []
        ev = sim.call_at(1.0, lambda: seen.append(sim.now))
        sim.run()
        assert ev.triggered
        assert seen == [1.0]

    def test_cancel_prevents_callbacks(self, sim):
        seen = []
        ev = sim.call_at(1.0, lambda: seen.append(sim.now))
        ev.add_callback(lambda e: seen.append(e))
        ev.cancel()
        sim.run()
        assert ev.cancelled
        assert seen == []

    def test_cancel_after_trigger_raises(self, sim):
        ev = sim.call_at(0.0, lambda: None)
        sim.run()
        with pytest.raises(RuntimeError):
            ev.cancel()

    def test_cancel_twice_is_idempotent(self, sim):
        ev = sim.call_at(1.0, lambda: None)
        ev.cancel()
        ev.cancel()
        assert ev.cancelled

    def test_callback_added_after_trigger_runs_immediately(self, sim):
        ev = sim.call_at(0.5, lambda: None)
        sim.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e))
        assert seen == [ev]

    def test_scheduled_time_records_trigger_time(self, sim):
        ev = sim.call_at(2.5, lambda: None)
        sim.run()
        assert ev.scheduled_time == 2.5

    def test_event_state_enum_values(self, sim):
        ev = Event(sim)
        assert ev.state is EventState.PENDING
        ev = sim.call_at(1.0, lambda: None)
        assert ev.state is EventState.SCHEDULED
        sim.run()
        assert ev.state is EventState.TRIGGERED

    def test_unscheduled_event_has_no_time(self, sim):
        ev = Event(sim)
        assert ev.scheduled_time is None
        ev = sim.call_at(3.0, lambda: None)
        assert ev.pending
        assert ev.scheduled_time == 3.0

    def test_callbacks_run_in_registration_order_with_the_event(self, sim):
        seen = []
        ev = sim.call_at(1.0, lambda: seen.append("call"))
        ev.add_callback(lambda e: seen.append(("first", e)))
        ev.add_callback(lambda e: seen.append(("second", e)))
        sim.run()
        assert seen == ["call", ("first", ev), ("second", ev)]

    def test_callback_added_after_cancel_never_runs(self, sim):
        seen = []
        ev = sim.call_at(1.0, lambda: None)
        ev.cancel()
        ev.add_callback(lambda e: seen.append(e))
        sim.run()
        assert seen == []
        assert sim.events_processed == 0

    def test_callback_added_while_firing_runs_at_once(self, sim):
        seen = []
        ev = sim.call_at(1.0, lambda: None)
        ev.add_callback(lambda e: e.add_callback(lambda inner: seen.append(sim.now)))
        sim.run()
        assert seen == [1.0]

    def test_cancelling_an_unscheduled_event_leaves_the_heap_alone(self, sim):
        ev = Event(sim)
        ev.cancel()
        assert ev.cancelled
        assert sim.heap_size == 0
        assert sim.pending_count == 0

    def test_cancel_keeps_the_scheduled_time(self, sim):
        ev = sim.call_at(2.0, lambda: None)
        ev.cancel()
        assert ev.state is EventState.CANCELLED
        assert not ev.pending
        assert ev.scheduled_time == 2.0
        assert sim.pending_count == 0

    def test_earlier_callback_can_cancel_a_same_time_event(self, sim):
        seen = []
        later = []
        sim.call_at(1.0, lambda: later[0].cancel())
        later.append(sim.call_at(1.0, lambda: seen.append("fired")))
        sim.run()
        assert seen == []
        assert later[0].cancelled
        assert sim.events_processed == 1

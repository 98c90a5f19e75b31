"""Tests for the event handle that ``call_at`` returns."""

import pytest


class TestEventLifecycle:
    def test_scheduled_event_is_pending(self, sim):
        ev = sim.call_at(1.0, lambda: None)
        assert ev.pending
        assert not ev.triggered
        assert not ev.cancelled

    def test_firing_triggers_the_event(self, sim):
        seen = []
        ev = sim.call_at(1.0, lambda: seen.append(sim.now))
        sim.run()
        assert ev.triggered
        assert not ev.pending
        assert seen == [1.0]

    def test_cancel_prevents_callbacks(self, sim):
        seen = []
        ev = sim.call_at(1.0, lambda: seen.append(sim.now))
        ev.cancel()
        sim.run()
        assert ev.cancelled
        assert seen == []

    def test_cancel_after_trigger_raises(self, sim):
        ev = sim.call_at(0.0, lambda: None)
        sim.run()
        with pytest.raises(RuntimeError):
            ev.cancel()

    def test_an_event_cannot_cancel_itself_while_firing(self, sim):
        errors = []
        handle = []

        def fire():
            try:
                handle[0].cancel()
            except RuntimeError as exc:
                errors.append(exc)

        handle.append(sim.call_at(1.0, fire))
        sim.run()
        assert len(errors) == 1
        assert handle[0].triggered and not handle[0].cancelled

    def test_cancel_twice_is_idempotent(self, sim):
        ev = sim.call_at(1.0, lambda: None)
        ev.cancel()
        ev.cancel()
        assert ev.cancelled
        # Counted once: the one cancelled resident is the whole heap.
        assert sim.heap_size == 1
        assert sim.pending_count == 0

    def test_cancel_after_compaction_is_still_a_no_op(self, sim):
        """A second cancel of a record the heap already shed leaves the count alone."""
        live = sim.call_at(1e9, lambda: None)
        events = [sim.call_at(1.0 + i, lambda: None) for i in range(99)]
        for ev in events:
            ev.cancel()
        assert sim.heap_compactions == 1
        counts = (sim.heap_size, sim.pending_count, sim.heap_compactions)
        assert counts[1] == 1
        for ev in events:
            ev.cancel()
        assert (sim.heap_size, sim.pending_count, sim.heap_compactions) == counts
        sim.run()
        assert sim.events_processed == 1
        assert sim.heap_size == 0
        assert live.triggered

    def test_triggered_is_set_before_the_call_runs(self, sim):
        states = []
        handle = []

        def fire():
            states.append((handle[0].triggered, handle[0].pending))

        handle.append(sim.call_at(1.0, fire))
        sim.run()
        assert states == [(True, False)]

    def test_call_in_returns_a_cancellable_handle(self, sim):
        seen = []
        sim.run(until=2.0)
        ev = sim.call_in(0.5, seen.append, "x")
        assert ev.pending
        assert ev.scheduled_time == 2.5
        ev.cancel()
        sim.run()
        assert seen == []
        assert sim.events_processed == 0

    def test_handle_has_no_instance_dict(self, sim):
        """The handle is a ``__slots__`` record: one per scheduled call."""
        ev = sim.call_at(1.0, lambda: None)
        assert not hasattr(ev, "__dict__")
        with pytest.raises(AttributeError):
            ev.name = "x"

    def test_scheduled_time_records_trigger_time(self, sim):
        ev = sim.call_at(2.5, lambda: None)
        sim.run()
        assert ev.scheduled_time == 2.5

    def test_scheduled_time_is_clamped_to_now(self, sim):
        sim.run(until=1.0)
        ev = sim.call_at(1.0 - 1e-13, lambda: None)
        assert ev.scheduled_time == 1.0

    def test_cancel_keeps_the_scheduled_time(self, sim):
        ev = sim.call_at(2.0, lambda: None)
        ev.cancel()
        assert ev.cancelled
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

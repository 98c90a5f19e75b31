"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator


class TestClock:
    def test_starts_at_zero_by_default(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_run_with_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.run(until=12.5)
        assert sim.now == 12.5


class TestScheduling:
    def test_call_at_runs_callback_at_the_right_time(self):
        sim = Simulator()
        seen = []
        sim.call_at(3.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.0]

    def test_call_in_is_relative_to_now(self):
        sim = Simulator()
        seen = []
        sim.call_at(2.0, lambda: sim.call_in(1.5, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [3.5]

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.call_at(5.0, lambda: order.append("late"))
        sim.call_at(1.0, lambda: order.append("early"))
        sim.call_at(3.0, lambda: order.append("middle"))
        sim.run()
        assert order == ["early", "middle", "late"]

    def test_same_time_events_fire_in_scheduling_order(self):
        sim = Simulator()
        order = []
        for label in "abcde":
            sim.call_at(1.0, lambda l=label: order.append(l))
        sim.run()
        assert order == list("abcde")

    def test_scheduling_in_the_past_raises(self):
        sim = Simulator()
        sim.call_at(10.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(5.0, lambda: None)

    def test_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_in(-1.0, lambda: None)

    @pytest.mark.parametrize("method", ["call_at", "call_in"])
    def test_nan_time_raises(self, method):
        """A NaN time never reaches the heap, where ``run()`` would end
        with ``now`` at NaN."""
        sim = Simulator()
        with pytest.raises(SimulationError):
            getattr(sim, method)(float("nan"), lambda: None)
        assert sim.heap_size == 0
        sim.run()
        assert sim.now == 0.0

    def test_callback_arguments_are_passed(self):
        sim = Simulator()
        seen = []
        sim.call_at(1.0, lambda a, b: seen.append((a, b)), 1, "x")
        sim.run()
        assert seen == [(1, "x")]

    def test_call_in_arguments_are_passed(self):
        sim = Simulator()
        seen = []
        sim.call_in(2.0, lambda a, b: seen.append((sim.now, a, b)), 1, "x")
        sim.run()
        assert seen == [(2.0, 1, "x")]

    def test_a_call_for_now_fires_after_the_ties_already_queued(self):
        """FIFO by scheduling order: a same-time call made while firing
        queues behind the calls scheduled for that time earlier."""
        sim = Simulator()
        order = []
        sim.call_at(1.0, lambda: (order.append("a"), sim.call_in(0.0, order.append, "c")))
        sim.call_at(1.0, order.append, "b")
        sim.call_at(2.0, order.append, "d")
        sim.run()
        assert order == ["a", "b", "c", "d"]


class TestRunControl:
    def test_run_until_does_not_fire_later_events(self):
        sim = Simulator()
        seen = []
        sim.call_at(1.0, lambda: seen.append(1))
        sim.call_at(10.0, lambda: seen.append(10))
        sim.run(until=5.0)
        assert seen == [1]
        assert sim.now == 5.0

    def test_later_events_survive_a_bounded_run(self):
        sim = Simulator()
        seen = []
        sim.call_at(10.0, lambda: seen.append(10))
        sim.run(until=5.0)
        sim.run()
        assert seen == [10]

    @pytest.mark.parametrize("with_timer", [False, True])
    def test_nan_until_raises(self, with_timer):
        """``nxt > nan`` is never true, so a periodic tick would keep such a
        run going; ``max_events`` bounds it if the refusal is missing."""
        from repro.sim.timers import PeriodicTimer

        sim = Simulator()
        if with_timer:
            PeriodicTimer(sim, 1.0, lambda now: None)
        with pytest.raises(SimulationError):
            sim.run(until=float("nan"), max_events=1000)
        assert sim.events_processed == 0
        assert sim.now == 0.0

    def test_max_events_limits_execution(self):
        sim = Simulator()
        seen = []
        for t in range(1, 6):
            sim.call_at(float(t), lambda t=t: seen.append(t))
        sim.run(max_events=2)
        assert seen == [1, 2]

    def test_stop_halts_the_run_loop(self):
        sim = Simulator()
        seen = []
        sim.call_at(1.0, lambda: (seen.append(1), sim.stop()))
        sim.call_at(2.0, lambda: seen.append(2))
        sim.run()
        assert seen == [1]

    def test_step_returns_false_when_queue_is_empty(self):
        sim = Simulator()
        assert sim.step() is False

    def test_step_fires_exactly_one_event(self):
        sim = Simulator()
        seen = []
        sim.call_at(1.0, lambda: seen.append(1))
        sim.call_at(2.0, lambda: seen.append(2))
        assert sim.step() is True
        assert seen == [1]

    def test_step_skips_cancelled_events(self):
        sim = Simulator()
        seen = []
        sim.call_at(1.0, seen.append, 1).cancel()
        sim.call_at(2.0, seen.append, 2)
        assert sim.step() is True
        assert seen == [2]
        assert sim.now == 2.0
        assert sim.heap_size == 0

    def test_step_returns_false_when_only_cancelled_events_remain(self):
        sim = Simulator()
        for t in range(3):
            sim.call_at(float(t + 1), lambda: None).cancel()
        assert sim.step() is False
        assert sim.heap_size == sim.pending_count == 0
        assert sim.now == 0.0
        assert sim.events_processed == 0

    def test_peek_returns_next_event_time(self):
        sim = Simulator()
        sim.call_at(4.0, lambda: None)
        sim.call_at(2.0, lambda: None)
        assert sim.peek() == 2.0

    def test_peek_skips_cancelled_events(self):
        sim = Simulator()
        ev = sim.call_at(1.0, lambda: None)
        sim.call_at(2.0, lambda: None)
        ev.cancel()
        assert sim.peek() == 2.0

    def test_events_processed_counter(self):
        sim = Simulator()
        for t in range(3):
            sim.call_at(float(t + 1), lambda: None)
        sim.run()
        assert sim.events_processed == 3

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        seen = []
        ev = sim.call_at(1.0, lambda: seen.append("x"))
        ev.cancel()
        sim.run()
        assert seen == []

    def test_events_scheduled_during_run_are_executed(self):
        sim = Simulator()
        seen = []

        def chain(depth):
            seen.append(depth)
            if depth < 3:
                sim.call_in(1.0, chain, depth + 1)

        sim.call_at(1.0, chain, 0)
        sim.run()
        assert seen == [0, 1, 2, 3]
        assert sim.now == 4.0

    def test_a_long_call_in_chain_runs_to_the_end(self):
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 1000:
                sim.call_in(0.001, tick)

        sim.call_in(0.001, tick)
        sim.run()
        assert count[0] == 1000
        assert sim.events_processed == 1000

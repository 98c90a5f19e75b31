"""Tests for periodic timers."""

import pytest

from repro.sim.timers import PeriodicTimer


class TestPeriodicTimer:
    def test_ticks_at_fixed_interval(self, sim):
        ticks = []
        PeriodicTimer(sim, 1.0, lambda now: ticks.append(now))
        sim.run(until=3.5)
        assert ticks == [1.0, 2.0, 3.0]

    def test_stop_prevents_future_ticks(self, sim):
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda now: ticks.append(now))
        sim.call_at(2.5, timer.stop)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]
        assert not timer.active

    def test_stop_from_within_callback(self, sim):
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda now: (ticks.append(now), timer.stop()))
        sim.run(until=10.0)
        assert ticks == [1.0]

    def test_stop_within_the_callback_leaves_no_record(self, sim):
        """Stopped while firing, the timer schedules no further tick, so an
        unbounded run rests at the last tick."""
        def tick(now):
            if now >= 3.0:
                timer.stop()

        timer = PeriodicTimer(sim, 1.0, tick)
        assert sim.run() == 3.0
        assert timer.ticks == 3
        assert sim.heap_size == 0

    def test_timer_started_mid_run_ticks_from_now(self, sim):
        ticks = []
        sim.run(until=0.5)
        PeriodicTimer(sim, 1.0, ticks.append)
        sim.run(until=3.0)
        assert ticks == [1.5, 2.5]

    def test_timers_on_one_grid_tick_in_creation_order(self, sim):
        ticks = []
        for i in range(4):
            PeriodicTimer(sim, 0.5, lambda now, i=i: ticks.append((now, i)))
        sim.run(until=1.1)
        assert ticks == [
            (0.5, 0), (0.5, 1), (0.5, 2), (0.5, 3),
            (1.0, 0), (1.0, 1), (1.0, 2), (1.0, 3),
        ]

    def test_stopped_timer_does_not_fire_beside_a_running_one(self, sim):
        ticks = []
        keep = PeriodicTimer(sim, 1.0, lambda now: ticks.append("keep"))
        stop = PeriodicTimer(sim, 1.0, lambda now: ticks.append("stop"))
        sim.call_at(0.5, stop.stop)
        sim.run(until=2.5)
        assert ticks == ["keep", "keep"]
        assert keep.ticks == 2
        assert stop.ticks == 0

    def test_tick_counter(self, sim):
        timer = PeriodicTimer(sim, 0.5, lambda now: None)
        sim.run(until=2.0)
        assert timer.ticks == 4

    @pytest.mark.parametrize("interval", [0.0, -1.0, float("nan")])
    def test_invalid_interval_raises(self, sim, interval):
        with pytest.raises(ValueError, match="interval must be positive"):
            PeriodicTimer(sim, interval, lambda now: None)
        assert sim.heap_size == 0

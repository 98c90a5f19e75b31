"""Tests for the load / control-interval sweeps."""

import pytest

from repro.experiments.sweeps import (
    SweepPoint,
    SweepResult,
    sweep_control_interval,
    sweep_offered_load,
)


class TestSweepResult:
    def _result(self):
        return SweepResult(
            parameter_name="x",
            points=[
                SweepPoint(1.0, 0.5, 1.0, 2.0, 1.0),
                SweepPoint(2.0, 0.6, 1.2, 2.0, 1.0),
                SweepPoint(3.0, 1.5, 1.2, 0.8, 0.4),
            ],
        )

    def test_accessors(self):
        result = self._result()
        assert result.parameters() == [1.0, 2.0, 3.0]
        assert result.speedups() == [2.0, 2.0, 0.8]
        assert result.crossover_points() == [3.0]

    def test_table_rendering(self):
        table = self._result().as_table()
        assert "speedup" in table
        assert len(table.splitlines()) == 4


class TestOfferedLoadSweep:
    def test_scda_wins_at_every_load_point(self):
        result = sweep_offered_load([10.0, 30.0], sim_time=2.5, seed=4)
        assert len(result.points) == 2
        # No crossover: SCDA stays ahead at light and moderate load.
        assert result.crossover_points() == []
        assert all(p.cdf_dominance >= 0.7 for p in result.points)

    def test_invalid_rates_raise(self):
        with pytest.raises(ValueError):
            sweep_offered_load([])
        with pytest.raises(ValueError):
            sweep_offered_load([0.0])


class TestControlIntervalSweep:
    def test_sweep_runs_and_keeps_scda_ahead(self):
        result = sweep_control_interval([0.01, 0.05], sim_time=2.5, seed=4, arrival_rate_per_s=20.0)
        assert len(result.points) == 2
        assert result.crossover_points() == []

    def test_invalid_intervals_raise(self):
        with pytest.raises(ValueError):
            sweep_control_interval([])
        with pytest.raises(ValueError):
            sweep_control_interval([-0.01])


class TestSweepSerialisation:
    def test_round_trip_like_the_spec(self):
        import json

        result = SweepResult(
            parameter_name="arrival rate (flows/s)",
            points=[SweepPoint(1.0, 0.5, 1.0, 2.0, 1.0), SweepPoint(2.0, 0.6, 1.2, 2.0, 0.9)],
        )
        clone = SweepResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert clone == result

    def test_point_round_trip(self):
        point = SweepPoint(40.0, 0.25, 1.25, 5.0, 1.0)
        assert SweepPoint.from_dict(point.to_dict()) == point


class TestExecutorBackends:
    def test_process_sweep_is_bit_identical_to_serial(self):
        kwargs = dict(sim_time=2.0, seed=4)
        serial = sweep_offered_load([10.0, 30.0], executor="serial", **kwargs)
        processed = sweep_offered_load([10.0, 30.0], executor="process", max_workers=2, **kwargs)
        assert processed.to_dict() == serial.to_dict()

    def test_sweep_with_store_resumes_fully(self, tmp_path):
        store = tmp_path / "sweep.jsonl"
        first = sweep_offered_load([10.0], sim_time=2.0, seed=4, store=str(store))
        events = []
        second = sweep_offered_load(
            [10.0], sim_time=2.0, seed=4, store=str(store),
            progress=lambda event, job, detail: events.append(event),
        )
        assert second.to_dict() == first.to_dict()
        # Every job was a cache hit: nothing was submitted to a backend.
        assert set(events) == {"cached"}

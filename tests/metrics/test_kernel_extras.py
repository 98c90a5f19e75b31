"""Tests for the kernel perf-counter export pipeline.

Counters flow from the fabric / solver / engine through
``MetricsCollector.kernel_extras`` into ``SchemeResult.extras`` (prefixed
``kernel_``) and from there into the serve daemon's ``/stats`` aggregate.
All counters are deterministic functions of the run, so they are safe inside
the canonical (bit-compared) result payload.
"""

import pytest

from repro.metrics.collector import MetricsCollector
from repro.network.fabric import FabricSimulator
from repro.network.transport.ideal import IdealMaxMinTransport
from repro.sim.engine import Simulator


@pytest.fixture
def stack(tiny_line_topology):
    sim = Simulator()
    fabric = FabricSimulator(sim, tiny_line_topology, IdealMaxMinTransport())
    collector = MetricsCollector(fabric)
    return sim, fabric, collector


class TestCollectorKernelExtras:
    def test_baseline_counters_always_present(self, stack):
        sim, fabric, collector = stack
        extras = collector.kernel_extras()
        for key in ("recomputes", "recomputes_coalesced", "heap_compactions"):
            assert key in extras
            assert isinstance(extras[key], float)

    def test_counters_track_fabric_activity(self, stack, tiny_line_topology):
        sim, fabric, collector = stack
        client, host = tiny_line_topology.clients()[0], tiny_line_topology.hosts()[0]
        with fabric.churn():
            for _ in range(3):
                fabric.start_flow(client, host, 1e6)
        sim.run(until=5.0)
        extras = collector.kernel_extras()
        assert extras["recomputes"] >= 1.0
        assert extras["recomputes_coalesced"] >= 3.0

    def test_delta_solver_counters_appear_when_attached(self, stack):
        sim, fabric, collector = stack
        extras = collector.kernel_extras()
        if fabric.incidence.delta is None:  # numpy-less environment
            assert "solves_incremental" not in extras
        else:
            for key in ("solves_full", "solves_incremental", "dirty_rows_max"):
                assert key in extras

    def test_heap_compactions_follow_the_engine(self, stack):
        sim, fabric, collector = stack
        for i in range(1_000):
            sim.call_at(1.0 + i, lambda: None).cancel()
        assert sim.heap_compactions > 0
        assert collector.kernel_extras()["heap_compactions"] == float(sim.heap_compactions)

    def test_extras_are_the_fabric_engine_and_solver_counters(self, stack):
        """The key set reaches every canonical result; nothing else joins it."""
        sim, fabric, collector = stack
        expected = {"recomputes", "recomputes_coalesced", "heap_compactions"}
        if fabric.incidence.delta is not None:
            expected |= set(fabric.incidence.delta.stats())
        assert set(collector.kernel_extras()) == expected


class TestRunnerExportsKernelExtras:
    def test_scheme_result_carries_prefixed_kernel_counters(self):
        from repro.experiments.spec import ScenarioSpec
        from repro.experiments.runner import run_scheme

        scenario = ScenarioSpec.pareto_poisson(sim_time_s=1.0, seed=5)
        result = run_scheme(scenario, "rand-tcp")
        assert result.extras["kernel_recomputes"] > 0.0
        assert "kernel_heap_compactions" in result.extras
        # Deterministic: the same run reproduces the same counters.
        again = run_scheme(scenario, "rand-tcp")
        kernel = {k: v for k, v in result.extras.items() if k.startswith("kernel_")}
        kernel_again = {
            k: v for k, v in again.extras.items() if k.startswith("kernel_")
        }
        assert kernel == kernel_again

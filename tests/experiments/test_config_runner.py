"""Tests for the paper scenarios and the experiment runner."""

import pytest

from repro.baselines.schemes import IDEAL_ORACLE, RAND_TCP, SCDA_SCHEME
from repro.experiments.runner import build_stack, generate_workload, run_comparison, run_scheme
from repro.experiments.spec import ScenarioSpec, paper_scenario

MBPS = 1e6


def tiny_scenario(**overrides):
    """A deliberately small scenario so runner tests stay fast."""
    spec = ScenarioSpec.pareto_poisson(sim_time_s=3.0, seed=5, arrival_rate_per_s=15.0)
    return spec.with_overrides(drain_time_s=10.0, **overrides)


def num_hosts(spec):
    tree = spec.topology_params
    return tree["num_agg"] * tree["racks_per_agg"] * tree["hosts_per_rack"]


class TestPaperScenarios:
    def test_named_constructors_set_paper_parameters(self):
        video = paper_scenario("video")
        assert video.workload == "video"
        assert video.topology_params["base_bandwidth_bps"] == pytest.approx(500 * MBPS)
        assert num_hosts(video) == 20
        assert video.workload_params["include_control_flows"]

        no_control = paper_scenario("video-nocontrol")
        assert not no_control.workload_params["include_control_flows"]

        dc1 = paper_scenario("datacenter-k1")
        dc3 = paper_scenario("datacenter-k3")
        assert dc1.topology_params["bandwidth_factor"] == 1.0
        assert dc3.topology_params["bandwidth_factor"] == 3.0

        pareto = paper_scenario("pareto")
        assert pareto.topology_params["base_bandwidth_bps"] == pytest.approx(200 * MBPS)
        assert pareto.workload_params["pareto_shape"] == pytest.approx(1.6)

    def test_with_overrides_returns_modified_copy(self):
        spec = paper_scenario("pareto")
        other = spec.with_overrides(seed=99)
        assert other.seed == 99 and spec.seed != 99

    def test_total_time_includes_drain(self):
        spec = ScenarioSpec.pareto_poisson(sim_time_s=10.0).with_overrides(drain_time_s=5.0)
        assert spec.total_time_s == 15.0

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(sim_time_s=0.0)
        with pytest.raises(ValueError):
            ScenarioSpec(drain_time_s=-1.0)


class TestWorkloadGeneration:
    def test_workload_is_deterministic_per_config(self):
        cfg = tiny_scenario()
        a, b = generate_workload(cfg), generate_workload(cfg)
        assert [r.size_bytes for r in a] == [r.size_bytes for r in b]

    def test_each_kind_produces_requests(self):
        for cfg in (
            ScenarioSpec.video(sim_time_s=3.0),
            ScenarioSpec.datacenter(sim_time_s=3.0),
            ScenarioSpec.pareto_poisson(sim_time_s=3.0, arrival_rate_per_s=20.0),
        ):
            assert len(generate_workload(cfg)) > 0


class TestBuildStack:
    def test_rand_tcp_stack_has_no_controller(self):
        stack = build_stack(tiny_scenario(), RAND_TCP)
        assert stack.controller is None
        assert stack.fabric.transport.name == "tcp"

    def test_scda_stack_wires_controller_everywhere(self):
        stack = build_stack(tiny_scenario(), SCDA_SCHEME)
        assert stack.controller is not None
        assert stack.fabric.transport.name == "scda"
        assert stack.fabric.transport.provider is stack.controller
        assert stack.placement.name == "scda"

    def test_cluster_has_block_servers_on_every_host(self):
        stack = build_stack(tiny_scenario(), RAND_TCP)
        assert set(stack.cluster.block_servers) == {h.node_id for h in stack.topology.hosts()}


class TestRunScheme:
    def test_run_produces_records_and_throughput(self):
        result = run_scheme(tiny_scenario(), SCDA_SCHEME)
        assert result.scheme == "SCDA"
        assert result.completed_flows > 0
        assert len(result.throughput) > 0
        assert result.extras["requests_issued"] > 0
        # Nearly every request should finish within the drain window.
        assert result.extras["requests_completed"] >= 0.9 * result.extras["requests_issued"]

    def test_ideal_oracle_also_runs(self):
        result = run_scheme(tiny_scenario(), IDEAL_ORACLE)
        assert result.completed_flows > 0

    def test_same_seed_same_scheme_is_reproducible(self):
        cfg = tiny_scenario()
        a = run_scheme(cfg, RAND_TCP)
        b = run_scheme(cfg, RAND_TCP)
        assert a.completed_flows == b.completed_flows
        assert a.mean_fct_s() == pytest.approx(b.mean_fct_s(), rel=1e-9)

    def test_run_comparison_uses_identical_workloads(self):
        comparison = run_comparison(tiny_scenario())
        assert comparison.candidate.extras["requests_issued"] == comparison.baseline.extras[
            "requests_issued"
        ]
        assert comparison.candidate.scheme == "SCDA"
        assert comparison.baseline.scheme == "RandTCP"

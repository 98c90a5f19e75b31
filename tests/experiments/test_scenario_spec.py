"""Tests for the declarative ScenarioSpec API and the paper-scenario table."""

import argparse
import importlib.util
import json
from pathlib import Path

import pytest

from repro.exec import plan_comparison
from repro.experiments.runner import (
    generate_workload,
    resolve_scheme,
    run_comparison,
    run_scenario,
)
from repro.experiments.spec import PAPER_SCENARIOS, ScenarioSpec, as_spec, paper_scenario
from repro.registry import RegistryError

TOPOLOGY_KEYS = ("tree", "fattree", "vl2", "leafspine")

#: Pre-refactor mean FCTs for the Pareto/Poisson paper scenario at
#: ``sim_time_s=2.5, seed=3`` measured on the direct-import runner, before
#: the registry rewire.  The refactor must keep these bit-for-bit (tolerance
#: only for cross-platform float noise).
PARETO_PINNED_SCDA_FCT_S = 0.26670428511751804
PARETO_PINNED_RANDTCP_FCT_S = 1.2718256447813858


def small_spec(**overrides) -> ScenarioSpec:
    defaults = dict(
        name="spec-test",
        seed=7,
        sim_time_s=2.0,
        drain_time_s=20.0,
        topology="fattree",
        workload="pareto-poisson",
        workload_params={"arrival_rate_per_s": 15.0},
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestSerialisation:
    @pytest.mark.parametrize("topology", TOPOLOGY_KEYS)
    def test_json_round_trip_is_lossless(self, topology):
        spec = ScenarioSpec(
            name=f"rt-{topology}",
            seed=11,
            sim_time_s=4.5,
            topology=topology,
            workload="datacenter",
            workload_params={"arrival_rate_per_s": 25.0, "mice_fraction": 0.75},
            scda_params={"alpha": 0.9},
        )
        restored = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_save_and_load(self, tmp_path):
        spec = small_spec()
        path = spec.save(tmp_path / "scenario.json")
        assert ScenarioSpec.load(path) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="valid fields"):
            ScenarioSpec.from_dict({"definitely_not_a_field": 1})

    def test_params_are_canonicalised_to_json_types(self):
        spec = small_spec(
            workload="multi-tenant",
            workload_params={"tenants": ("a", "b"), "sessions_per_tenant": (1, 2)},
        )
        assert spec.workload_params["sessions_per_tenant"] == [1, 2]
        assert ScenarioSpec.from_json(spec.to_json()) == spec


class TestRegistryLookups:
    @pytest.mark.parametrize("topology", TOPOLOGY_KEYS)
    def test_every_registered_topology_builds_from_string_key(self, topology):
        topo = ScenarioSpec(topology=topology).build_topology()
        assert len(topo.hosts()) > 0

    def test_unknown_topology_lists_available(self):
        with pytest.raises(RegistryError) as excinfo:
            ScenarioSpec(topology="moebius-strip").build_topology()
        message = str(excinfo.value)
        assert "unknown topology" in message
        for name in TOPOLOGY_KEYS:
            assert name in message

    def test_unknown_workload_kind_lists_available(self):
        with pytest.raises(RegistryError) as excinfo:
            generate_workload(ScenarioSpec(workload="quantum"))
        message = str(excinfo.value)
        assert "unknown workload" in message
        assert "pareto-poisson" in message

    def test_unknown_scheme_lists_available(self):
        with pytest.raises(RegistryError) as excinfo:
            resolve_scheme("warp-drive")
        message = str(excinfo.value)
        assert "unknown scheme" in message
        assert "rand-tcp" in message

    def test_bad_topology_param_names_config_fields(self):
        with pytest.raises(RegistryError, match="valid fields"):
            ScenarioSpec(topology="fattree", topology_params={"pods": 4}).build_topology()

    def test_workload_duration_defaults_to_sim_time(self):
        spec = small_spec(sim_time_s=1.5)
        workload = spec.build_workload()
        assert len(workload) > 0
        assert max(r.arrival_time_s for r in workload) <= 1.5


class TestRunScenario:
    def test_fattree_scenario_runs_end_to_end_via_string_keys(self):
        spec = ScenarioSpec(
            name="fattree-dc",
            seed=3,
            sim_time_s=2.0,
            drain_time_s=20.0,
            topology="fattree",
            workload="datacenter",
        )
        comparison = run_scenario(spec)
        assert comparison.scenario == "fattree-dc"
        assert comparison.candidate.scheme == "SCDA"
        assert comparison.baseline.scheme == "RandTCP"
        assert comparison.candidate.completed_flows > 0
        assert comparison.baseline.completed_flows > 0
        # identical workloads for both schemes
        assert (
            comparison.candidate.extras["requests_issued"]
            == comparison.baseline.extras["requests_issued"]
        )

    def test_scheme_registry_keys_and_spec_objects_are_equivalent(self):
        from repro.baselines.schemes import RAND_TCP, SCDA_SCHEME

        spec = small_spec(topology="tree", topology_params={})
        by_key = run_scenario(spec, schemes=("scda", "rand-tcp"))
        by_spec = run_scenario(spec, schemes=(SCDA_SCHEME, RAND_TCP))
        assert by_key.candidate.mean_fct_s() == pytest.approx(
            by_spec.candidate.mean_fct_s(), rel=1e-12
        )

    def test_run_scenario_requires_exactly_two_schemes(self):
        with pytest.raises(ValueError, match="exactly two"):
            run_scenario(small_spec(), schemes=("scda",))

    def test_dict_scenario_is_accepted(self):
        spec = small_spec()
        comparison = run_scenario(spec.to_dict())
        assert comparison.candidate.completed_flows > 0

    def test_hedera_params_reach_the_scheduler(self):
        from repro.experiments.runner import build_stack

        spec = small_spec(
            hedera_params={"elephant_threshold_bytes": 1024.0, "scheduling_interval_s": 0.5}
        )
        stack = build_stack(spec, "hedera")
        assert stack.hedera is not None
        assert stack.hedera.config.elephant_threshold_bytes == 1024.0
        assert stack.hedera.config.scheduling_interval_s == 0.5
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_bad_hedera_param_names_valid_fields(self):
        with pytest.raises(RegistryError, match="valid fields"):
            small_spec(hedera_params={"threshold": 1}).build_hedera_config()

    def test_bad_scda_param_value_raises_registry_error(self):
        with pytest.raises(RegistryError, match="invalid scda_params"):
            small_spec(scda_params={"alpha": -5.0}).build_scda_params()
        with pytest.raises(RegistryError, match="invalid hedera_params"):
            small_spec(hedera_params={"scheduling_interval_s": 0.0}).build_hedera_config()

    def test_tau_sweep_keeps_base_arrival_rate(self):
        from repro.exec.planner import with_arrival_rate
        from repro.experiments.sweeps import _base_spec

        base = ScenarioSpec.pareto_poisson(sim_time_s=2.0, arrival_rate_per_s=200.0)
        # mirrors sweep_control_interval's rate handling: None keeps the base's
        spec = _base_spec(base, None, None, None)
        assert spec.workload_params["arrival_rate_per_s"] == 200.0
        assert with_arrival_rate(spec, 40.0).workload_params["arrival_rate_per_s"] == 40.0

    def test_control_interval_cannot_diverge_via_scda_params(self):
        with pytest.raises(RegistryError, match="control_interval_s"):
            small_spec(scda_params={"control_interval_s": 0.1})
        assert (
            small_spec(control_interval_s=0.02).build_scda_params().control_interval_s
            == 0.02
        )

    def test_sweep_base_honours_explicit_overrides_only(self):
        from repro.experiments.sweeps import _base_spec

        base = small_spec(sim_time_s=3.5, seed=9)
        kept = _base_spec(base, None, None, None)
        assert kept.sim_time_s == 3.5 and kept.seed == 9
        overridden = _base_spec(base, 7.0, 2, "leafspine")
        assert overridden.sim_time_s == 7.0 and overridden.seed == 2
        assert overridden.topology == "leafspine" and overridden.topology_params == {}

    def test_sweep_sim_time_override_shortens_a_baked_in_duration(self):
        from repro.experiments.sweeps import _base_spec

        base = ScenarioSpec.pareto_poisson(sim_time_s=20.0)
        assert base.workload_params["duration_s"] == 20.0
        short = _base_spec(base, 1.0, None, None)
        assert short.workload_params["duration_s"] == 1.0
        workload = short.build_workload()
        assert max(r.arrival_time_s for r in workload) <= 1.0

    def test_with_topology_and_with_workload_helpers(self):
        spec = small_spec().with_topology("vl2", num_tor=6).with_workload("video")
        assert spec.topology == "vl2" and spec.topology_params == {"num_tor": 6}
        assert spec.workload == "video" and spec.workload_params == {}
        assert len(spec.build_topology().hosts()) == 24

    def test_sweep_handles_video_arrival_rate_field(self):
        from repro.exec.planner import with_arrival_rate

        video = paper_scenario("video", 2.0)
        swept = with_arrival_rate(video, 5.0)
        assert swept.workload_params["video_arrival_rate_per_s"] == 5.0
        pareto = ScenarioSpec.pareto_poisson(sim_time_s=2.0)
        assert with_arrival_rate(pareto, 9.0).workload_params["arrival_rate_per_s"] == 9.0


#: One bad input per plugin axis; each must fail when the spec is built.
BAD_SPECS = {
    "unknown-topology": {"topology": "nope"},
    "unknown-workload-param": {"workload_params": {"bogus": 1}},
    "negative-arrival-rate": {"workload_params": {"arrival_rate_per_s": -1.0}},
    "unknown-fattree-param": {"topology": "fattree", "topology_params": {"pods": 4}},
    "bad-scda-value": {"scda_params": {"alpha": -5}},
    "unknown-hedera-param": {"hedera_params": {"threshold": 1}},
    "unknown-dynamics-kind": {"dynamics": [{"kind": "nope"}]},
}


class TestValidationAtConstruction:
    @pytest.mark.parametrize("payload", BAD_SPECS.values(), ids=list(BAD_SPECS))
    def test_bad_spec_raises_at_from_dict(self, payload):
        with pytest.raises(RegistryError):
            ScenarioSpec.from_dict(payload)

    def test_validation_builds_no_fabric_and_generates_no_workload(self, monkeypatch):
        calls = []
        monkeypatch.setattr(ScenarioSpec, "build_topology", lambda self: calls.append("topology"))
        monkeypatch.setattr(ScenarioSpec, "build_workload", lambda self: calls.append("workload"))
        ScenarioSpec.pareto_poisson().with_overrides(seed=4)
        assert calls == []

    @pytest.mark.parametrize("field, message", [
        ("sim_time_s", "sim_time_s must be positive"),
        ("drain_time_s", "drain_time_s must be non-negative"),
        ("control_interval_s", "control_interval_s must be positive"),
        ("throughput_sample_interval_s", "throughput_sample_interval_s must be positive"),
    ])
    def test_nan_time_field_raises(self, field, message):
        """A NaN horizon would run ``sim.run(until=nan)`` for ever."""
        with pytest.raises(ValueError, match=message):
            ScenarioSpec.pareto_poisson().with_overrides(**{field: float("nan")})


def _bench_utils():
    """``benchmarks/bench_utils.py``, loaded by path (it is not a package)."""
    path = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_utils.py"
    module_spec = importlib.util.spec_from_file_location("bench_utils", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


def _golden_cases():
    path = Path(__file__).resolve().parent / "data" / "paper_scenarios.json"
    return json.loads(path.read_text())["cases"]


def _build_case(case):
    """Build one fixture case through the call site it was recorded from."""
    kind, _, label = case["case"].partition("/")
    build = case["build"]
    if kind == "figure-default":
        from repro.experiments.figures import default_scenario

        specs = [default_scenario(fig) for fig in PAPER_SCENARIOS[label].figures]
        assert all(spec == specs[0] for spec in specs)
        return specs[0]
    if kind == "ab":
        from repro.cli import _scenario_spec

        return _scenario_spec(argparse.Namespace(
            scenario=label, sim_time=build["sim_time_s"], seed=build["seed"],
            topology=None, workload=None,
        ))
    bench = _bench_utils()
    if kind == "bench":
        makers = {
            "video": bench.scenario_video_with_control,
            "video-nocontrol": bench.scenario_video_without_control,
            "datacenter-k1": lambda: bench.scenario_datacenter(1.0),
            "datacenter-k3": lambda: bench.scenario_datacenter(3.0),
            "pareto": bench.scenario_pareto_poisson,
        }
        return makers[label]()
    assert kind == "bench-override", kind
    return bench.scenario_pareto_poisson().with_overrides(
        sim_time_s=build["override_sim_time_s"]
    )


class TestPaperScenarioGolden:
    """The table reproduces the scenario dicts and job keys of the typed shim it replaced.

    ``data/paper_scenarios.json`` was generated from the retired typed
    scenario-config shim; result stores are keyed by these job keys.
    """

    @pytest.mark.parametrize("case", _golden_cases(), ids=lambda case: case["case"])
    def test_spec_dict_and_job_keys_match_the_fixture(self, case):
        spec = _build_case(case)
        # Compared as JSON text so key order and int/float types count too.
        assert json.dumps(spec.to_dict()) == json.dumps(case["spec"])
        assert [job.key for job in plan_comparison(spec)] == case["job_keys"]

    def test_table_covers_every_figure_once(self):
        figures = [fig for entry in PAPER_SCENARIOS.values() for fig in entry.figures]
        assert figures == [f"fig{n:02d}" for n in range(7, 19)]

    def test_unknown_name_lists_the_table(self):
        with pytest.raises(ValueError, match="datacenter-k3"):
            paper_scenario("datacenter-k2")


class TestBackCompat:
    def test_pareto_fct_matches_pre_refactor_pin(self):
        """The Pareto paper scenario keeps producing the seed-pinned FCTs."""
        spec = ScenarioSpec.pareto_poisson(sim_time_s=2.5, seed=3)
        comparison = run_comparison(spec)
        assert comparison.candidate.mean_fct_s() == pytest.approx(
            PARETO_PINNED_SCDA_FCT_S, rel=1e-6
        )
        assert comparison.baseline.mean_fct_s() == pytest.approx(
            PARETO_PINNED_RANDTCP_FCT_S, rel=1e-6
        )

    def test_as_spec_accepts_spec_and_dict(self):
        spec = ScenarioSpec.pareto_poisson()
        assert as_spec(spec) is spec
        assert as_spec(spec.to_dict()) == spec
        with pytest.raises(TypeError):
            as_spec(42)

    def test_named_constructors_still_round_trip_through_json(self):
        for name in PAPER_SCENARIOS:
            spec = paper_scenario(name)
            assert ScenarioSpec.from_json(spec.to_json()) == spec

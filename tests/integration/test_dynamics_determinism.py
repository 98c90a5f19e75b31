"""The dynamics determinism contract (ISSUE 4 acceptance criteria).

* A scripted link-failure scenario produces identical ``ResultStore``
  contents on the serial and process executors.
* A no-op dynamics script is bit-identical to the same spec without
  ``dynamics``.
* Dynamics participate in job content keys, so a dynamic and a static run
  never share a cache entry.
"""

import pytest

from repro.exec import ExperimentJob, plan_comparison, run_jobs
from repro.exec.store import ResultStore
from repro.experiments.runner import run_scheme
from repro.experiments.spec import ScenarioSpec

DYNAMICS = [
    {"kind": "link-failure", "at_s": 0.4, "select": "switch-uplink", "index": 0},
    {"kind": "link-recovery", "at_s": 1.0, "select": "switch-uplink", "index": 0},
    {"kind": "block-server-churn", "at_s": 0.6, "index": 1, "rejoin_after_s": 0.8},
]


def dynamic_spec(**overrides):
    spec = ScenarioSpec(
        name="dyn-det",
        seed=3,
        sim_time_s=1.5,
        drain_time_s=12.0,
        topology="leafspine",
        workload="pareto-poisson",
        workload_params={"arrival_rate_per_s": 15.0, "num_clients": 4},
        dynamics=DYNAMICS,
    )
    return spec.with_overrides(**overrides) if overrides else spec


class TestSpecThreading:
    def test_dynamics_round_trips_through_spec_json(self):
        spec = dynamic_spec()
        clone = ScenarioSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.dynamics == DYNAMICS

    def test_dynamics_round_trips_through_job_json(self):
        job = ExperimentJob(spec=dynamic_spec(), scheme="scda")
        clone = ExperimentJob.from_json(job.to_json())
        assert clone == job
        assert clone.key == job.key
        assert clone.spec.dynamics == DYNAMICS

    def test_dynamics_participate_in_job_keys(self):
        dynamic = ExperimentJob(spec=dynamic_spec(), scheme="scda")
        static = ExperimentJob(spec=dynamic_spec(dynamics=[]), scheme="scda")
        assert dynamic.key != static.key

    def test_malformed_dynamics_rejected_at_spec_construction(self):
        with pytest.raises(ValueError):
            dynamic_spec(dynamics=[{"at_s": 1.0}])
        with pytest.raises(ValueError):
            dynamic_spec(dynamics={"kind": "link-failure"})

    def test_unknown_event_kind_fails_at_build(self):
        from repro.registry import RegistryError

        with pytest.raises(RegistryError):
            dynamic_spec(dynamics=[{"kind": "meteor-strike", "at_s": 1.0}])


class TestExecutorEquivalence:
    @pytest.mark.parametrize("backend", ["process"])
    def test_scripted_failure_store_matches_serial(self, backend, tmp_path):
        jobs = plan_comparison(dynamic_spec())
        serial = ResultStore(tmp_path / "serial.jsonl")
        run_jobs(jobs, executor="serial", store=serial)
        parallel = ResultStore(tmp_path / f"{backend}.jsonl")
        run_jobs(jobs, executor=backend, max_workers=2, store=parallel)
        assert serial.results_by_key() == parallel.results_by_key()
        assert len(serial) == len(jobs)

    def test_dynamic_run_actually_failed_links(self, tmp_path):
        jobs = plan_comparison(dynamic_spec())
        store = ResultStore(tmp_path / "check.jsonl")
        report = run_jobs(jobs, store=store)
        for job in jobs:
            extras = report.result_for(job).extras
            assert extras["links_failed"] == 2.0  # duplex pair
            assert extras["links_restored"] == 2.0
            assert extras["servers_departed"] == 1.0
            assert extras["servers_rejoined"] == 1.0


class TestNoopBitIdentity:
    def test_noop_script_is_bit_identical_to_no_dynamics(self):
        static = run_scheme(dynamic_spec(dynamics=[]), "scda")
        # dynamics=[] *is* "no dynamics": same default, but pin the whole
        # canonical payload against a second run to catch any hidden state.
        again = run_scheme(dynamic_spec(dynamics=[]), "scda")
        assert static.canonical_dict() == again.canonical_dict()
        # The availability series exists and is trivially all-up.
        assert static.availability.mean_availability() == 1.0
        assert static.availability.disrupted_time_s() == 0.0
        assert all(v == 0.0 for k, v in static.extras.items()
                   if k in ("links_failed", "flows_rerouted_on_failure",
                            "flows_aborted_on_failure", "servers_departed",
                            "requests_disrupted"))

    def test_dynamic_run_differs_from_static(self):
        static = run_scheme(dynamic_spec(dynamics=[]), "scda")
        dynamic = run_scheme(dynamic_spec(), "scda")
        assert dynamic.canonical_dict() != static.canonical_dict()
        assert dynamic.extras["links_failed"] == 2.0

    def test_outage_covering_a_sample_shows_in_the_availability_series(self):
        # The collector samples once per second; an outage spanning t=1.0
        # must surface as lost availability and disrupted time.
        spec = dynamic_spec(
            dynamics=[
                {"kind": "link-failure", "at_s": 0.4, "select": "switch-uplink", "index": 0},
                {"kind": "link-recovery", "at_s": 1.3, "select": "switch-uplink", "index": 0},
            ]
        )
        result = run_scheme(spec, "scda")
        assert result.availability.mean_availability() < 1.0
        assert result.availability.disrupted_time_s() > 0.0


class TestSurgeDeterminism:
    def test_surge_draws_are_pinned_by_seed(self):
        spec = dynamic_spec(
            dynamics=[{"kind": "workload-surge", "at_s": 0.3, "duration_s": 0.5,
                       "arrival_rate_per_s": 20.0}]
        )
        a = run_scheme(spec, "rand-tcp")
        b = run_scheme(spec, "rand-tcp")
        assert a.canonical_dict() == b.canonical_dict()
        base = run_scheme(spec.with_overrides(dynamics=[]), "rand-tcp")
        assert a.extras["requests_completed"] > base.extras["requests_completed"]

    def test_aggregate_surge_issues_tenant_tagged_aggregate_flows(self):
        # A flash crowd as a dynamics event: every surge request is an
        # aggregate flow of `multiplicity` sessions carrying the tenant tag.
        spec = dynamic_spec(
            dynamics=[{"kind": "workload-surge", "at_s": 0.3, "duration_s": 0.5,
                       "arrival_rate_per_s": 20.0, "multiplicity": 500,
                       "tenant": "crowd"}]
        )
        result = run_scheme(spec, "rand-tcp")
        crowd = [r for r in result.records if r.tenant == "crowd"]
        assert crowd
        assert all(r.multiplicity == 500 for r in crowd)
        assert result.extras["sessions_completed"] > result.extras["requests_completed"]
        assert result.extras["tenant:crowd:sessions"] == 500.0 * len(crowd)

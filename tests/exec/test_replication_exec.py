"""Tests for replication planning and ensemble execution/rebuild."""

import pytest

from repro.exec import (
    ensemble_from_store,
    plan_comparison,
    plan_replications,
    replicate_seed,
    run_replicated_comparison,
    run_replications,
)
from repro.exec.store import ResultStore, ResultStoreError
from repro.experiments.spec import ScenarioSpec
from repro.sim.random import derive_seed


def tiny_spec(seed=3):
    return ScenarioSpec.pareto_poisson(sim_time_s=1.0, seed=seed).with_overrides(
        drain_time_s=10.0
    )


class TestReplicateSeed:
    def test_replicate_zero_is_the_base_seed(self):
        assert replicate_seed(42, 0) == 42

    def test_later_replicates_derive_from_identity(self):
        assert replicate_seed(42, 1) == derive_seed(42, "replicate", "1")
        assert replicate_seed(42, 2) == derive_seed(42, "replicate", "2")
        assert replicate_seed(42, 1) != replicate_seed(42, 2)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            replicate_seed(42, -1)


class TestPlanReplications:
    def test_replicate_major_order_and_tags(self):
        jobs = plan_replications(tiny_spec(seed=7), seeds=3)
        assert len(jobs) == 6
        assert [j.tags["replicate"] for j in jobs] == [0, 0, 1, 1, 2, 2]
        assert [j.tags["role"] for j in jobs[:2]] == ["candidate", "baseline"]
        assert all(j.tags["ensemble"] == "pareto-poisson" for j in jobs)
        assert all(j.tags["replicates"] == 3 for j in jobs)

    def test_seeds_follow_replicate_identity(self):
        jobs = plan_replications(tiny_spec(seed=7), seeds=2)
        assert jobs[0].seed == 7 and jobs[1].seed == 7
        assert jobs[2].seed == derive_seed(7, "replicate", "1")

    def test_replicate_zero_shares_cache_key_with_plain_comparison(self):
        spec = tiny_spec(seed=7)
        replicated = plan_replications(spec, seeds=2)
        plain = plan_comparison(spec)
        # Tags differ, content keys must not: the single-seed run is the
        # ensemble's replicate 0, so the store caches it once.
        assert replicated[0].key == plain[0].key
        assert replicated[1].key == plain[1].key

    def test_custom_ensemble_label_and_many_schemes(self):
        jobs = plan_replications(
            tiny_spec(), schemes=("scda", "rand-tcp", "ideal"), seeds=1,
            ensemble="abc",
        )
        assert [j.tags["role"] for j in jobs] == ["scheme-0", "scheme-1", "scheme-2"]
        assert all(j.tags["ensemble"] == "abc" for j in jobs)

    def test_validation(self):
        with pytest.raises(ValueError, match="seeds"):
            plan_replications(tiny_spec(), seeds=0)
        with pytest.raises(ValueError, match="scheme"):
            plan_replications(tiny_spec(), schemes=())


class TestRunReplications:
    def test_serial_equals_process_through_the_store(self, tmp_path):
        spec = tiny_spec(seed=5)
        serial_store = ResultStore(tmp_path / "serial.jsonl")
        process_store = ResultStore(tmp_path / "process.jsonl")
        serial = run_replicated_comparison(spec, seeds=2, store=serial_store)
        processed = run_replicated_comparison(
            spec, seeds=2, executor="process", max_workers=2, store=process_store
        )
        assert serial_store.results_by_key() == process_store.results_by_key()
        # And the folded ensembles agree (modulo wall clock, which to_dict
        # keeps; compare canonical payloads per replicate).
        for a, b in zip(serial.candidate.results, processed.candidate.results):
            assert a.canonical_dict() == b.canonical_dict()

    def test_replicate_zero_is_the_single_seed_run(self):
        from repro.experiments.runner import run_scenario

        spec = tiny_spec(seed=5)
        ensemble = run_replicated_comparison(spec, seeds=1)
        single = run_scenario(spec)
        assert ensemble.n_replicates == 1
        assert (
            ensemble.comparisons()[0].candidate.canonical_dict()
            == single.candidate.canonical_dict()
        )
        assert ensemble.comparisons()[0].summary() == single.summary()

    def test_run_replications_orders_by_scheme(self):
        spec = tiny_spec(seed=5)
        ensembles = run_replications(spec, schemes=("scda", "rand-tcp"), seeds=1)
        assert [e.scheme for e in ensembles] == ["SCDA", "RandTCP"]
        assert ensembles[0].seeds == [5]


class TestEnsembleFromStore:
    def test_round_trips_a_stored_ensemble(self, tmp_path):
        spec = tiny_spec(seed=5)
        store = ResultStore(tmp_path / "store.jsonl")
        ran = run_replicated_comparison(spec, seeds=2, store=store)
        rebuilt = ensemble_from_store(store)
        assert rebuilt.scenario == "pareto-poisson"
        assert rebuilt.candidate.seeds == ran.candidate.seeds
        for a, b in zip(rebuilt.candidate.results, ran.candidate.results):
            assert a.canonical_dict() == b.canonical_dict()

    def test_empty_store_rejected(self, tmp_path):
        with pytest.raises(ResultStoreError, match="no entries"):
            ensemble_from_store(tmp_path / "missing.jsonl")

    def test_unknown_ensemble_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        run_replicated_comparison(tiny_spec(seed=5), seeds=1, store=store)
        with pytest.raises(ResultStoreError, match="unknown ensemble"):
            ensemble_from_store(store, ensemble="nope")

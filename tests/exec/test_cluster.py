"""Tests for the cluster backend: determinism, chaos, worker loss, degradation.

These run real ``WorkerServer`` daemons in-process on ephemeral localhost
ports — the full HTTP path is exercised; only the process boundary is
simulated by threads.
"""

import pytest

from repro.exec.cluster import ClusterExecutor
from repro.exec.executors import run_jobs
from repro.exec.planner import plan_comparison, plan_replications
from repro.exec.retry import ExecutorDegradedError, RetryPolicy
from repro.exec.store import ResultStore
from repro.experiments.spec import ScenarioSpec
from repro.registry import EXECUTORS
from repro.service.discovery import HOSTS_ENV, WorkerEndpoint
from repro.service.worker import WorkerServer


def tiny_jobs(sim_time_s=1.0, seed=3):
    return plan_comparison(ScenarioSpec.pareto_poisson(sim_time_s=sim_time_s, seed=seed))


def ensemble_jobs(seeds=3, sim_time_s=1.0, seed=3):
    spec = ScenarioSpec.pareto_poisson(sim_time_s=sim_time_s, seed=seed)
    return plan_replications(spec, seeds=seeds)


def canonical(report):
    return {key: result.canonical_dict() for key, result in report.results.items()}


@pytest.fixture()
def two_workers(tmp_path, monkeypatch):
    workers = [WorkerServer(port=0, shard_dir=tmp_path).start() for _ in range(2)]
    hosts = ",".join(f"{w.host}:{w.port}" for w in workers)
    monkeypatch.setenv(HOSTS_ENV, hosts)
    yield workers
    for worker in workers:
        try:
            worker.stop()
        except Exception:
            pass


class TestRegistration:
    def test_cluster_is_the_fourth_backend(self):
        assert {"serial", "process", "cluster"} <= set(EXECUTORS.names())

    def test_unconfigured_cluster_raises_degraded(self, monkeypatch):
        monkeypatch.delenv(HOSTS_ENV, raising=False)
        monkeypatch.delenv("REPRO_CLUSTER_HOSTS_FILE", raising=False)
        backend = ClusterExecutor()
        with pytest.raises(ExecutorDegradedError, match="no workers configured"):
            backend.execute(tiny_jobs())

    def test_unreachable_cluster_raises_degraded(self, monkeypatch):
        monkeypatch.delenv(HOSTS_ENV, raising=False)
        backend = ClusterExecutor(hosts="127.0.0.1:1", health_timeout_s=0.5)
        with pytest.raises(ExecutorDegradedError, match="health check"):
            backend.execute(tiny_jobs())

    def test_fallback_chain_reaches_serial(self):
        backend = ClusterExecutor()
        names = []
        while backend is not None:
            names.append(backend.name)
            backend = backend.fallback_backend()
        assert names == ["cluster", "process", "serial"]


class TestDeterminism:
    def test_cluster_store_equals_serial_store(self, two_workers, tmp_path):
        jobs = ensemble_jobs()
        serial_store = tmp_path / "serial.jsonl"
        cluster_store = tmp_path / "cluster.jsonl"
        serial = run_jobs(jobs, executor="serial", store=serial_store)
        cluster = run_jobs(jobs, executor="cluster", store=cluster_store)
        assert cluster.executor == "cluster"
        assert not cluster.fallbacks
        assert canonical(cluster) == canonical(serial)
        assert (
            ResultStore(cluster_store).results_by_key()
            == ResultStore(serial_store).results_by_key()
        )

    def test_load_balances_across_workers(self, two_workers):
        run_jobs(ensemble_jobs(seeds=4), executor="cluster")
        shard_sizes = sorted(len(ResultStore(w.shard_path)) for w in two_workers)
        # 8 jobs over 2 workers under fewest-outstanding balancing: both
        # workers must have computed something
        assert sum(shard_sizes) == 8
        assert shard_sizes[0] > 0

    def test_merged_shards_equal_serial_store(self, two_workers, tmp_path):
        jobs = ensemble_jobs()
        serial_store = tmp_path / "serial.jsonl"
        run_jobs(jobs, executor="serial", store=serial_store)
        run_jobs(jobs, executor="cluster")
        merged = ResultStore.merged(
            [w.shard_path for w in two_workers], into=tmp_path / "merged.jsonl"
        )
        assert merged.results_by_key() == ResultStore(serial_store).results_by_key()

    def test_rerun_against_cluster_store_recomputes_nothing(self, two_workers, tmp_path):
        jobs = tiny_jobs()
        store = tmp_path / "cluster.jsonl"
        first = run_jobs(jobs, executor="cluster", store=store)
        again = run_jobs(jobs, executor="cluster", store=store)
        assert first.computed == len(jobs)
        assert again.computed == 0
        assert again.cached == len(jobs)

    def test_batch_size_chunks_do_not_change_results(self, two_workers, tmp_path):
        jobs = ensemble_jobs()
        serial = run_jobs(jobs, executor="serial")
        chunked = run_jobs(jobs, executor="cluster", batch_size=3)
        assert canonical(chunked) == canonical(serial)
        stats_chunks = sum(
            w.stats()["chunks"] for w in two_workers
        )
        assert stats_chunks < len(jobs)  # round-trips were actually amortised


class TestChaosCluster:
    def test_chaos_cluster_converges_to_serial_results(self, two_workers, tmp_path):
        jobs = ensemble_jobs()
        serial_store = tmp_path / "serial.jsonl"
        chaos_store = tmp_path / "chaos.jsonl"
        serial = run_jobs(jobs, executor="serial", store=serial_store)
        chaos = run_jobs(
            jobs,
            executor="chaos:cluster",
            store=chaos_store,
            policy=RetryPolicy(max_attempts=4),
        )
        assert canonical(chaos) == canonical(serial)
        assert (
            ResultStore(chaos_store).results_by_key()
            == ResultStore(serial_store).results_by_key()
        )

    def test_chaos_injections_actually_happened(self, two_workers):
        jobs = ensemble_jobs()
        report = run_jobs(
            jobs, executor="chaos:cluster", policy=RetryPolicy(max_attempts=4)
        )
        # the default config injects on ~85% of first attempts across 6 jobs;
        # at least one retry is a statistical certainty under the fixed seeds
        assert report.retried > 0


class TestWorkerLoss:
    def test_killing_a_worker_mid_batch_completes_via_retry(self, two_workers, tmp_path):
        import threading

        jobs = ensemble_jobs(seeds=3)
        serial = run_jobs(jobs, executor="serial")
        killer = threading.Timer(0.3, two_workers[0].stop)
        killer.start()
        try:
            report = run_jobs(
                jobs,
                executor="cluster",
                store=tmp_path / "killed.jsonl",
                policy=RetryPolicy(max_attempts=4),
            )
        finally:
            killer.join()
        assert canonical(report) == canonical(serial)

    def test_losing_every_worker_degrades_to_process(self, tmp_path, monkeypatch):
        worker = WorkerServer(port=0, shard_dir=tmp_path).start()
        monkeypatch.setenv(HOSTS_ENV, f"{worker.host}:{worker.port}")
        jobs = tiny_jobs()
        serial = run_jobs(jobs, executor="serial")
        worker.stop()
        # the health gate now fails; with fallback on, the run lands on the
        # local process backend and completes with identical results
        report = run_jobs(jobs, executor="cluster", policy=RetryPolicy(max_attempts=2))
        assert report.fallbacks
        assert report.fallbacks[0]["from"] == "cluster"
        assert report.fallbacks[0]["to"] == "process"
        assert canonical(report) == canonical(serial)

    def test_no_fallback_propagates_the_degradation(self, tmp_path, monkeypatch):
        monkeypatch.setenv(HOSTS_ENV, "127.0.0.1:1")
        backend = ClusterExecutor(health_timeout_s=0.5)
        with pytest.raises(ExecutorDegradedError):
            run_jobs(tiny_jobs(), executor=backend, fallback=False)


class TestShardConflicts:
    def test_conflicting_shard_result_is_a_final_failure(self, tmp_path, monkeypatch):
        """A worker whose shard holds a *different* result for a job's key
        reports a non-retryable ResultStoreError — cross-host nondeterminism
        must surface, not be masked by retries."""
        from repro.exec.executors import ExecutionError

        worker = WorkerServer(port=0, shard_dir=tmp_path).start()
        monkeypatch.setenv(HOSTS_ENV, f"{worker.host}:{worker.port}")
        try:
            job = tiny_jobs()[0]
            report = run_jobs([job], executor="cluster")
            # poison the shard: same key, different result
            shard = ResultStore(worker.shard_path)
            entry = dict(shard.entry(job.key))
            entry["result"] = dict(entry["result"], mean_fct_s=-1.0)
            import json

            worker.shard_path.write_text(
                json.dumps(entry, sort_keys=True) + "\n", encoding="utf-8"
            )
            worker.store.reload()
            with pytest.raises(ExecutionError) as excinfo:
                run_jobs([job], executor="cluster", policy=RetryPolicy(max_attempts=3))
            (failure,) = excinfo.value.failures
            assert failure.exc_type == "ResultStoreError"
            assert failure.attempts == 1  # non-retryable: no attempts wasted
        finally:
            worker.stop()


class TestEndpointConfig:
    def test_hosts_flag_beats_environment(self, two_workers, tmp_path, monkeypatch):
        monkeypatch.setenv(HOSTS_ENV, "127.0.0.1:1")  # dead endpoint in env
        live = two_workers[0]
        backend = ClusterExecutor(hosts=f"{live.host}:{live.port}")
        outcomes = backend.execute(tiny_jobs())
        assert all(isinstance(outcome, dict) for outcome in outcomes)

    def test_hosts_file_configuration(self, two_workers, tmp_path, monkeypatch):
        monkeypatch.delenv(HOSTS_ENV, raising=False)
        hosts_file = tmp_path / "hosts"
        hosts_file.write_text(
            "\n".join(f"{w.host}:{w.port}" for w in two_workers) + "\n"
        )
        backend = ClusterExecutor(hosts_file=str(hosts_file))
        endpoints = backend.live_workers()
        assert endpoints == [WorkerEndpoint(w.host, w.port) for w in two_workers]

"""Tests for warm worker pools (``pool="keep"``) and the process pool's retries.

These spawn real worker processes, so they use the shortest scenarios that
still exercise the machinery; the lifetime counters on
:meth:`ProcessExecutor.stats` make reuse/respawn behaviour directly
observable instead of inferred from timing.
"""

import time

import pytest

from repro.exec.chaos import ChaosConfig, ChaosExecutor
from repro.exec.executors import ProcessExecutor, resolve_executor, run_jobs
from repro.exec.planner import plan_comparison
from repro.exec.retry import RetryPolicy
from repro.exec.store import ResultStore
from repro.experiments.spec import ScenarioSpec


def tiny_jobs(sim_time_s=1.0, seed=3):
    return plan_comparison(ScenarioSpec.pareto_poisson(sim_time_s=sim_time_s, seed=seed))


def canonical(report):
    return {key: result.canonical_dict() for key, result in report.results.items()}


class TestConstruction:
    def test_pool_mode_is_validated(self):
        with pytest.raises(ValueError, match="pool must be one of"):
            ProcessExecutor(pool="warm")

    def test_idle_timeout_must_be_positive(self):
        with pytest.raises(ValueError, match="idle_timeout_s"):
            ProcessExecutor(idle_timeout_s=0.0)

    def test_defaults_are_fresh(self):
        backend = ProcessExecutor()
        assert backend.pool == "fresh"
        assert backend.stats() == {
            "spawned": 0,
            "respawned": 0,
            "reused": 0,
            "idle_reaped": 0,
            "pool_size": 0,
        }

    def test_resolve_executor_threads_pool(self):
        built = resolve_executor("process", max_workers=2, pool="keep")
        assert built.pool == "keep"
        with pytest.raises(ValueError, match="pool must be one of"):
            resolve_executor("process", pool="warm")

    def test_resolve_executor_override_copy_shares_the_pool(self):
        # Overrides take a shallow copy; the retained pool must be the *same*
        # object so whichever copy runs warms the pool the caller holds.
        base = ProcessExecutor(max_workers=2, pool="keep")
        built = resolve_executor(base, batch_size=3)
        assert built is not base
        assert built._pool_workers is base._pool_workers
        assert built._pool_counters is base._pool_counters


class TestWarmReuse:
    def test_consecutive_run_jobs_reuse_workers_with_zero_respawns(self, tmp_path):
        jobs = tiny_jobs()
        serial = run_jobs(jobs, executor="serial", store=str(tmp_path / "serial.jsonl"))
        warm = ProcessExecutor(max_workers=2, pool="keep")
        try:
            first = run_jobs(jobs, executor=warm, store=str(tmp_path / "warm.jsonl"))
            after_first = warm.stats()
            assert after_first["pool_size"] > 0
            assert after_first["respawned"] == 0
            spawned_once = after_first["spawned"]
            # Second batch on the same executor: the pool must be reused
            # as-is — zero additional spawns, zero respawns.
            second = run_jobs(jobs, executor=warm)
            after_second = warm.stats()
            assert after_second["spawned"] == spawned_once
            assert after_second["respawned"] == 0
            assert after_second["reused"] >= after_first["pool_size"]
        finally:
            warm.close()
        assert canonical(first) == canonical(serial)
        assert canonical(second) == canonical(serial)
        a = ResultStore(tmp_path / "serial.jsonl")
        b = ResultStore(tmp_path / "warm.jsonl")
        assert a.results_by_key() == b.results_by_key()

    def test_fresh_mode_tears_the_pool_down_per_call(self):
        fresh = ProcessExecutor(max_workers=2)  # pool="fresh" default
        run_jobs(tiny_jobs(), executor=fresh)
        stats = fresh.stats()
        assert stats["pool_size"] == 0
        assert stats["spawned"] > 0

    def test_run_jobs_pool_kwarg_reaches_the_backend(self):
        # The string path builds a backend per call, so "keep" through the
        # orchestrator only pays off with an instance — but the knob must
        # still arrive (observable via the stats of the built backend).
        report = run_jobs(tiny_jobs()[:1], executor="process", max_workers=1,
                          pool="fresh")
        assert not report.failures

    def test_close_shuts_down_retained_workers(self):
        warm = ProcessExecutor(max_workers=2, pool="keep")
        run_jobs(tiny_jobs(), executor=warm)
        retained = list(warm._pool_workers)
        assert retained
        warm.close()
        assert warm.stats()["pool_size"] == 0
        deadline = time.monotonic() + 10.0
        while any(w.alive() for w in retained) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(w.alive() for w in retained)

    def test_context_manager_closes_on_exit(self):
        with ProcessExecutor(max_workers=1, pool="keep") as warm:
            run_jobs(tiny_jobs()[:1], executor=warm)
            assert warm.stats()["pool_size"] > 0
        assert warm.stats()["pool_size"] == 0

    def test_idle_workers_are_reaped_on_the_next_call(self):
        warm = ProcessExecutor(max_workers=1, pool="keep", idle_timeout_s=0.05)
        try:
            run_jobs(tiny_jobs()[:1], executor=warm)
            assert warm.stats()["pool_size"] == 1
            time.sleep(0.2)
            run_jobs(tiny_jobs()[:1], executor=warm)
            stats = warm.stats()
            assert stats["idle_reaped"] >= 1
            assert stats["respawned"] == 0  # an idle reap is not a crash
        finally:
            warm.close()


class TestWarmFaultTolerance:
    def test_crash_mid_batch_respawns_and_matches_serial(self, tmp_path):
        # The satellite scenario: a warm pool whose workers get killed
        # mid-batch must respawn within budget, finish the batch, leave a
        # store bit-identical to serial — and still have a healthy warm pool
        # for the next call.
        jobs = tiny_jobs()
        run_jobs(jobs, executor="serial", store=str(tmp_path / "serial.jsonl"))
        inner = ProcessExecutor(max_workers=2, pool="keep")
        chaos = ChaosExecutor(
            inner,
            config=ChaosConfig(crash_rate=1.0, error_rate=0.0,
                               delay_rate=0.0, corrupt_rate=0.0),
        )
        try:
            report = run_jobs(
                jobs, executor=chaos,
                policy=RetryPolicy(max_attempts=3, base_delay_s=0.001),
                store=str(tmp_path / "chaos.jsonl"),
            )
            assert not report.failures
            stats = inner.stats()
            assert stats["respawned"] >= 1
            assert stats["pool_size"] > 0  # a clean finish retains the pool
            # Warm pool is still healthy after the chaos batch.
            second = run_jobs(jobs, executor=inner)
            assert not second.failures
        finally:
            inner.close()
        a = ResultStore(tmp_path / "serial.jsonl")
        b = ResultStore(tmp_path / "chaos.jsonl")
        assert a.results_by_key() == b.results_by_key()

    def test_degraded_batch_tears_the_warm_pool_down(self):
        # Only a cleanly finished batch leaves warm workers behind; a batch
        # that ends in ExecutorDegradedError must not leak half-dead workers
        # into the next call.
        from repro.exec.retry import ExecutorDegradedError

        inner = ProcessExecutor(max_workers=2, max_respawns=0, pool="keep")
        chaos = ChaosExecutor(
            inner,
            config=ChaosConfig(crash_rate=1.0, error_rate=0.0, delay_rate=0.0,
                               corrupt_rate=0.0, first_attempt_only=False),
        )
        with pytest.raises(ExecutorDegradedError):
            run_jobs(tiny_jobs(), executor=chaos,
                     policy=RetryPolicy(max_attempts=2, base_delay_s=0.001),
                     fallback=False)
        assert inner.stats()["pool_size"] == 0

    def test_fallback_after_degradation_rewarms_the_shared_pool(self):
        # With fallback enabled the chain's first hop is a plain copy of the
        # same process backend sharing the pool; its clean run leaves fresh
        # healthy workers behind — the pool that degraded is rebuilt, not
        # leaked.
        inner = ProcessExecutor(max_workers=2, max_respawns=0, pool="keep")
        chaos = ChaosExecutor(
            inner,
            config=ChaosConfig(crash_rate=1.0, error_rate=0.0, delay_rate=0.0,
                               corrupt_rate=0.0, first_attempt_only=False),
        )
        try:
            report = run_jobs(
                tiny_jobs(), executor=chaos,
                policy=RetryPolicy(max_attempts=2, base_delay_s=0.001),
            )
            assert not report.failures  # completed via the fallback chain
            assert report.fallbacks
            assert all(w.alive() and w.task is None for w in inner._pool_workers)
        finally:
            inner.close()

    def test_chaos_wrapper_delegates_pool_knobs_to_inner(self):
        inner = ProcessExecutor(max_workers=1)
        chaos = ChaosExecutor(inner)
        chaos.pool = "keep"
        assert inner.pool == chaos.pool == "keep"
        assert chaos.stats() == inner.stats()
        chaos.close()  # forwards; no retained workers, must not raise


class TestProcessCorruption:
    def test_chaos_corruption_on_the_process_pool_retries_to_serial_bits(self):
        # A chaos-corrupted payload crosses the pipe, fails the dispatcher's
        # hydration check as a retryable CorruptResultError, and the retry
        # gets back to the serial bytes.
        jobs = tiny_jobs()
        serial = run_jobs(jobs, executor="serial")
        chaos = ChaosExecutor("process", max_workers=2,
                              config=ChaosConfig(crash_rate=0.0, error_rate=0.0,
                                                 delay_rate=0.0, corrupt_rate=1.0))
        report = run_jobs(
            jobs, executor=chaos,
            policy=RetryPolicy(max_attempts=2, base_delay_s=0.001),
        )
        assert canonical(report) == canonical(serial)
        assert report.retried == len(jobs)

"""Tests for the chaos executor: injection, crash recovery, degradation.

The process-pool cases spawn real worker processes (and really kill some of
them), so they use short scenarios; they are the in-repo equivalent of the
CI chaos smoke step.
"""

import pytest

from repro.exec.chaos import ChaosConfig, ChaosExecutor
from repro.exec.executors import ProcessExecutor, resolve_executor, run_jobs
from repro.exec.job import ExperimentJob
from repro.exec.planner import plan_comparison
from repro.exec.retry import RetryPolicy
from repro.exec.store import ResultStore
from repro.experiments.spec import ScenarioSpec
from repro.registry import EXECUTORS, RegistryError


def tiny_jobs(sim_time_s=1.0, seed=3):
    return plan_comparison(ScenarioSpec.pareto_poisson(sim_time_s=sim_time_s, seed=seed))


def canonical(report):
    return {key: result.canonical_dict() for key, result in report.results.items()}


def chaos_config(**overrides):
    """A config with explicit rates so each test injects exactly one fault."""
    base = dict(crash_rate=0.0, error_rate=0.0, delay_rate=0.0, corrupt_rate=0.0)
    base.update(overrides)
    return ChaosConfig(**base)


class TestResolution:
    def test_wrapper_syntax_resolves_inner_backend(self):
        backend = resolve_executor("chaos:serial")
        assert isinstance(backend, ChaosExecutor)
        assert backend.name == "chaos:serial"
        assert backend.inner.name == "serial"

    def test_wrapper_passes_max_workers_through(self):
        backend = resolve_executor("chaos:serial", max_workers=3)
        assert backend.inner.max_workers == 3
        assert backend.effective_workers(10) == 3

    def test_chaos_is_listed_in_the_registry(self):
        assert "chaos" in EXECUTORS.names()

    def test_unknown_inner_backend_errors(self):
        with pytest.raises(RegistryError, match="serail"):
            resolve_executor("chaos:serail")

    def test_non_wrapper_executors_reject_the_colon_syntax(self):
        with pytest.raises(RegistryError, match="does not wrap"):
            resolve_executor("serial:process")

    def test_chaos_cannot_wrap_chaos(self):
        with pytest.raises(RegistryError, match="cannot wrap each other"):
            ChaosExecutor(ChaosExecutor("serial"))


class TestConfig:
    def test_rates_must_be_probabilities_summing_to_at_most_one(self):
        with pytest.raises(ValueError):
            ChaosConfig(crash_rate=1.5)
        with pytest.raises(ValueError):
            ChaosConfig(crash_rate=0.6, error_rate=0.6)
        with pytest.raises(ValueError):
            ChaosConfig(delay_s=-1.0)

    def test_injection_decision_is_deterministic(self):
        config = ChaosConfig(seed=5)
        key = "ab" * 32
        decisions = [config.injection_for(key, 1) for _ in range(3)]
        assert len(set(decisions)) == 1
        assert ChaosConfig(seed=5).injection_for(key, 1) == decisions[0]

    def test_first_attempt_only_spares_retries(self):
        config = chaos_config(error_rate=1.0)  # default first_attempt_only=True
        assert config.injection_for("cd" * 32, 1) == "error"
        assert config.injection_for("cd" * 32, 2) is None

    def test_rate_one_always_injects(self):
        config = chaos_config(crash_rate=1.0, first_attempt_only=False)
        for attempt in (1, 2, 3):
            assert config.injection_for("ef" * 32, attempt) == "crash"

    def test_round_trips_losslessly(self):
        config = ChaosConfig(crash_rate=0.1, error_rate=0.2, delay_rate=0.3,
                             corrupt_rate=0.2, delay_s=1.5, first_attempt_only=False,
                             seed=42)
        assert ChaosConfig.from_dict(config.to_dict()) == config


class TestInProcessInjection:
    def test_injected_crash_on_serial_raises_instead_of_exiting(self):
        # In-process backends must never really os._exit: the "crash"
        # surfaces as a (retryable) ChaosCrashError failure.
        chaos = ChaosExecutor("serial", config=chaos_config(crash_rate=1.0))
        report = run_jobs(tiny_jobs()[:1], executor=chaos, raise_on_error=False)
        assert report.failures[0].exc_type == "ChaosCrashError"

    def test_corrupt_payloads_are_detected_and_retried(self):
        jobs = tiny_jobs()
        plain = run_jobs(jobs, executor="serial")
        chaos = ChaosExecutor("serial", config=chaos_config(corrupt_rate=1.0))
        report = run_jobs(
            jobs, executor=chaos,
            policy=RetryPolicy(max_attempts=2, base_delay_s=0.001),
        )
        assert canonical(report) == canonical(plain)
        assert report.retried == len(jobs)

    def test_corrupt_payload_without_retry_is_a_classified_failure(self):
        chaos = ChaosExecutor("serial", config=chaos_config(corrupt_rate=1.0))
        report = run_jobs(tiny_jobs()[:1], executor=chaos, raise_on_error=False)
        assert report.failures[0].exc_type == "CorruptResultError"

    def test_mixed_chaos_on_serial_converges_to_serial_bits(self):
        jobs = tiny_jobs()
        plain = run_jobs(jobs, executor="serial")
        chaos = ChaosExecutor("serial", config=ChaosConfig(
            crash_rate=0.3, error_rate=0.3, delay_rate=0.0, corrupt_rate=0.4, seed=9))
        report = run_jobs(
            jobs, executor=chaos,
            policy=RetryPolicy(max_attempts=3, base_delay_s=0.001),
        )
        assert canonical(report) == canonical(plain)


class TestProcessCrashRecovery:
    def test_killed_workers_are_recovered_and_results_match_serial(self):
        # The tentpole scenario: every job's first attempt genuinely kills
        # its worker process (os._exit inside the worker); the pool must
        # reap, respawn and reschedule — and the recovered run's bytes must
        # equal an undisturbed serial run's.
        jobs = tiny_jobs()
        plain = run_jobs(jobs, executor="serial")
        chaos = ChaosExecutor("process", max_workers=2,
                              config=chaos_config(crash_rate=1.0))
        events = []
        report = run_jobs(
            jobs, executor=chaos,
            policy=RetryPolicy(max_attempts=3, base_delay_s=0.001),
            progress=lambda event, job, detail: events.append(event),
        )
        assert canonical(report) == canonical(plain)
        assert not report.failures
        assert events.count("retry") == len(jobs)

    def test_crash_without_retries_is_a_worker_crash_failure(self):
        chaos = ChaosExecutor("process", max_workers=1,
                              config=chaos_config(crash_rate=1.0))
        report = run_jobs(tiny_jobs()[:1], executor=chaos, raise_on_error=False)
        assert report.failures[0].exc_type == "WorkerCrashError"
        assert "died" in report.failures[0].error

    def test_timeout_kills_hung_worker_and_classifies(self):
        # delay_s far beyond the budget simulates a hung job; the pool must
        # kill the worker and classify the failure as JobTimeoutError.
        chaos = ChaosExecutor("process", max_workers=1,
                              config=chaos_config(delay_rate=1.0, delay_s=60.0))
        report = run_jobs(
            tiny_jobs()[:1], executor=chaos,
            policy=RetryPolicy(max_attempts=1, timeout_s=1.0),
            raise_on_error=False,
        )
        failure = report.failures[0]
        assert failure.exc_type == "JobTimeoutError"
        assert failure.elapsed_s >= 1.0

    def test_timed_out_job_recovers_on_retry(self):
        # first_attempt_only: the retry runs without the injected delay, so
        # the job completes within budget and matches the serial bytes.
        jobs = tiny_jobs()[:1]
        plain = run_jobs(jobs, executor="serial")
        chaos = ChaosExecutor("process", max_workers=1,
                              config=chaos_config(delay_rate=1.0, delay_s=60.0))
        report = run_jobs(
            jobs, executor=chaos,
            policy=RetryPolicy(max_attempts=2, timeout_s=1.0, base_delay_s=0.001),
        )
        assert canonical(report) == canonical(plain)
        assert report.retried == 1


class TestGracefulDegradation:
    def test_exhausted_process_pool_falls_back_and_completes(self):
        # Unrecoverable process backend (crashes on every attempt, zero
        # respawn budget): run_jobs must degrade to the fallback chain and
        # still deliver the serial bytes.
        jobs = tiny_jobs()
        plain = run_jobs(jobs, executor="serial")
        crashy = ChaosExecutor(
            ProcessExecutor(max_workers=2, max_respawns=0),
            config=chaos_config(crash_rate=1.0, first_attempt_only=False),
        )
        events = []
        report = run_jobs(
            jobs, executor=crashy,
            policy=RetryPolicy(max_attempts=2, base_delay_s=0.001),
            progress=lambda event, job, detail: events.append(event),
        )
        assert canonical(report) == canonical(plain)
        assert len(report.fallbacks) >= 1
        assert report.fallbacks[0]["from"] == "chaos:process"
        assert report.summary()["fallbacks"] == len(report.fallbacks)
        assert events.count("degraded") == len(report.fallbacks)

    def test_fallback_disabled_propagates_the_backend_error(self):
        from repro.exec.retry import ExecutorDegradedError

        crashy = ChaosExecutor(
            ProcessExecutor(max_workers=2, max_respawns=0),
            config=chaos_config(crash_rate=1.0, first_attempt_only=False),
        )
        with pytest.raises(ExecutorDegradedError):
            run_jobs(tiny_jobs(), executor=crashy,
                     policy=RetryPolicy(max_attempts=2, base_delay_s=0.001),
                     fallback=False)

    def test_fallback_chain_is_process_serial(self):
        from repro.exec.executors import SerialExecutor

        serial = ProcessExecutor(max_workers=4).fallback_backend()
        assert isinstance(serial, SerialExecutor)
        assert serial.fallback_backend() is None

    def test_chaos_falls_back_to_its_plain_inner(self):
        chaos = ChaosExecutor("serial", max_workers=2)
        inner = chaos.fallback_backend()
        assert inner.name == "serial"
        assert inner.payload_transform is None


class TestCheckpointing:
    def test_chaos_store_matches_serial_store_and_resumes_clean(self, tmp_path):
        # The acceptance criterion: a chaos:process run with injected
        # crashes completes, its store equals the serial store on the
        # canonical comparison surface, and a re-run recomputes nothing.
        jobs = tiny_jobs()
        serial_store = tmp_path / "serial.jsonl"
        chaos_store = tmp_path / "chaos.jsonl"
        run_jobs(jobs, executor="serial", store=str(serial_store))
        chaos = ChaosExecutor("process", max_workers=2,
                              config=chaos_config(crash_rate=1.0))
        first = run_jobs(
            jobs, executor=chaos,
            policy=RetryPolicy(max_attempts=3, base_delay_s=0.001),
            store=str(chaos_store), store_fsync=True,
        )
        assert (first.computed, first.cached) == (len(jobs), 0)
        a, b = ResultStore(serial_store), ResultStore(chaos_store)
        assert a.results_by_key() == b.results_by_key()
        assert sorted(a.keys()) == sorted(b.keys())
        # Interrupted-run semantics: resuming against the checkpointed store
        # recomputes zero jobs even under renewed chaos.
        second = run_jobs(
            jobs, executor=chaos,
            policy=RetryPolicy(max_attempts=3, base_delay_s=0.001),
            store=str(chaos_store),
        )
        assert (second.computed, second.cached) == (0, len(jobs))

    def test_store_meta_records_backend_and_attempts(self, tmp_path):
        path = tmp_path / "meta.jsonl"
        jobs = tiny_jobs()[:1]
        chaos = ChaosExecutor("serial", config=chaos_config(error_rate=1.0))
        run_jobs(jobs, executor=chaos,
                 policy=RetryPolicy(max_attempts=2, base_delay_s=0.001),
                 store=str(path))
        entry = ResultStore(path).entry(jobs[0].key)
        assert entry["meta"]["executor"] == "chaos:serial"
        assert entry["meta"]["attempts"] == 2


class TestPayloadHygiene:
    def test_dunder_tags_never_reach_the_hydrated_job(self):
        # Runtime envelopes travel as dunder keys; a payload carrying them
        # must hydrate back to the exact job (same content key, clean tags).
        job = tiny_jobs()[0].with_tags(role="candidate")
        payload = job.to_dict()
        payload["tags"]["__attempt__"] = 3
        rebuilt = ExperimentJob.from_dict(payload)
        assert rebuilt.key == job.key
        assert rebuilt.tags == job.tags

    def test_chaos_envelope_is_invisible_to_the_job_key(self):
        from repro.exec.chaos import CHAOS_PAYLOAD_KEY

        job = tiny_jobs()[0]
        chaos = ChaosExecutor("serial", config=chaos_config(error_rate=1.0))
        payload = chaos._transform(job.to_dict(), attempt=1)
        assert CHAOS_PAYLOAD_KEY in payload
        assert ExperimentJob.from_dict(payload).key == job.key

    def test_transform_leaves_uninjected_attempts_untouched(self):
        job = tiny_jobs()[0]
        chaos = ChaosExecutor("serial", config=chaos_config(error_rate=1.0))
        assert chaos._transform(job.to_dict(), attempt=2) == job.to_dict()

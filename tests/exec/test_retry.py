"""Tests for the retry policy: deterministic backoff, classification, retries."""

import pytest

from repro.exec.chaos import ChaosConfig, ChaosExecutor
from repro.exec.executors import JobFailure, run_jobs
from repro.exec.job import ExperimentJob
from repro.exec.planner import plan_comparison
from repro.exec.retry import DEFAULT_RETRYABLE, NO_RETRY, RetryPolicy
from repro.experiments.spec import ScenarioSpec


def tiny_jobs(sim_time_s=1.5, seed=3):
    return plan_comparison(ScenarioSpec.pareto_poisson(sim_time_s=sim_time_s, seed=seed))


def unrunnable_job():
    """A valid job whose dynamics script fails a link the fabric lacks.

    Specs validate keys and parameters when built, so this failure only
    surfaces when the worker runs the job.
    """
    spec = ScenarioSpec.pareto_poisson(sim_time_s=1.0).with_dynamics(
        [{"kind": "link-failure", "at_s": 0.5, "link_id": "moebius"}]
    )
    return ExperimentJob(spec=spec, scheme="scda")


def canonical(report):
    return {key: result.canonical_dict() for key, result in report.results.items()}


class TestPolicyValidation:
    def test_defaults_are_the_historical_behaviour(self):
        assert NO_RETRY.max_attempts == 1
        assert NO_RETRY.timeout_s is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"timeout_s": 0.0},
            {"timeout_s": -1.0},
            {"base_delay_s": -0.1},
            {"backoff_factor": 0.5},
            {"max_delay_s": -1.0},
            {"jitter_fraction": -0.1},
            {"jitter_fraction": 1.0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_to_dict_round_trips_losslessly(self):
        policy = RetryPolicy(
            max_attempts=4, timeout_s=2.5, base_delay_s=0.01, backoff_factor=3.0,
            max_delay_s=1.0, jitter_fraction=0.1, retryable=("OSError", "MyError"),
        )
        assert RetryPolicy.from_dict(policy.to_dict()) == policy
        assert RetryPolicy.from_dict(NO_RETRY.to_dict()) == NO_RETRY


class TestClassification:
    def test_infrastructure_failures_are_retryable(self):
        policy = RetryPolicy(max_attempts=3)
        for name in ("WorkerCrashError", "JobTimeoutError", "CorruptResultError",
                     "ChaosError", "OSError"):
            assert policy.is_retryable(name), name

    def test_deterministic_failures_are_not(self):
        policy = RetryPolicy(max_attempts=3)
        for name in ("RegistryError", "ValueError", "TypeError", "KeyError"):
            assert not policy.is_retryable(name), name

    def test_wildcard_retries_everything(self):
        policy = RetryPolicy(max_attempts=2, retryable=("*",))
        assert policy.is_retryable("AnythingAtAllError")

    def test_default_list_is_the_module_constant(self):
        assert RetryPolicy().retryable == DEFAULT_RETRYABLE


class TestDeterministicBackoff:
    def test_same_seed_same_schedule(self):
        # The headline determinism property: the schedule is a pure function
        # of (policy, job seed, job key) — two policy instances agree.
        a = RetryPolicy(max_attempts=5)
        b = RetryPolicy(max_attempts=5)
        key = "ab" * 32
        assert a.schedule(7, key) == b.schedule(7, key)
        assert len(a.schedule(7, key)) == 4  # one delay per possible retry

    def test_schedule_is_pinned(self):
        # Regression pin: changing the derivation would silently change every
        # run's retry timing, so lock the exact values for one (seed, key).
        policy = RetryPolicy(max_attempts=3)
        assert policy.schedule(7, "ab" * 32) == [
            pytest.approx(0.04332930114952005),
            pytest.approx(0.07842497474924393),
        ]

    def test_different_jobs_get_different_jitter(self):
        policy = RetryPolicy(max_attempts=2)
        assert policy.backoff_s(7, "aa" * 32, 1) != policy.backoff_s(7, "bb" * 32, 1)
        assert policy.backoff_s(7, "aa" * 32, 1) != policy.backoff_s(8, "aa" * 32, 1)

    def test_jitter_stays_within_the_band(self):
        policy = RetryPolicy(max_attempts=6, base_delay_s=0.1, backoff_factor=2.0,
                             max_delay_s=10.0, jitter_fraction=0.25)
        for attempt in range(1, 6):
            nominal = 0.1 * 2.0 ** (attempt - 1)
            delay = policy.backoff_s(3, "cd" * 32, attempt)
            assert nominal * 0.75 <= delay <= nominal * 1.25

    def test_delay_is_capped(self):
        policy = RetryPolicy(max_attempts=10, base_delay_s=1.0, backoff_factor=10.0,
                             max_delay_s=0.5, jitter_fraction=0.0)
        assert policy.backoff_s(1, "ef" * 32, 9) == 0.5

    def test_zero_jitter_is_exact_exponential(self):
        policy = RetryPolicy(max_attempts=4, base_delay_s=0.2, backoff_factor=2.0,
                             max_delay_s=10.0, jitter_fraction=0.0)
        assert policy.schedule(1, "00" * 32) == [0.2, 0.4, 0.8]

    def test_invalid_attempt_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=2).backoff_s(1, "aa" * 32, 0)


class TestRetriesThroughRunJobs:
    def test_injected_errors_are_retried_to_the_serial_bits(self):
        # Every first attempt raises (chaos error mode); the retry runs
        # undisturbed, so the recovered results equal a plain serial run's.
        jobs = tiny_jobs()
        plain = run_jobs(jobs, executor="serial")
        chaos = ChaosExecutor("serial", config=ChaosConfig(
            crash_rate=0.0, error_rate=1.0, delay_rate=0.0, corrupt_rate=0.0))
        events = []
        report = run_jobs(
            jobs,
            executor=chaos,
            policy=RetryPolicy(max_attempts=2, base_delay_s=0.001),
            progress=lambda event, job, detail: events.append(event),
        )
        assert canonical(report) == canonical(plain)
        assert report.retried == len(jobs)
        assert events.count("retry") == len(jobs)
        assert not report.failures
        summary = report.summary()
        assert summary["retried"] == len(jobs)
        assert summary["fallbacks"] == 0

    def test_attempts_exhausted_becomes_structured_failure(self):
        jobs = tiny_jobs(sim_time_s=1.0)[:1]
        chaos = ChaosExecutor("serial", config=ChaosConfig(
            crash_rate=0.0, error_rate=1.0, delay_rate=0.0, corrupt_rate=0.0,
            first_attempt_only=False))
        report = run_jobs(
            jobs, executor=chaos,
            policy=RetryPolicy(max_attempts=3, base_delay_s=0.001),
            raise_on_error=False,
        )
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.exc_type == "ChaosError"
        assert failure.attempts == 3
        assert failure.elapsed_s > 0.0
        assert report.summary()["failed"] == 1

    def test_non_retryable_failures_are_not_retried(self):
        # A link the fabric lacks is deterministic: retrying would fail the
        # same way, so the policy must spend exactly one attempt on it.
        bad = unrunnable_job()
        report = run_jobs(
            [bad], executor="serial",
            policy=RetryPolicy(max_attempts=5, base_delay_s=0.001),
            raise_on_error=False,
        )
        assert report.failures[0].attempts == 1
        assert report.retried == 0

    def test_failure_to_dict_round_trips_losslessly(self):
        bad = unrunnable_job()
        report = run_jobs([bad], executor="serial", raise_on_error=False)
        failure = report.failures[0]
        data = failure.to_dict()
        rebuilt = JobFailure.from_dict(data)
        assert rebuilt.to_dict() == data
        assert rebuilt.job.key == bad.key
        assert rebuilt.exc_type == failure.exc_type
        assert rebuilt.attempts == failure.attempts

    def test_timeout_warns_on_non_enforcing_backend(self):
        with pytest.warns(UserWarning, match="cannot preempt"):
            run_jobs(tiny_jobs(sim_time_s=1.0), executor="serial",
                     policy=RetryPolicy(timeout_s=60.0))

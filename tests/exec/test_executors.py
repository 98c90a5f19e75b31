"""Tests for the executor backends: determinism, caching, error reporting."""

import pytest

from repro.exec.executors import (
    ExecutionError,
    JobFailure,
    ProcessExecutor,
    SerialExecutor,
    resolve_executor,
    run_jobs,
)
from repro.exec.job import ExperimentJob
from repro.exec.planner import plan_comparison
from repro.exec.store import ResultStore
from repro.experiments.spec import ScenarioSpec
from repro.registry import EXECUTORS, RegistryError


def tiny_jobs(sim_time_s=1.5, seed=3):
    return plan_comparison(ScenarioSpec.pareto_poisson(sim_time_s=sim_time_s, seed=seed))


def canonical(report):
    return {key: result.canonical_dict() for key, result in report.results.items()}


def unrunnable_job():
    """A valid job that fails inside the run, on every attempt.

    Specs validate their keys and parameters when built, so the failure is a
    dynamics event naming a link the fabric does not have: it only surfaces
    when the worker runs the job.
    """
    spec = ScenarioSpec.pareto_poisson(sim_time_s=1.0).with_dynamics(
        [{"kind": "link-failure", "at_s": 0.5, "link_id": "moebius"}]
    )
    return ExperimentJob(spec=spec, scheme="scda")


class TestRegistry:
    def test_builtin_executors_are_registered(self):
        assert {"serial", "process"} <= set(EXECUTORS.names())

    def test_thread_backend_is_gone(self):
        with pytest.raises(RegistryError) as excinfo:
            resolve_executor("thread")
        for name in ("serial", "process", "cluster", "chaos"):
            assert name in str(excinfo.value)

    def test_unknown_executor_gets_did_you_mean(self):
        with pytest.raises(RegistryError, match="did you mean 'serial'"):
            EXECUTORS.get("serail")

    def test_resolve_executor_from_key_and_instance(self):
        backend = resolve_executor("process", max_workers=3)
        assert isinstance(backend, ProcessExecutor)
        assert backend.max_workers == 3
        same = SerialExecutor()
        assert resolve_executor(same) is same

    def test_aliases(self):
        assert EXECUTORS.get("multiprocessing").name == "process"


class TestDeterminism:
    def test_process_matches_serial(self):
        jobs = tiny_jobs(sim_time_s=1.0)
        serial = run_jobs(jobs, executor="serial")
        processed = run_jobs(jobs, executor="process", max_workers=2)
        assert canonical(serial) == canonical(processed)

    def test_rerunning_in_same_interpreter_is_bit_identical(self):
        # Guards the per-run id counters: a second run must not see flow or
        # content ids continuing from the first.
        jobs = tiny_jobs()
        first = run_jobs(jobs, executor="serial")
        second = run_jobs(jobs, executor="serial")
        assert canonical(first) == canonical(second)


class TestRunJobs:
    def test_duplicate_jobs_computed_once(self):
        jobs = tiny_jobs()
        doubled = jobs + [jobs[0].with_tags(role="again")]
        report = run_jobs(doubled, executor="serial")
        assert report.computed == 2
        assert report.result_for(doubled[-1]) is report.result_for(jobs[0])

    def test_store_resume_recomputes_nothing(self, tmp_path):
        jobs = tiny_jobs()
        path = tmp_path / "results.jsonl"
        first = run_jobs(jobs, executor="serial", store=str(path))
        assert (first.computed, first.cached) == (2, 0)
        second = run_jobs(jobs, executor="serial", store=str(path))
        assert (second.computed, second.cached) == (0, 2)
        assert canonical(first) == canonical(second)

    def test_store_fills_only_missing_points(self, tmp_path):
        jobs = tiny_jobs()
        store = ResultStore(tmp_path / "results.jsonl")
        run_jobs(jobs[:1], executor="serial", store=store)
        report = run_jobs(jobs, executor="serial", store=store)
        assert (report.computed, report.cached) == (1, 1)

    def test_progress_events(self):
        events = []
        jobs = tiny_jobs()
        run_jobs(
            jobs,
            executor="serial",
            progress=lambda event, job, detail: events.append((event, job.scheme_name)),
        )
        assert events == [
            ("submitted", "scda"),
            ("finished", "scda"),
            ("submitted", "rand-tcp"),
            ("finished", "rand-tcp"),
        ]

    def test_failures_raise_execution_error_with_labels(self):
        # Scheme keys and spec parameters are validated at planning time; a
        # link the fabric lacks only surfaces when the worker runs the job,
        # exercising the failure-reporting path.
        bad = unrunnable_job()
        with pytest.raises(ExecutionError, match="moebius"):
            run_jobs([bad], executor="serial")

    def test_failures_collected_when_not_fatal(self):
        good = tiny_jobs()[0]
        bad = unrunnable_job()
        events = []
        report = run_jobs(
            [good, bad],
            executor="serial",
            raise_on_error=False,
            progress=lambda event, job, detail: events.append(event),
        )
        assert report.computed == 1
        assert len(report.failures) == 1
        assert isinstance(report.failures[0], JobFailure)
        assert "moebius" in report.failures[0].error
        assert report.failures[0].traceback  # the worker traceback is kept
        assert events.count("failed") == 1
        with pytest.raises(KeyError):
            report.result_for(bad)

    def test_process_pool_reports_failures_too(self):
        bad = unrunnable_job()
        report = run_jobs(
            [bad], executor="process", max_workers=2, raise_on_error=False
        )
        assert len(report.failures) == 1

    def test_summary_shape(self):
        report = run_jobs(tiny_jobs(), executor="serial")
        summary = report.summary()
        assert summary["executor"] == "serial"
        assert summary["jobs"] == 2
        assert summary["computed"] == 2
        assert summary["failed"] == 0
        assert summary["retried"] == 0
        assert summary["fallbacks"] == 0

    def test_failures_carry_structured_fields(self):
        bad = unrunnable_job()
        report = run_jobs([bad], executor="serial", raise_on_error=False)
        failure = report.failures[0]
        assert failure.exc_type == "DynamicsError"
        assert failure.attempts == 1
        assert failure.elapsed_s > 0.0
        assert JobFailure.from_dict(failure.to_dict()).to_dict() == failure.to_dict()

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            SerialExecutor(max_workers=0)

    def test_results_are_stored_as_each_job_finishes(self, tmp_path):
        # Partial progress must survive an interrupted batch: by the time a
        # job's progress event fires, every *previously finished* job is
        # already on disk.
        jobs = tiny_jobs()
        store = ResultStore(tmp_path / "incremental.jsonl")
        stored_when_finished = []
        run_jobs(
            jobs,
            executor="serial",
            store=store,
            progress=lambda event, job, detail: (
                stored_when_finished.append(len(ResultStore(store.path)))
                if event == "finished"
                else None
            ),
        )
        # At each finish, all prior finishes were already persisted.
        assert stored_when_finished == [0, 1]
        assert len(store) == 2

    def test_resolve_executor_does_not_mutate_caller_instance(self):
        mine = ProcessExecutor(max_workers=8)
        resolved = resolve_executor(mine, max_workers=2)
        assert mine.max_workers == 8
        assert resolved.max_workers == 2
        assert resolved is not mine
        with pytest.raises(ValueError):
            resolve_executor(mine, max_workers=0)


class TestHydration:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_each_computed_result_is_hydrated_once(self, backend, monkeypatch, tmp_path):
        # The dispatcher validates every result dict by hydrating it and hands
        # that object to run_jobs; the store takes the dict as it came.
        from repro.metrics.comparison import SchemeResult

        hydrate = SchemeResult.from_dict.__func__
        calls = []

        def counting(cls, data):
            calls.append(data)
            return hydrate(cls, data)

        monkeypatch.setattr(SchemeResult, "from_dict", classmethod(counting))
        jobs = tiny_jobs()
        store = ResultStore(tmp_path / "hydrate.jsonl")
        report = run_jobs(jobs, executor=backend, max_workers=2, store=store)
        assert report.computed == len(jobs) == len(store)
        assert len(calls) / report.computed == 1


class TestBatchSize:
    def test_chunked_process_results_match_serial(self):
        jobs = tiny_jobs(sim_time_s=1.0)
        serial = run_jobs(jobs, executor="serial")
        chunked = run_jobs(jobs, executor="process", max_workers=2, batch_size=3)
        assert canonical(chunked) == canonical(serial)

    def test_resolve_executor_validates_batch_size(self):
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            resolve_executor("process", batch_size=0)

    def test_resolve_executor_sets_batch_size_on_built_backend(self):
        backend = resolve_executor("process", batch_size=4)
        assert backend.batch_size == 4
        assert resolve_executor("process").batch_size == 1

    def test_batch_size_override_copies_passed_instances(self):
        mine = ProcessExecutor(max_workers=2)
        resolved = resolve_executor(mine, batch_size=5)
        assert resolved is not mine
        assert resolved.batch_size == 5
        assert mine.batch_size == 1  # the caller's object is never mutated

    def test_chunk_outcomes_stay_per_job(self):
        # One bad job in a chunk must not poison its chunk-mates.
        from repro.exec.executors import execute_job_chunk

        good = tiny_jobs()[0].to_dict()
        bad = dict(good, scheme="no-such-scheme")
        outcomes = execute_job_chunk([good, bad, good])
        assert [o["ok"] for o in outcomes] == [True, False, True]
        assert outcomes[1]["exc_type"] == "RegistryError"

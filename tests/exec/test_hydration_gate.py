"""The hydration gate: a result dict that cannot rebuild a result is never kept.

Results cross the process pipe and the worker's HTTP body as plain
``SchemeResult.to_dict()`` dicts, so the only check on what arrives is that
:meth:`SchemeResult.from_dict` accepts it.  The dispatcher applies it to
every returned dict (a failure becomes a retryable ``CorruptResultError``),
and the worker daemon applies it before writing its shard.  Each case below
damages one part of a real result on the first attempt only; the retry must
get back to the serial bits, and the damaged dict must reach no store.
"""

import copy

import pytest

import repro.exec.executors as executors
import repro.service.worker as worker_module
from repro.exec.cluster import ClusterExecutor
from repro.exec.executors import run_jobs
from repro.exec.planner import plan_comparison
from repro.exec.retry import RetryPolicy
from repro.exec.store import ResultStore
from repro.experiments.spec import ScenarioSpec
from repro.metrics.comparison import SchemeResult
from repro.service.worker import WorkerServer


def tiny_job():
    return plan_comparison(ScenarioSpec.pareto_poisson(sim_time_s=1.0, seed=3))[0]


def _set(*path, value):
    def damage(data):
        target = data
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
        return data

    return damage


def _drop(*path):
    def damage(data):
        target = data
        for step in path[:-1]:
            target = target[step]
        del target[path[-1]]
        return data

    return damage


def _reverse_throughput(data):
    data["throughput"]["samples"].reverse()
    return data


#: name -> function damaging a deep copy of a real ``to_dict()`` result
CORRUPTIONS = {
    "missing-scheme": _drop("scheme"),
    "records-not-a-list": _set("records", value=7),
    "record-missing-a-field": _drop("records", 0, "finished_at_s"),
    "record-with-an-unknown-field": _set("records", 0, "bogus", value=1),
    "record-with-an-unknown-kind": _set("records", 0, "kind", value="elephant"),
    "record-with-zero-multiplicity": _set("records", 0, "multiplicity", value=0),
    "record-with-fractional-multiplicity": _set(
        "records", 0, "multiplicity", value=1.5
    ),
    "throughput-sample-missing-a-field": _drop(
        "throughput", "samples", 0, "active_flows"
    ),
    "throughput-samples-out-of-order": _reverse_throughput,
    "availability-sample-with-an-unknown-field": _set(
        "availability", "samples", 0, "bogus", value=0
    ),
    "non-numeric-extra": _set("extras", "events_processed", value="many"),
    "non-integer-sla-count": _set("sla_violations", value="none"),
    "not-a-mapping": lambda data: sorted(data.items()),
}

#: retry at once: the backoff schedule is not what these tests are about
ONE_RETRY = RetryPolicy(max_attempts=2, base_delay_s=0.0)


def damaged_once(run, corruption, seen):
    """Wrap ``run`` (payload -> result dict) to damage its first result only."""

    def wrapped(payload):
        result = run(payload)
        if seen:
            return result
        damaged = CORRUPTIONS[corruption](copy.deepcopy(result))
        seen.append(damaged)
        return damaged

    return wrapped


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_dispatcher_retries_a_damaged_result_to_the_serial_bits(
    corruption, monkeypatch, tmp_path
):
    job = tiny_job()
    clean = run_jobs([job], executor="serial", store=tmp_path / "clean.jsonl")
    seen = []
    monkeypatch.setattr(
        executors,
        "execute_job_payload",
        damaged_once(executors.execute_job_payload, corruption, seen),
    )
    retries = []

    def progress(event, _job, detail):
        if event == "retry":
            retries.append(detail)

    report = run_jobs(
        [job],
        executor="serial",
        store=tmp_path / "retried.jsonl",
        policy=ONE_RETRY,
        progress=progress,
    )
    assert len(seen) == 1
    with pytest.raises((KeyError, TypeError, ValueError)):
        SchemeResult.from_dict(seen[0])
    assert report.retried == 1
    assert "CorruptResultError" in retries[0]
    assert not report.failures
    assert (
        report.result_for(job).canonical_dict()
        == clean.result_for(job).canonical_dict()
    )
    assert (
        ResultStore(tmp_path / "retried.jsonl").results_by_key()
        == ResultStore(tmp_path / "clean.jsonl").results_by_key()
    )


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_cluster_retries_a_damaged_result_and_keeps_it_off_the_shard(
    corruption, monkeypatch, tmp_path
):
    job = tiny_job()
    clean = run_jobs([job], executor="serial", store=tmp_path / "clean.jsonl")
    seen = []
    real_chunk = worker_module.execute_job_chunk

    def damaged_chunk(payloads):
        outcomes = real_chunk(payloads)
        damage = damaged_once(lambda result: result, corruption, seen)
        return [dict(o, result=damage(o["result"])) for o in outcomes]

    monkeypatch.setattr(worker_module, "execute_job_chunk", damaged_chunk)
    with WorkerServer(port=0, shard_dir=tmp_path / "shards") as server:
        report = run_jobs(
            [job],
            executor=ClusterExecutor(hosts=f"{server.host}:{server.port}"),
            store=tmp_path / "cluster.jsonl",
            policy=ONE_RETRY,
            fallback=False,
        )
        shard = ResultStore(server.shard_path)
        stats = server.stats()
    assert len(seen) == 1
    assert stats["chunks"] == 2  # the damaged attempt and its retry
    assert report.retried == 1
    assert not report.failures
    assert (
        report.result_for(job).canonical_dict()
        == clean.result_for(job).canonical_dict()
    )
    # Only the retry's result reached the worker's shard and the client store.
    clean_lines = ResultStore(tmp_path / "clean.jsonl").results_by_key()
    assert shard.results_by_key() == clean_lines
    assert ResultStore(tmp_path / "cluster.jsonl").results_by_key() == clean_lines

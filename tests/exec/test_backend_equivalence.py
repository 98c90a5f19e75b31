"""Every backend returns the serial bits for every registered scheme.

One job per registered scheme runs on the serial, process and cluster
backends (the cluster on two in-process ``WorkerServer`` daemons).
A result crosses the process pipe pickled and the cluster's HTTP body as
JSON, in both cases as the plain ``to_dict()`` dict, and the dispatcher
hydrates it once.  So per scheme and backend the canonical result and the
stored line must equal serial's, and per backend the reported result and the
stored line must come from the same returned dict.
"""

import pytest

from repro.exec.cluster import ClusterExecutor
from repro.exec.executors import ProcessExecutor, run_jobs
from repro.exec.planner import plan_matrix
from repro.exec.store import ResultStore
from repro.experiments.spec import ScenarioSpec
from repro.metrics.comparison import SchemeResult
from repro.registry import SCHEMES
from repro.service.worker import WorkerServer

BACKENDS = ["serial", "process", "cluster"]


@pytest.fixture(scope="module")
def scheme_jobs():
    spec = ScenarioSpec.pareto_poisson(sim_time_s=1.0, seed=5)
    return {job.scheme_name: job for job in plan_matrix([spec], SCHEMES.names())}


@pytest.fixture(scope="module")
def runs(scheme_jobs, tmp_path_factory):
    """``backend -> (report, store)`` for the scheme matrix on each backend."""
    root = tmp_path_factory.mktemp("backends")
    jobs = list(scheme_jobs.values())
    workers = [WorkerServer(port=0, shard_dir=root / "shards").start() for _ in range(2)]
    try:
        backends = {
            "serial": "serial",
            "process": ProcessExecutor(max_workers=2),
            "cluster": ClusterExecutor(hosts=[f"{w.host}:{w.port}" for w in workers]),
        }
        out = {}
        for name, backend in backends.items():
            store = ResultStore(root / f"{name}.jsonl")
            report = run_jobs(jobs, executor=backend, store=store, fallback=False)
            out[name] = (report, store)
    finally:
        for worker in workers:
            worker.stop()
    return out


@pytest.mark.parametrize("backend", BACKENDS[1:])
@pytest.mark.parametrize("scheme", SCHEMES.names())
def test_result_equals_serial(runs, scheme_jobs, scheme, backend):
    job = scheme_jobs[scheme]
    report, store = runs[backend]
    serial_report, serial_store = runs["serial"]
    assert report.executor == backend
    assert job.key in report.computed_keys
    assert (
        report.result_for(job).canonical_dict()
        == serial_report.result_for(job).canonical_dict()
    )
    assert store.entry(job.key)["result"] == serial_store.entry(job.key)["result"]
    assert store.entry(job.key)["meta"]["executor"] == backend


@pytest.mark.parametrize("backend", BACKENDS)
def test_report_and_store_hold_the_same_returned_dict(runs, scheme_jobs, backend):
    report, store = runs[backend]
    assert not report.failures and not report.fallbacks
    assert report.computed == len(scheme_jobs) == len(store)
    for job in scheme_jobs.values():
        result = report.result_for(job)
        entry = store.entry(job.key)
        assert isinstance(result, SchemeResult)
        assert entry["result"] == result.canonical_dict()
        # The wall clock differs on every run, so equal values mean the
        # reported object was hydrated from the very dict the store wrote.
        assert entry["meta"]["wall_clock_s"] == result.wall_clock_s > 0.0

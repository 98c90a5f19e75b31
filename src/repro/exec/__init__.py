"""Job-based parallel execution of experiments.

The paper's evaluation is a cross-product (schemes × topologies × workloads ×
loads × τ); this package turns every point of that product into a
self-contained, serialisable unit of work and runs the resulting job lists on
pluggable backends:

* :class:`~repro.exec.job.ExperimentJob` — one (scenario, scheme, seed)
  point with a lossless JSON round-trip and a content-addressed key;
* :mod:`~repro.exec.planner` — expands comparisons, matrices and sweeps into
  job lists;
* :mod:`~repro.exec.executors` — the :data:`~repro.registry.EXECUTORS`
  registry with ``serial`` and ``process`` backends plus the
  :func:`~repro.exec.executors.run_jobs` orchestrator, which degrades
  ``process → serial`` when a backend fails at the batch level;
  :mod:`~repro.exec.cluster` adds ``cluster`` (HTTP worker daemons,
  degrading ``cluster → process → serial``) and :mod:`~repro.exec.chaos`
  the ``chaos:<inner>`` fault-injection wrapper;
* :class:`~repro.exec.store.ResultStore` — an append-only JSONL store keyed
  by job content, enabling resume (already-computed points are never re-run)
  and a typed query API (filter by scheme/tags/spec fields, group by
  ensemble) so analyses read from disk instead of re-running;
* :mod:`~repro.exec.replication` — multi-seed ensembles: plan N replicate
  seeds per scheme, run them on any backend, fold the results into
  CI-carrying :class:`~repro.metrics.replication.ReplicatedComparison` s.

Determinism contract: running the same job under any backend — or in any
order relative to other jobs — produces a bit-identical
:class:`~repro.metrics.comparison.SchemeResult` (modulo the wall-clock
field).  See ``docs/EXECUTION.md``.

Results cross every dispatch boundary — the process pipe and the cluster
HTTP body alike — as the plain
:meth:`~repro.metrics.comparison.SchemeResult.to_dict` form the serial
backend produces.  The process backend has one worker lifecycle: each batch
forks its workers from a forkserver that has already imported the
simulator, and shuts them down when the batch ends (see
``docs/EXECUTION.md``).
"""

from repro.exec.chaos import ChaosConfig, ChaosError, ChaosExecutor
from repro.exec.cluster import ClusterExecutor
from repro.exec.job import ExperimentJob
from repro.exec.planner import (
    plan_comparison,
    plan_control_interval_sweep,
    plan_failure_sweep,
    plan_matrix,
    plan_offered_load_sweep,
    plan_replications,
    replicate_seed,
)
from repro.exec.executors import (
    Executor,
    ExecutionReport,
    JobFailure,
    ProcessExecutor,
    SerialExecutor,
    resolve_executor,
    run_jobs,
)
from repro.exec.retry import (
    ClusterTransportError,
    CorruptResultError,
    ExecutorDegradedError,
    JobTimeoutError,
    RetryPolicy,
    WorkerCrashError,
)
from repro.exec.store import ResultStore, StoredEntry
from repro.exec.replication import (
    ensemble_from_store,
    run_replicated_comparison,
    run_replications,
)

__all__ = [
    "ChaosConfig",
    "ChaosError",
    "ChaosExecutor",
    "ClusterExecutor",
    "ClusterTransportError",
    "CorruptResultError",
    "ExperimentJob",
    "Executor",
    "ExecutionReport",
    "ExecutorDegradedError",
    "JobFailure",
    "JobTimeoutError",
    "ProcessExecutor",
    "ResultStore",
    "RetryPolicy",
    "SerialExecutor",
    "StoredEntry",
    "WorkerCrashError",
    "ensemble_from_store",
    "resolve_executor",
    "plan_comparison",
    "plan_control_interval_sweep",
    "plan_failure_sweep",
    "plan_matrix",
    "plan_offered_load_sweep",
    "plan_replications",
    "replicate_seed",
    "run_jobs",
    "run_replicated_comparison",
    "run_replications",
]

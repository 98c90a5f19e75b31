"""Multi-seed replication through the job/executor/store machinery.

:func:`run_replications` fans one scenario out over N replicate seeds
(planned by :func:`~repro.exec.planner.plan_replications`, executed by any
:data:`~repro.registry.EXECUTORS` backend, cached in a
:class:`~repro.exec.store.ResultStore`) and folds the flat results back into
:class:`~repro.metrics.replication.ReplicatedResult` ensembles;
:func:`run_replicated_comparison` is the two-scheme convenience returning a
CI-carrying :class:`~repro.metrics.replication.ReplicatedComparison`.

Because replicate seeds derive from the replicate's *identity* and jobs are
content-addressed, an ensemble is serial ≡ process ≡ cluster bit-identical
through the store, and :func:`ensemble_from_store` can rebuild it later from
the JSONL alone — which is how the :data:`~repro.registry.ANALYSES` plugins
read ensembles without re-running anything.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.exec.executors import Executor, ProgressCallback, run_jobs
from repro.exec.planner import SchemeLike, plan_replications, replicate_seed
from repro.exec.retry import RetryPolicy
from repro.exec.store import ResultStore, ResultStoreError, StoredEntry
from repro.experiments.spec import as_spec
from repro.metrics.replication import ReplicatedComparison, ReplicatedResult


def run_replications(
    scenario,
    schemes: Sequence[SchemeLike] = ("scda", "rand-tcp"),
    seeds: int = 1,
    ensemble: Optional[str] = None,
    executor: Union[str, Executor] = "serial",
    max_workers: Optional[int] = None,
    store: Optional[Union[str, ResultStore]] = None,
    progress: Optional[ProgressCallback] = None,
    policy: Optional[RetryPolicy] = None,
    fallback: bool = True,
    store_fsync: Optional[bool] = None,
) -> List[ReplicatedResult]:
    """Run an N-seed ensemble of every scheme; one ensemble per scheme.

    Returns the ensembles in ``schemes`` order, each with its replicates in
    replicate order (replicate 0 under the scenario's own seed).  Jobs go
    through :func:`~repro.exec.executors.run_jobs`, so already-stored
    replicates are never recomputed; ``policy``/``fallback``/``store_fsync``
    pass through to it (retries, graceful degradation, durable appends).
    """
    spec = as_spec(scenario)
    jobs = plan_replications(spec, schemes=schemes, seeds=seeds, ensemble=ensemble)
    report = run_jobs(
        jobs,
        executor=executor,
        max_workers=max_workers,
        store=store,
        progress=progress,
        policy=policy,
        fallback=fallback,
        store_fsync=store_fsync,
    )
    ensembles: List[ReplicatedResult] = []
    n_schemes = len(list(schemes))
    for scheme_index in range(n_schemes):
        scheme_jobs = [jobs[i * n_schemes + scheme_index] for i in range(seeds)]
        results = [report.result_for(job) for job in scheme_jobs]
        ensembles.append(
            ReplicatedResult(
                scheme=results[0].scheme,
                seeds=[job.seed for job in scheme_jobs],
                results=results,
            )
        )
    return ensembles


def run_replicated_comparison(
    scenario,
    candidate: SchemeLike = "scda",
    baseline: SchemeLike = "rand-tcp",
    seeds: int = 1,
    ensemble: Optional[str] = None,
    executor: Union[str, Executor] = "serial",
    max_workers: Optional[int] = None,
    store: Optional[Union[str, ResultStore]] = None,
    progress: Optional[ProgressCallback] = None,
    policy: Optional[RetryPolicy] = None,
    fallback: bool = True,
    store_fsync: Optional[bool] = None,
) -> ReplicatedComparison:
    """Candidate vs baseline across N replicate seeds, with CIs.

    The N=1 ensemble contains exactly the historical single-seed comparison
    (replicate 0 runs under the scenario's own seed and shares its cache
    entry with the plain :func:`~repro.exec.planner.plan_comparison` jobs).
    """
    spec = as_spec(scenario)
    candidate_rep, baseline_rep = run_replications(
        spec,
        schemes=(candidate, baseline),
        seeds=seeds,
        ensemble=ensemble,
        executor=executor,
        max_workers=max_workers,
        store=store,
        progress=progress,
        policy=policy,
        fallback=fallback,
        store_fsync=store_fsync,
    )
    return ReplicatedComparison(
        scenario=spec.name, candidate=candidate_rep, baseline=baseline_rep
    )


def replicated_results_from_entries(
    entries: Sequence[StoredEntry],
) -> Dict[str, ReplicatedResult]:
    """Fold stored entries into one :class:`ReplicatedResult` per scheme.

    Entries group by scheme name and order by replicate index (ties broken
    by job key, so the fold is deterministic for any store enumeration).
    The returned dict is keyed by scheme *registry key* (``"scda"``), not
    display name, and its insertion order follows the sorted keys.
    """
    by_scheme: Dict[str, List[StoredEntry]] = {}
    for entry in entries:
        by_scheme.setdefault(entry.scheme_name, []).append(entry)
    ensembles: Dict[str, ReplicatedResult] = {}
    for scheme_key in sorted(by_scheme):
        group = sorted(by_scheme[scheme_key], key=lambda e: (e.replicate, e.key))
        ensembles[scheme_key] = ReplicatedResult(
            scheme=group[0].result.scheme,
            seeds=[entry.seed for entry in group],
            results=[entry.result for entry in group],
        )
    return ensembles


def ensemble_from_store(
    store: Union[str, ResultStore],
    ensemble: Optional[str] = None,
    candidate: Optional[str] = None,
    baseline: Optional[str] = None,
) -> ReplicatedComparison:
    """Rebuild a :class:`ReplicatedComparison` from a result store.

    ``ensemble`` selects the ensemble label (mandatory when the store holds
    more than one); the candidate/baseline schemes default to the ``role``
    tags :func:`~repro.exec.planner.plan_replications` attached, with
    explicit scheme keys as the override for stores produced another way.
    """
    store = ResultStore(store) if not isinstance(store, ResultStore) else store
    groups = store.group_by_ensemble()
    if not groups:
        raise ResultStoreError(f"result store {store.path} holds no entries")
    if ensemble is None:
        if len(groups) > 1:
            raise ResultStoreError(
                f"store holds {len(groups)} ensembles "
                f"({sorted(groups)}); pass ensemble=<label> to pick one"
            )
        ensemble = next(iter(groups))
    if ensemble not in groups:
        raise ResultStoreError(
            f"unknown ensemble {ensemble!r}; stored ensembles: {sorted(groups)}"
        )
    entries = groups[ensemble]

    def _fold_role(role: str, scheme: Optional[str]) -> ReplicatedResult:
        if scheme is not None:
            chosen = [e for e in entries if e.scheme_name == scheme]
        else:
            chosen = [e for e in entries if e.tags.get("role") == role]
        if not chosen:
            raise ResultStoreError(
                f"ensemble {ensemble!r} has no {role} entries "
                f"(schemes present: {sorted({e.scheme_name for e in entries})}); "
                f"pass {role}=<scheme key> explicitly"
            )
        # One fold implementation for every consumer: the shared helper owns
        # the replicate ordering and seed extraction conventions.
        return replicated_results_from_entries(chosen)[chosen[0].scheme_name]

    return ReplicatedComparison(
        scenario=str(ensemble),
        candidate=_fold_role("candidate", candidate),
        baseline=_fold_role("baseline", baseline),
    )


__all__ = [
    "ensemble_from_store",
    "replicate_seed",
    "replicated_results_from_entries",
    "run_replicated_comparison",
    "run_replications",
]

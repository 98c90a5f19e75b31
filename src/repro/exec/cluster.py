"""The ``cluster`` backend: dispatch jobs to HTTP worker daemons.

Third entry in the ``EXECUTORS`` registry (after ``serial`` and
``process``), composable with wrapper syntax (``chaos:cluster``).  The
executor is a *client*: workers are long-lived `repro worker` daemons (see
:mod:`repro.service.worker`), discovered from static configuration with
health-check gating (:mod:`repro.service.discovery`), each owning a local
write-once result shard that :meth:`repro.exec.store.ResultStore.merge`
unions after the run.

Scheduling drives the same :class:`~repro.exec.executors._BatchState`
retry machine as every other backend:

* chunks of ``batch_size`` jobs ship per ``POST /jobs`` round-trip;
* the target worker is chosen by **fewest outstanding chunks**, ties broken
  by **earliest last dispatch** (the PYME "earliest write time" rule), then
  configuration order;
* transport failures classify into the existing retry vocabulary — socket
  timeout → ``JobTimeoutError`` (the policy's ``timeout_s`` is enforced as
  the HTTP read timeout, scaled by chunk length), connection refused/lost →
  ``WorkerCrashError`` (the worker leaves the rotation), anything else →
  ``ClusterTransportError`` — all retryable, with the usual deterministic
  backoff;
* when every worker has left the rotation (or none was configured), the
  executor raises :class:`~repro.exec.retry.ExecutorDegradedError` and
  :func:`~repro.exec.executors.run_jobs` degrades
  ``cluster → process → serial``, re-running only unfinished jobs.

Because jobs are content-addressed and deterministic, none of this can
change results: the merged cluster store is line-for-line identical (after
keying) to a serial run's store, even under chaos injection.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.exec.executors import Executor, JobOutcome, ProcessExecutor, _BatchState
from repro.exec.job import ExperimentJob
from repro.exec.retry import (
    NO_RETRY,
    ClusterTransportError,
    ExecutorDegradedError,
    JobTimeoutError,
    RetryPolicy,
    WorkerCrashError,
)
from repro.registry import EXECUTORS
from repro.service import protocol
from repro.service.discovery import (
    WorkerEndpoint,
    configured_endpoints,
    discover_workers,
)

#: Fallback per-job transport budget when the policy sets no ``timeout_s``:
#: bounds how long a request to a live-but-hung worker can stall the run.
DEFAULT_REQUEST_TIMEOUT_S = 600.0


class _WorkerSlot:
    """Per-worker dispatch bookkeeping (mutated only on the scheduler thread)."""

    __slots__ = ("endpoint", "order", "outstanding", "last_dispatch", "alive")

    def __init__(self, endpoint: WorkerEndpoint, order: int) -> None:
        self.endpoint = endpoint
        self.order = order
        self.outstanding = 0
        self.last_dispatch = 0.0
        self.alive = True

    def sort_key(self) -> Tuple[int, float, int]:
        return (self.outstanding, self.last_dispatch, self.order)


class ClusterExecutor(Executor):
    """Run jobs on remote HTTP workers (see module docstring).

    Parameters
    ----------
    max_workers:
        Total in-flight chunks across the cluster (the dispatch window).
        Default: two per configured worker — enough to keep every worker's
        request pipeline full without flooding small daemons.
    hosts / hosts_file:
        Worker endpoints, as a ``host:port`` list/string or a hosts file.
        When neither is given the environment is consulted
        (``REPRO_CLUSTER_HOSTS`` / ``REPRO_CLUSTER_HOSTS_FILE``) — that is
        the channel the CLI and wrapper syntax (``chaos:cluster``) use.
    health_timeout_s:
        Budget of the pre-dispatch ``GET /healthz`` gate per endpoint.
    """

    name = "cluster"
    supports_timeout = True  # enforced as the HTTP read timeout per chunk

    def __init__(
        self,
        max_workers: Optional[int] = None,
        hosts: Optional[Union[str, Sequence[Union[str, WorkerEndpoint]]]] = None,
        hosts_file: Optional[str] = None,
        health_timeout_s: float = protocol.CONTROL_TIMEOUT_S,
    ) -> None:
        super().__init__(max_workers=max_workers)
        self.hosts = hosts
        self.hosts_file = hosts_file
        self.health_timeout_s = float(health_timeout_s)

    def fallback_backend(self) -> Optional[Executor]:
        return ProcessExecutor(max_workers=self.max_workers)

    # -- endpoint resolution -----------------------------------------------------------
    def live_workers(self) -> List[WorkerEndpoint]:
        """The configured endpoints that pass the health gate right now.

        Raises :class:`ExecutorDegradedError` when nothing is configured or
        nothing answers — the signal ``run_jobs`` turns into a degradation
        to the local process backend.
        """
        configured = configured_endpoints(hosts=self.hosts, hosts_file=self.hosts_file)
        if not configured:
            raise ExecutorDegradedError(
                "cluster backend has no workers configured: pass --hosts / "
                "--hosts-file or set REPRO_CLUSTER_HOSTS"
            )
        live = discover_workers(configured, timeout_s=self.health_timeout_s)
        if not live:
            raise ExecutorDegradedError(
                f"none of the {len(configured)} configured cluster worker(s) "
                f"answered the health check: "
                f"{', '.join(str(e) for e in configured)}"
            )
        return live

    # -- scheduling --------------------------------------------------------------------
    def execute(
        self,
        jobs: Sequence[ExperimentJob],
        progress=None,
        on_outcome=None,
        policy: Optional[RetryPolicy] = None,
    ) -> List[JobOutcome]:
        if not jobs:
            return []
        policy = policy or NO_RETRY
        slots = [
            _WorkerSlot(endpoint, order)
            for order, endpoint in enumerate(self.live_workers())
        ]
        window = self.max_workers or 2 * len(slots)
        state = _BatchState(jobs, policy, progress, on_outcome)
        batch_size = max(1, int(self.batch_size))
        pool = ThreadPoolExecutor(
            max_workers=window, thread_name_prefix="repro-cluster"
        )
        in_flight: Dict[Any, Tuple[List[int], _WorkerSlot, float]] = {}
        try:
            while not state.finished():
                state.release_due_retries()
                live = [slot for slot in slots if slot.alive]
                if not live:
                    raise ExecutorDegradedError(
                        f"cluster backend lost all {len(slots)} worker(s) "
                        f"mid-batch"
                    )
                while state.ready and len(in_flight) < window:
                    chunk, attempts = state.next_chunk(batch_size)
                    slot = min(live, key=_WorkerSlot.sort_key)
                    body = {"jobs": self._chunk_payloads(state, chunk, attempts)}
                    timeout_s = (
                        policy.timeout_s * len(chunk)
                        if policy.timeout_s is not None
                        else DEFAULT_REQUEST_TIMEOUT_S * len(chunk)
                    )
                    future = pool.submit(
                        protocol.http_json,
                        "POST",
                        slot.endpoint.url(protocol.JOBS_PATH),
                        body,
                        timeout_s,
                    )
                    slot.outstanding += 1
                    slot.last_dispatch = time.monotonic()
                    in_flight[future] = (chunk, slot, time.monotonic())
                if not in_flight:
                    delay = state.seconds_until_next_retry()
                    if delay is None:  # pragma: no cover - defensive
                        break
                    time.sleep(delay)
                    continue
                done, _ = wait(
                    set(in_flight),
                    timeout=state.seconds_until_next_retry(),
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    chunk, slot, sent_at = in_flight.pop(future)
                    slot.outstanding -= 1
                    elapsed = time.monotonic() - sent_at
                    self._collect(state, chunk, slot, future, elapsed, policy)
            return state.results()
        finally:
            # Never block the scheduler on in-flight requests to dead or
            # hung workers; daemonised threads drain on their own.
            pool.shutdown(wait=False)

    def _collect(
        self,
        state: _BatchState,
        chunk: List[int],
        slot: _WorkerSlot,
        future: Any,
        elapsed: float,
        policy: RetryPolicy,
    ) -> None:
        """Fold one finished HTTP round-trip back into the batch state."""
        try:
            response = future.result()
        except JobTimeoutError as exc:
            budget = (
                policy.timeout_s * len(chunk)
                if policy.timeout_s is not None
                else DEFAULT_REQUEST_TIMEOUT_S * len(chunk)
            )
            for index in chunk:
                state.fail(
                    index,
                    error=(
                        f"chunk of {len(chunk)} exceeded its {budget:g}s "
                        f"transport budget on {slot.endpoint} ({exc})"
                    ),
                    exc_type="JobTimeoutError",
                    elapsed_s=elapsed,
                )
            return
        except WorkerCrashError as exc:
            # The worker is gone: out of the rotation, jobs retried elsewhere.
            slot.alive = False
            for index in chunk:
                state.fail(
                    index,
                    error=f"worker {slot.endpoint} died mid-chunk ({exc})",
                    exc_type="WorkerCrashError",
                    elapsed_s=elapsed,
                )
            return
        except Exception as exc:  # noqa: BLE001 - classified by name
            for index in chunk:
                state.fail(
                    index,
                    error=repr(exc),
                    exc_type=type(exc).__name__,
                    elapsed_s=elapsed,
                )
            return
        outcomes = response.get("outcomes") if isinstance(response, dict) else None
        if not isinstance(outcomes, list) or len(outcomes) != len(chunk):
            got = len(outcomes) if isinstance(outcomes, list) else "none"
            for index in chunk:
                state.fail(
                    index,
                    error=(
                        f"worker {slot.endpoint} answered {got} outcome(s) "
                        f"for a chunk of {len(chunk)}"
                    ),
                    exc_type="ClusterTransportError",
                    elapsed_s=elapsed,
                )
            return
        for index, outcome in zip(chunk, outcomes):
            if isinstance(outcome, dict):
                state.apply_outcome(index, outcome, elapsed_s=elapsed)
            else:
                state.fail(
                    index,
                    error=f"worker {slot.endpoint} returned a malformed outcome",
                    exc_type="ClusterTransportError",
                    elapsed_s=elapsed,
                )


EXECUTORS.register(
    "cluster",
    ClusterExecutor,
    description="dispatch to HTTP worker daemons (repro worker) with "
    "write-once result shards; degrades to the local process pool",
)


__all__ = ["ClusterExecutor", "ClusterTransportError", "DEFAULT_REQUEST_TIMEOUT_S"]

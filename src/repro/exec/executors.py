"""Executor backends: run job lists serially or on processes.

Every backend funnels each job through the same module-level payload
function (:func:`execute_job_payload`): the job crosses the boundary as its
plain :meth:`~repro.exec.job.ExperimentJob.to_dict` form and the result comes
back as its :meth:`~repro.metrics.comparison.SchemeResult.to_dict` form.
Serialising on *every* backend — including ``serial`` — keeps the
paths structurally identical, so "parallel equals serial" reduces to the
simulator's own determinism (which the per-run id counters and the
hierarchical seed derivation guarantee; see ``docs/EXECUTION.md``).

Backends are plugins in the :data:`repro.registry.EXECUTORS` registry::

    from repro.registry import EXECUTORS

    @EXECUTORS.register("my-cluster", description="submit jobs to slurm")
    class SlurmExecutor(Executor):
        ...

after which ``repro sweep --executor my-cluster`` and
:func:`run_jobs(..., executor="my-cluster") <run_jobs>` pick it up.
``<wrapper>:<inner>`` keys (``chaos:process``) resolve the wrapper and hand
it the inner backend key — see :mod:`repro.exec.chaos`.

Fault tolerance (see ``docs/EXECUTION.md`` § Failure semantics):

* every backend re-attempts transiently failed jobs under a
  :class:`~repro.exec.retry.RetryPolicy` with deterministic per-job backoff;
* the process backend manages its own worker pool: a killed/OOMed worker is
  detected, its in-flight job rescheduled and a replacement spawned, and a
  job that exceeds ``policy.timeout_s`` gets its worker killed
  (hung-worker detection) instead of stalling the batch;
* :func:`run_jobs` degrades gracefully — when a backend fails at the *batch*
  level it falls back ``process → serial``, recording the downgrade
  in the :class:`ExecutionReport`, and re-runs only the unfinished jobs
  (everything already computed was checkpointed through ``on_outcome``).
"""

from __future__ import annotations

import copy
import heapq
import multiprocessing
import os
import time
import traceback
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.exec.job import ExperimentJob
from repro.exec.retry import (
    NO_RETRY,
    ExecutorDegradedError,
    RetryPolicy,
)
from repro.exec.store import ResultStore
from repro.metrics.comparison import SchemeResult
from repro.registry import EXECUTORS, RegistryError

#: Lifetime of an idle warm-pool worker before it is reaped (see
#: :class:`ProcessExecutor`); generous because a warm worker's whole point is
#: surviving the gap between consecutive ``run_jobs`` calls.
DEFAULT_IDLE_TIMEOUT_S = 300.0

#: Valid values of the ``pool=`` lifecycle knob of pooled backends.
POOL_MODES = ("fresh", "keep")

#: ``progress(event, job, detail)`` with event one of ``submitted``,
#: ``cached``, ``finished``, ``failed``, ``retry``, ``degraded``.  ``detail``
#: is the error string for ``failed``, the schedule line for ``retry``, the
#: downgrade description for ``degraded``, and ``None`` otherwise.
ProgressCallback = Callable[[str, ExperimentJob, Optional[str]], None]

#: ``on_outcome(job, outcome, result)`` invoked (on the caller's thread) as
#: soon as each job's *final* outcome is known — the hook :func:`run_jobs`
#: uses to persist results incrementally, so an interrupted run keeps what it
#: computed.  ``result`` is the :class:`SchemeResult` the dispatcher hydrated
#: from a successful outcome dict to validate it (``None`` for a failure), so
#: no caller has to hydrate the same payload again.  Intermediate failed
#: attempts that will be retried are not delivered here (they surface as
#: ``retry`` progress events instead).
OutcomeCallback = Callable[[ExperimentJob, "JobOutcome", Optional[SchemeResult]], None]


def execute_job_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one serialised job and return the serialised result.

    This is the function worker processes import and call; it must stay
    module-level (picklable by reference) and must take/return only plain
    JSON-safe dicts so a spawn-started interpreter can execute it without
    any parent state.

    A ``"__chaos__"`` envelope (attached by
    :class:`~repro.exec.chaos.ChaosExecutor`, never part of the job's
    content key) is interpreted here, *inside the worker*, so injected
    crashes really kill the worker process the job runs in.
    """
    from repro.experiments.runner import run_job

    payload = dict(payload)
    chaos = payload.pop("__chaos__", None)
    if chaos is not None:
        from repro.exec.chaos import apply_chaos_before

        apply_chaos_before(chaos)
    job = ExperimentJob.from_dict(payload)
    result = run_job(job).to_dict()
    if chaos is not None:
        from repro.exec.chaos import apply_chaos_after

        result = apply_chaos_after(chaos, result)
    return result


def execute_job_chunk(payloads: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Run a chunk of serialised jobs; one outcome dict per payload, in order.

    This is the unit the chunked dispatch paths (pooled backends with
    ``batch_size > 1``, the HTTP worker daemon's ``POST /jobs``) ship per
    round-trip.  Each outcome is either ``{"ok": True, "result": <dict>}`` or
    ``{"ok": False, "error", "exc_type", "traceback"}`` — the exception is
    captured *per job*, so one bad job never poisons its chunk-mates, and the
    class name crosses any boundary as a string for
    :class:`~repro.exec.retry.RetryPolicy` classification.  Only
    ``BaseException`` (``KeyboardInterrupt``, ``SystemExit``, an injected
    ``os._exit``) escapes, taking the rest of the chunk with it — exactly the
    semantics of losing the worker mid-chunk.
    """
    outcomes: List[Dict[str, Any]] = []
    for payload in payloads:
        try:
            result = execute_job_payload(payload)
        except Exception as exc:  # noqa: BLE001 - serialised for the dispatcher
            outcomes.append(
                {
                    "ok": False,
                    "error": repr(exc),
                    "exc_type": type(exc).__name__,
                    "traceback": traceback.format_exc(),
                }
            )
        else:
            outcomes.append({"ok": True, "result": result})
    return outcomes


@dataclass
class JobFailure:
    """One job that raised (or crashed, or timed out) instead of returning.

    Structured for post-mortems: the exception class name drives retry
    classification (see :class:`~repro.exec.retry.RetryPolicy`), ``attempts``
    counts every try the backend made for this job, and ``elapsed_s`` is the
    wall clock of the final attempt.
    """

    job: ExperimentJob
    error: str
    traceback: str = ""
    exc_type: str = ""
    attempts: int = 1
    elapsed_s: float = 0.0

    def __str__(self) -> str:
        suffix = f" (after {self.attempts} attempts)" if self.attempts > 1 else ""
        return f"{self.job.label()}: {self.error}{suffix}"

    def to_dict(self) -> Dict[str, Any]:
        """A plain JSON-safe dict; :meth:`from_dict` round-trips losslessly."""
        return {
            "job": self.job.to_dict(),
            "error": self.error,
            "traceback": self.traceback,
            "exc_type": self.exc_type,
            "attempts": int(self.attempts),
            "elapsed_s": float(self.elapsed_s),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobFailure":
        """Rebuild a failure from :meth:`to_dict` output."""
        return cls(
            job=ExperimentJob.from_dict(data["job"]),
            error=str(data["error"]),
            traceback=str(data.get("traceback", "")),
            exc_type=str(data.get("exc_type", "")),
            attempts=int(data.get("attempts", 1)),
            elapsed_s=float(data.get("elapsed_s", 0.0)),
        )


#: What a backend hands back per job: the result dict, or a failure.
JobOutcome = Union[Dict[str, Any], JobFailure]


class _BatchState:
    """Shared attempt/retry bookkeeping for one ``execute`` call.

    Owns the per-job attempt counters, the queue of indices ready to
    (re)dispatch, the deterministic-backoff retry heap, and the final
    outcome slots.  Every backend drives its scheduling loop through this
    object so retry semantics (classification, backoff, progress events,
    final-outcome delivery) are identical on the serial, process and
    cluster paths.
    """

    def __init__(
        self,
        jobs: Sequence[ExperimentJob],
        policy: RetryPolicy,
        progress: Optional[ProgressCallback],
        on_outcome: Optional[OutcomeCallback],
    ) -> None:
        self.jobs = list(jobs)
        self.policy = policy
        self.progress = progress
        self.on_outcome = on_outcome
        self.outcomes: List[Optional[JobOutcome]] = [None] * len(self.jobs)
        self.attempts = [0] * len(self.jobs)
        #: indices ready to be dispatched right now (initially: every job)
        self.ready: deque = deque(range(len(self.jobs)))
        #: ``(monotonic_due_time, index)`` of scheduled retries
        self.retry_heap: List[Tuple[float, int]] = []
        self._completed = 0

    # -- lifecycle ---------------------------------------------------------------------
    def finished(self) -> bool:
        return self._completed == len(self.jobs)

    def begin(self, index: int) -> int:
        """Start the next attempt of job ``index``; returns the attempt number."""
        self.attempts[index] += 1
        if self.attempts[index] == 1:
            Executor._emit(self.progress, "submitted", self.jobs[index])
        return self.attempts[index]

    def unbegin(self, index: int) -> None:
        """Roll back :meth:`begin` for a dispatch that never reached a worker."""
        self.attempts[index] -= 1
        self.ready.append(index)

    def next_chunk(self, batch_size: int) -> Tuple[List[int], List[int]]:
        """Pop and begin up to ``batch_size`` ready jobs: (indices, attempts)."""
        chunk: List[int] = []
        while self.ready and len(chunk) < batch_size:
            chunk.append(self.ready.popleft())
        return chunk, [self.begin(index) for index in chunk]

    def apply_outcome(
        self, index: int, outcome: Mapping[str, Any], elapsed_s: float = 0.0
    ) -> None:
        """Record one :func:`execute_job_chunk`-style outcome dict.

        This is the single funnel every pooled dispatch path (process pipe,
        cluster HTTP) feeds outcomes through.
        """
        if outcome.get("ok"):
            self.succeed(index, outcome["result"])
        else:
            self.fail(
                index,
                error=str(outcome.get("error", "unknown worker error")),
                exc_type=str(outcome.get("exc_type", "")),
                tb=str(outcome.get("traceback", "")),
                elapsed_s=elapsed_s,
            )

    def succeed(self, index: int, payload: Dict[str, Any]) -> None:
        """Record a returned result dict — after validating it hydrates.

        A payload that cannot rebuild a
        :class:`~repro.metrics.comparison.SchemeResult` (a worker returned
        garbage — e.g. injected corruption, or a partially transferred
        object) is converted into a retryable ``CorruptResultError`` failure
        instead of poisoning the store.  The hydrated result goes to
        ``on_outcome`` next to the dict, which stays the recorded outcome.
        """
        try:
            result = SchemeResult.from_dict(payload)
        except Exception as exc:  # noqa: BLE001 - any hydration error is corruption
            self.fail(
                index,
                error=f"corrupt result payload: {exc!r}",
                exc_type="CorruptResultError",
            )
            return
        job = self.jobs[index]
        self.outcomes[index] = payload
        self._completed += 1
        Executor._emit(self.progress, "finished", job)
        if self.on_outcome is not None:
            self.on_outcome(job, payload, result)

    def fail(
        self,
        index: int,
        error: str,
        exc_type: str,
        tb: str = "",
        elapsed_s: float = 0.0,
    ) -> Optional[float]:
        """Record a failed attempt; schedule a retry or finalise the failure.

        Returns the backoff delay when a retry was scheduled, ``None`` when
        the failure is final (non-retryable class, or attempts exhausted).
        """
        job = self.jobs[index]
        attempt = self.attempts[index]
        if self.policy.is_retryable(exc_type) and attempt < self.policy.max_attempts:
            delay = self.policy.backoff_s(job.seed, job.key, attempt)
            heapq.heappush(self.retry_heap, (time.monotonic() + delay, index))
            Executor._emit(
                self.progress,
                "retry",
                job,
                f"attempt {attempt}/{self.policy.max_attempts} failed "
                f"({exc_type or 'Exception'}: {error}); retrying in {delay:.3f}s",
            )
            return delay
        failure = JobFailure(
            job=job,
            error=error,
            traceback=tb,
            exc_type=exc_type,
            attempts=attempt,
            elapsed_s=elapsed_s,
        )
        self.outcomes[index] = failure
        self._completed += 1
        Executor._emit(self.progress, "failed", job, failure.error)
        if self.on_outcome is not None:
            self.on_outcome(job, failure, None)
        return None

    def fail_exception(
        self, index: int, exc: BaseException, elapsed_s: float = 0.0
    ) -> Optional[float]:
        """:meth:`fail` from a live exception (captures type and traceback)."""
        return self.fail(
            index,
            error=repr(exc),
            exc_type=type(exc).__name__,
            tb=traceback.format_exc(),
            elapsed_s=elapsed_s,
        )

    # -- retry scheduling --------------------------------------------------------------
    def release_due_retries(self) -> None:
        """Move every retry whose backoff has elapsed onto the ready queue."""
        now = time.monotonic()
        while self.retry_heap and self.retry_heap[0][0] <= now:
            _, index = heapq.heappop(self.retry_heap)
            self.ready.append(index)

    def seconds_until_next_retry(self) -> Optional[float]:
        """Time until the earliest scheduled retry is due (``None``: none)."""
        if not self.retry_heap:
            return None
        return max(0.0, self.retry_heap[0][0] - time.monotonic())

    def results(self) -> List[JobOutcome]:
        """The final outcome list; every slot must be filled by now."""
        # Every index ends in exactly one of succeed()/fail()-final, so a
        # None here is a scheduler bug that must surface, not be filtered.
        assert all(outcome is not None for outcome in self.outcomes)
        return self.outcomes  # type: ignore[return-value]


class Executor:
    """Base class of execution backends.

    Subclasses implement :meth:`execute`, mapping a job list to one outcome
    per job (same order as the input).  ``max_workers`` is advisory — the
    serial backend ignores it.
    """

    name = "base"
    #: whether this backend can *enforce* ``policy.timeout_s`` by preempting
    #: a running job (only preemptible backends — the process pool — can)
    supports_timeout = False
    #: how many jobs ship per dispatch round-trip.  ``1`` is the historical
    #: behaviour; pooled backends amortise per-job submit/pickle overhead (and
    #: the cluster backend its per-request HTTP overhead) by sending chunks.
    #: The serial backend has no round-trip and ignores it.  Chunking never
    #: changes results — jobs stay independently retried/classified — but a
    #: ``timeout_s`` budget covers a whole chunk (scaled by its length).
    batch_size = 1
    #: optional hook rewriting each job's payload dict per attempt; used by
    #: the chaos wrapper to attach its injection envelope.  Runs in the
    #: caller's process — only its *output* crosses to workers.
    payload_transform: Optional[Callable[[Dict[str, Any], int], Dict[str, Any]]] = None
    #: worker-pool lifecycle of pooled backends: ``"fresh"`` tears workers
    #: down after every ``execute`` call (the historical behaviour),
    #: ``"keep"`` retains idle workers across calls (warm pool; see
    #: :class:`ProcessExecutor`).  Backends without persistent workers
    #: ignore it.
    pool = "fresh"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers

    def close(self) -> None:
        """Release any persistent resources (warm workers).  Idempotent.

        Backends without persistent state inherit this no-op; the process
        backend shuts its warm pool down here.  Executors are context
        managers (``with ProcessExecutor(pool="keep") as ex: ...``) closing
        on exit.
        """

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def effective_workers(self, n_jobs: int) -> int:
        """The worker count actually used for ``n_jobs`` jobs."""
        default = os.cpu_count() or 1
        return max(1, min(self.max_workers or default, n_jobs or 1))

    def execute(
        self,
        jobs: Sequence[ExperimentJob],
        progress: Optional[ProgressCallback] = None,
        on_outcome: Optional[OutcomeCallback] = None,
        policy: Optional[RetryPolicy] = None,
    ) -> List[JobOutcome]:
        """Run every job; one outcome per job, in input order.

        ``on_outcome`` is invoked on the caller's thread as each job's final
        outcome becomes known (completion order, not input order), before
        the method returns — backends must call it so callers can persist
        partial progress even when the batch is interrupted later.
        ``policy`` governs retries and timeouts (``None``: one attempt).
        """
        raise NotImplementedError

    def fallback_backend(self) -> Optional["Executor"]:
        """The next-simpler backend :func:`run_jobs` degrades to, if any.

        The built-in chain is ``process → serial → (none)``; the
        chaos wrapper degrades to its inner backend (dropping injection).
        """
        return None

    # -- shared helpers ----------------------------------------------------------------
    @staticmethod
    def _emit(
        progress: Optional[ProgressCallback],
        event: str,
        job: ExperimentJob,
        detail: Optional[str] = None,
    ) -> None:
        if progress is not None:
            progress(event, job, detail)

    def _job_payload(self, job: ExperimentJob, attempt: int) -> Dict[str, Any]:
        """The dict submitted for one attempt of ``job``."""
        payload = job.to_dict()
        if self.payload_transform is not None:
            payload = self.payload_transform(payload, attempt)
        return payload

    def _chunk_payloads(
        self, state: "_BatchState", chunk: Sequence[int], attempts: Sequence[int]
    ) -> List[Dict[str, Any]]:
        """The payload dicts for one dispatched chunk of job indices."""
        return [
            self._job_payload(state.jobs[index], attempt)
            for index, attempt in zip(chunk, attempts)
        ]


class SerialExecutor(Executor):
    """Run jobs one after another in the current interpreter."""

    name = "serial"

    def execute(
        self,
        jobs: Sequence[ExperimentJob],
        progress: Optional[ProgressCallback] = None,
        on_outcome: Optional[OutcomeCallback] = None,
        policy: Optional[RetryPolicy] = None,
    ) -> List[JobOutcome]:
        state = _BatchState(jobs, policy or NO_RETRY, progress, on_outcome)
        for index, job in enumerate(jobs):
            while state.outcomes[index] is None:
                attempt = state.begin(index)
                started = time.perf_counter()
                try:
                    payload = execute_job_payload(self._job_payload(job, attempt))
                except Exception as exc:  # noqa: BLE001 - reported, not swallowed
                    delay = state.fail_exception(
                        index, exc, elapsed_s=time.perf_counter() - started
                    )
                    if delay is not None:
                        time.sleep(delay)
                        state.release_due_retries()
                        state.ready.clear()  # serial re-runs in place, not via queue
                else:
                    state.succeed(index, payload)
        return state.results()


# --------------------------------------------------------------------------------------
# The crash-tolerant process pool
# --------------------------------------------------------------------------------------


def _process_worker_main(conn) -> None:
    """Loop of one worker process: receive job chunks, send back outcomes.

    Protocol (all messages are plain picklable tuples over the pipe):

    * parent → worker: ``(task_id, [payload_dict, ...])`` or ``None`` (shut
      down);
    * worker → parent: ``("started", task_id)`` the moment work begins —
      the parent starts the chunk's timeout clock on this, so worker spawn
      and import time never count against the jobs — then
      ``("done", task_id, ok, payload)`` where ``ok`` carries the
      per-job outcome list of :func:`execute_job_chunk` and ``not ok`` a
      single ``{error, exc_type, traceback}`` dict for a failure that took
      the whole chunk (``KeyboardInterrupt``/``SystemExit``).

    Must stay module-level: spawn pickles it by reference and the child
    imports this module fresh.
    """
    try:
        # Pay the heavy simulator import once at spawn, not inside the first
        # job's timing window — this is most of what makes a *warm* worker
        # warm.
        import repro.experiments.runner  # noqa: F401
    except Exception:  # noqa: BLE001 - surfaces per-job if genuinely broken
        pass
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        task_id, payloads = message
        try:
            conn.send(("started", task_id))
            outcomes = execute_job_chunk(payloads)
        except BaseException as exc:  # noqa: BLE001 - serialised for the parent
            try:
                conn.send(
                    (
                        "done",
                        task_id,
                        False,
                        {
                            "error": repr(exc),
                            "exc_type": type(exc).__name__,
                            "traceback": traceback.format_exc(),
                        },
                    )
                )
            except (BrokenPipeError, OSError):
                return
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                return
        else:
            try:
                conn.send(("done", task_id, True, outcomes))
            except (BrokenPipeError, OSError):
                return


class _InFlight:
    """What one busy worker is doing: the chunk's job indices plus timing."""

    __slots__ = ("task_id", "indexes", "sent_at", "started_at", "deadline")

    def __init__(self, task_id: int, indexes: Sequence[int]) -> None:
        self.task_id = task_id
        self.indexes = list(indexes)
        self.sent_at = time.monotonic()
        self.started_at: Optional[float] = None
        self.deadline: Optional[float] = None


class _PoolWorker:
    """One spawn-started worker process plus its parent-side pipe."""

    def __init__(self, context) -> None:
        self.conn, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_process_worker_main, args=(child_conn,), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.task: Optional[_InFlight] = None
        self.doomed = False  # terminated on purpose; never dispatch to it again
        self.idle_since = time.monotonic()  # last moment this worker went idle

    def dispatch(
        self, task_id: int, indexes: Sequence[int], payloads: List[Dict[str, Any]]
    ) -> bool:
        """Send one job chunk; ``False`` when the pipe is already broken."""
        try:
            self.conn.send((task_id, payloads))
        except (BrokenPipeError, OSError):
            return False
        self.task = _InFlight(task_id, indexes)
        return True

    def alive(self) -> bool:
        return self.process.is_alive()

    def shutdown(self, kill: bool = False) -> None:
        """Stop the worker; escalates politely (message → terminate → kill)."""
        if not kill:
            try:
                self.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        try:
            self.conn.close()
        except OSError:
            pass
        if kill and self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - last resort
            self.process.kill()
            self.process.join(timeout=5.0)


class ProcessExecutor(Executor):
    """Run jobs on a self-managed, crash-tolerant spawn process pool.

    Spawn (not fork) is used on every platform: workers import the package
    fresh and receive the job as a plain dict, so no live simulator state —
    and none of the parent's global counters — ever crosses the boundary.

    Unlike ``concurrent.futures.ProcessPoolExecutor`` (whose pool breaks for
    good when any worker dies), this pool tracks which job each worker is
    running, so a killed/OOMed worker is *recovered from*: the dead worker
    is reaped, its in-flight job is rescheduled (a retryable
    ``WorkerCrashError``), and a replacement is spawned.  With
    ``policy.timeout_s`` set, a job that overruns its budget gets its worker
    killed the same way (hung-worker detection) instead of stalling the
    batch forever.  After ``max_respawns`` replacements the pool declares
    itself degraded (:class:`~repro.exec.retry.ExecutorDegradedError`) so
    :func:`run_jobs` can fall back to a simpler backend.

    Warm pools (``pool="keep"``): with the default ``pool="fresh"`` every
    ``execute`` call spawns its workers and tears them down afterwards —
    correct, but the spawn+import cost (a fresh interpreter importing the
    whole simulator) is paid per call and dominates short batches.
    ``pool="keep"`` retains idle, healthy workers on the executor instance
    across calls: consecutive ``run_jobs`` calls on the same executor reuse
    them with zero respawns.  The retained pool is mutated strictly in
    place, so the shallow copies taken by :func:`resolve_executor` overrides
    and the chaos wrapper all share (and warm) the same workers.  Lifecycle:
    :meth:`close` (or the inherited context manager) shuts the pool down;
    workers idle longer than ``idle_timeout_s`` are reaped at the start of
    the next call; any batch that ends in an error tears the pool down
    wholesale — only a cleanly finished batch leaves warm workers behind.
    Every fault-tolerance invariant is lifecycle-independent: warm workers
    still count against the same respawn budget, timeout kills still retire
    the worker, and results are bit-identical either way.
    """

    name = "process"
    supports_timeout = True

    def __init__(
        self,
        max_workers: Optional[int] = None,
        max_respawns: Optional[int] = None,
        pool: str = "fresh",
        idle_timeout_s: float = DEFAULT_IDLE_TIMEOUT_S,
    ) -> None:
        super().__init__(max_workers)
        if max_respawns is not None and max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")
        if pool not in POOL_MODES:
            raise ValueError(f"pool must be one of {POOL_MODES}, got {pool!r}")
        if idle_timeout_s <= 0:
            raise ValueError(f"idle_timeout_s must be > 0, got {idle_timeout_s}")
        self.max_respawns = max_respawns
        self.pool = pool
        self.idle_timeout_s = float(idle_timeout_s)
        #: the retained worker pool — mutated in place only (never rebound),
        #: so shallow copies of this executor share one pool
        self._pool_workers: List[_PoolWorker] = []
        #: lifetime counters, shared across copies the same way
        self._pool_counters: Dict[str, int] = {
            "spawned": 0,
            "respawned": 0,
            "reused": 0,
            "idle_reaped": 0,
            "task_id": 0,
        }
        #: only the original instance finalizes the pool on collection;
        #: shallow copies (resolve_executor overrides, the chaos wrapper's
        #: per-call runner) share the pool and must not destroy it when
        #: they go out of scope.
        self._owns_pool = True

    def __copy__(self) -> "ProcessExecutor":
        clone = self.__class__.__new__(self.__class__)
        clone.__dict__.update(self.__dict__)
        clone._owns_pool = False
        return clone

    def fallback_backend(self) -> Optional[Executor]:
        return SerialExecutor()

    # -- pool lifecycle ----------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Lifetime pool counters plus the current warm-pool size."""
        return {
            **{k: v for k, v in self._pool_counters.items() if k != "task_id"},
            "pool_size": len(self._pool_workers),
        }

    def close(self) -> None:
        """Shut down every retained worker (idle politely, busy by kill)."""
        while self._pool_workers:
            worker = self._pool_workers.pop()
            worker.shutdown(kill=worker.task is not None or worker.doomed)

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown guard
        try:
            if getattr(self, "_owns_pool", False):
                self.close()
        except Exception:  # noqa: BLE001 - never raise from a finalizer
            pass

    def _prune_pool(self) -> None:
        """Entry housekeeping: drop dead idle workers, reap idle timeouts."""
        now = time.monotonic()
        for worker in list(self._pool_workers):
            if worker.doomed or not worker.alive():
                # Died (or was killed) between batches: nothing was in
                # flight, so this costs nothing against any respawn budget.
                self._pool_workers.remove(worker)
                worker.shutdown(kill=True)
            elif now - worker.idle_since >= self.idle_timeout_s:
                self._pool_workers.remove(worker)
                worker.shutdown()
                self._pool_counters["idle_reaped"] += 1

    def execute(
        self,
        jobs: Sequence[ExperimentJob],
        progress: Optional[ProgressCallback] = None,
        on_outcome: Optional[OutcomeCallback] = None,
        policy: Optional[RetryPolicy] = None,
    ) -> List[JobOutcome]:
        if not jobs:
            return []
        policy = policy or NO_RETRY
        state = _BatchState(jobs, policy, progress, on_outcome)
        context = multiprocessing.get_context("spawn")
        n_workers = self.effective_workers(len(jobs))
        respawn_budget = (
            self.max_respawns
            if self.max_respawns is not None
            else max(4, 2 * len(jobs))
        )
        keep = self.pool == "keep"
        workers = self._pool_workers
        self._prune_pool()
        self._pool_counters["reused"] += len(workers)
        # Warm workers count toward the initial allotment (clamped to this
        # call's target size), so the replacement arithmetic below charges
        # the respawn budget identically for warm and cold pools.
        spawn_state = {"initial": min(len(workers), n_workers), "spawned": 0}
        completed = False
        try:
            while not state.finished():
                state.release_due_retries()
                self._reap_and_respawn(
                    workers, context, n_workers, state, spawn_state, respawn_budget
                )
                self._dispatch_ready(workers, state)
                busy = [w for w in workers if w.task is not None]
                if not busy:
                    delay = state.seconds_until_next_retry()
                    if delay is None:
                        if state.ready:
                            continue  # dispatch failed; reap loop will respawn
                        break  # pragma: no cover - defensive
                    time.sleep(delay)
                    continue
                self._wait_and_collect(busy, state)
            results = state.results()
            completed = True
            return results
        finally:
            if keep and completed:
                # Retain only healthy, idle workers; anything busy, doomed
                # or dead is retired so the next call starts from a clean
                # warm pool.
                now = time.monotonic()
                for worker in list(workers):
                    if worker.task is not None or worker.doomed or not worker.alive():
                        workers.remove(worker)
                        worker.shutdown(kill=True)
                    else:
                        worker.idle_since = now
            else:
                self.close()

    # -- scheduler pieces --------------------------------------------------------------
    def _reap_and_respawn(
        self,
        workers: List[_PoolWorker],
        context,
        n_workers: int,
        state: _BatchState,
        spawn_state: Dict[str, int],
        respawn_budget: int,
    ) -> None:
        """Remove dead workers (failing their jobs) and top the pool back up."""
        for worker in list(workers):
            if worker.doomed:
                # Terminated for a timeout: its signal may not have landed
                # yet, and dispatching to a dying worker would turn the next
                # attempt into a spurious WorkerCrashError.  Retire it now.
                workers.remove(worker)
                worker.shutdown(kill=True)
                continue
            if worker.alive():
                continue
            self._drain(worker, state)  # a finished result may still be buffered
            if worker.task is not None:
                self._crash(worker, state)
            workers.remove(worker)
            worker.shutdown(kill=True)
        batch_size = max(1, int(self.batch_size))
        outstanding = (
            -(-len(state.ready) // batch_size)  # chunks the ready queue will fill
            + len(state.retry_heap)
            + sum(1 for w in workers if w.task is not None)
        )
        want = min(n_workers, outstanding)
        while len(workers) < want:
            # Everything beyond the initial allotment (warm pool + first
            # cold spawns up to the target size) is a *replacement* — a
            # worker respawned after a crash, kill or timeout.
            replacements = max(
                0, spawn_state["initial"] + spawn_state["spawned"] + 1 - n_workers
            )
            if replacements > respawn_budget:
                raise ExecutorDegradedError(
                    f"process pool exceeded its respawn budget "
                    f"({respawn_budget} replacement workers after crashes/timeouts); "
                    f"giving up on the process backend"
                )
            workers.append(_PoolWorker(context))
            spawn_state["spawned"] += 1
            self._pool_counters["spawned"] += 1
            if replacements > 0:
                self._pool_counters["respawned"] += 1

    def _dispatch_ready(self, workers: List[_PoolWorker], state: _BatchState) -> None:
        batch_size = max(1, int(self.batch_size))
        for worker in workers:
            if worker.task is not None or worker.doomed or not state.ready:
                continue
            chunk, attempts = state.next_chunk(batch_size)
            payloads = self._chunk_payloads(state, chunk, attempts)
            self._pool_counters["task_id"] += 1
            if not worker.dispatch(self._pool_counters["task_id"], chunk, payloads):
                # The pipe broke before the chunk left: roll the attempts
                # back; the next reap pass retires this worker and respawns.
                for index in chunk:
                    state.unbegin(index)

    def _wait_and_collect(self, busy: List[_PoolWorker], state: _BatchState) -> None:
        from multiprocessing import connection

        timeout = state.seconds_until_next_retry()
        now = time.monotonic()
        for worker in busy:
            task = worker.task
            if task is not None and task.deadline is not None:
                until = max(0.0, task.deadline - now)
                timeout = until if timeout is None else min(timeout, until)
        handles = [w.conn for w in busy] + [w.process.sentinel for w in busy]
        connection.wait(handles, timeout=timeout)
        now = time.monotonic()
        for worker in busy:
            crashed = not self._drain(worker, state)
            task = worker.task
            if task is None:
                continue
            if crashed or not worker.alive():
                self._crash(worker, state)
            elif task.deadline is not None and now >= task.deadline:
                self._timeout(worker, state)

    def _drain(self, worker: _PoolWorker, state: _BatchState) -> bool:
        """Consume every buffered message; ``False`` when the pipe is dead."""
        try:
            while worker.conn.poll():
                message = worker.conn.recv()
                kind = message[0]
                task = worker.task
                if kind == "started":
                    _, task_id = message
                    if task is not None and task.task_id == task_id:
                        task.started_at = time.monotonic()
                        if state.policy.timeout_s is not None:
                            # The budget covers the whole chunk: scale it by
                            # the number of jobs sharing the round-trip.
                            task.deadline = task.started_at + (
                                state.policy.timeout_s * len(task.indexes)
                            )
                    continue
                _, task_id, ok, payload = message
                if task is None or task.task_id != task_id:
                    continue  # stale reply from a pre-timeout attempt
                elapsed = time.monotonic() - (task.started_at or task.sent_at)
                worker.task = None
                worker.idle_since = time.monotonic()
                if ok:
                    for index, outcome in zip(task.indexes, payload):
                        state.apply_outcome(index, outcome, elapsed_s=elapsed)
                else:
                    for index in task.indexes:
                        state.fail(
                            index,
                            error=str(payload["error"]),
                            exc_type=str(payload.get("exc_type", "")),
                            tb=str(payload.get("traceback", "")),
                            elapsed_s=elapsed,
                        )
        except (EOFError, OSError):
            return False
        return True

    def _crash(self, worker: _PoolWorker, state: _BatchState) -> None:
        """A worker died with a chunk in flight: reschedule its jobs."""
        task = worker.task
        assert task is not None
        worker.task = None
        exitcode = worker.process.exitcode
        elapsed = time.monotonic() - (task.started_at or task.sent_at)
        for index in task.indexes:
            state.fail(
                index,
                error=(
                    f"worker process died while running the job "
                    f"(exit code {exitcode})"
                ),
                exc_type="WorkerCrashError",
                elapsed_s=elapsed,
            )

    def _timeout(self, worker: _PoolWorker, state: _BatchState) -> None:
        """A chunk overran its wall-clock budget: kill its (hung) worker."""
        task = worker.task
        assert task is not None
        worker.task = None
        worker.doomed = True
        worker.process.terminate()
        elapsed = time.monotonic() - (task.started_at or task.sent_at)
        budget = state.policy.timeout_s * len(task.indexes)
        for index in task.indexes:
            state.fail(
                index,
                error=(
                    f"job exceeded its chunk's {budget:g}s wall-clock budget; "
                    f"worker killed"
                ),
                exc_type="JobTimeoutError",
                elapsed_s=elapsed,
            )


EXECUTORS.register(
    "serial",
    SerialExecutor,
    description="one job after another in this interpreter",
)
EXECUTORS.register(
    "process",
    ProcessExecutor,
    aliases=("processes", "multiprocessing"),
    description="crash-tolerant spawn process pool; recovers killed workers, "
    "enforces per-job timeouts",
)


class ExecutionError(RuntimeError):
    """Raised by :func:`run_jobs` when jobs failed and errors are fatal."""

    def __init__(self, failures: Sequence[JobFailure]) -> None:
        self.failures = list(failures)
        lines = [f"{len(self.failures)} job(s) failed:"]
        lines += [f"  - {failure}" for failure in self.failures]
        super().__init__("\n".join(lines))


@dataclass
class ExecutionReport:
    """Everything :func:`run_jobs` did: results, cache hits, failures, retries."""

    jobs: List[ExperimentJob]
    results: Dict[str, SchemeResult]
    computed_keys: List[str] = field(default_factory=list)
    cached_keys: List[str] = field(default_factory=list)
    failures: List[JobFailure] = field(default_factory=list)
    executor: str = "serial"
    wall_clock_s: float = 0.0
    #: total retry attempts scheduled beyond each job's first try
    retried: int = 0
    #: one ``{"from", "to", "error", "jobs"}`` record per backend downgrade
    fallbacks: List[Dict[str, Any]] = field(default_factory=list)
    #: always empty: results cross every boundary as plain dicts, so there
    #: are no serialization counters.  Kept only because the benchmark's
    #: traced sweep reader (``perfbench/layers.py``) reads it; it goes when
    #: the in-process counter ledger (ROADMAP) replaces that reader.
    wire: Dict[str, float] = field(default_factory=dict)

    @property
    def computed(self) -> int:
        """Number of jobs actually executed this run."""
        return len(self.computed_keys)

    @property
    def cached(self) -> int:
        """Number of jobs satisfied from the result store."""
        return len(self.cached_keys)

    def result_for(self, job: ExperimentJob) -> SchemeResult:
        """The result of ``job`` (raises ``KeyError`` if it failed)."""
        return self.results[job.key]

    def summary(self) -> Dict[str, Any]:
        """Machine-readable run summary (printed by ``repro sweep --json``)."""
        return {
            "executor": self.executor,
            "jobs": len(self.jobs),
            "unique_jobs": len({job.key for job in self.jobs}),
            "computed": self.computed,
            "cached": self.cached,
            "failed": len(self.failures),
            "retried": self.retried,
            "fallbacks": len(self.fallbacks),
            "wall_clock_s": self.wall_clock_s,
        }


def resolve_executor(
    executor: Union[str, Executor],
    max_workers: Optional[int] = None,
    batch_size: Optional[int] = None,
    pool: Optional[str] = None,
) -> Executor:
    """An :class:`Executor` instance from a registry key (or pass through).

    ``"<wrapper>:<inner>"`` keys resolve the wrapper entry and pass the
    inner key through (``"chaos:process"`` builds a
    :class:`~repro.exec.chaos.ChaosExecutor` around the process backend).
    A passed-in instance is treated as read-only: a ``max_workers``,
    ``batch_size`` or ``pool`` override applies to a shallow copy,
    never to the caller's object.  (A copy shares the original's warm pool —
    pool state is mutated in place, see :class:`ProcessExecutor` — so
    overriding, say, ``batch_size`` between calls does not cost the warm
    workers.)

    ``pool`` selects the worker-pool lifecycle (``"fresh"``/``"keep"``); it
    is an advisory attribute set that backends without pools simply ignore.
    """
    if max_workers is not None and max_workers < 1:
        raise ValueError("max_workers must be >= 1")
    if batch_size is not None and batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if pool is not None and pool not in POOL_MODES:
        raise ValueError(f"pool must be one of {POOL_MODES}, got {pool!r}")
    if isinstance(executor, Executor):
        overrides: Dict[str, Any] = {}
        if max_workers is not None and max_workers != executor.max_workers:
            overrides["max_workers"] = max_workers
        if batch_size is not None and batch_size != executor.batch_size:
            overrides["batch_size"] = batch_size
        if pool is not None and pool != executor.pool:
            overrides["pool"] = pool
        if overrides:
            executor = copy.copy(executor)
            for name, value in overrides.items():
                setattr(executor, name, value)
        return executor
    key = str(executor)
    if ":" in key:
        wrapper, _, inner = key.partition(":")
        entry = EXECUTORS.get(wrapper)
        try:
            built = entry.builder(inner=inner, max_workers=max_workers)
        except TypeError as exc:
            raise RegistryError(
                f"executor {entry.name!r} does not wrap an inner backend, so "
                f"{key!r} is invalid ({exc})"
            ) from exc
    else:
        built = EXECUTORS.build(key, max_workers=max_workers)
    if not isinstance(built, Executor):
        raise RegistryError(
            f"executor {executor!r} built {type(built).__name__}, "
            "expected an Executor subclass"
        )
    if batch_size is not None:
        built.batch_size = batch_size
    if pool is not None:
        built.pool = pool
    return built


def run_jobs(
    jobs: Sequence[ExperimentJob],
    executor: Union[str, Executor] = "serial",
    max_workers: Optional[int] = None,
    store: Optional[Union[str, ResultStore]] = None,
    progress: Optional[ProgressCallback] = None,
    raise_on_error: bool = True,
    policy: Optional[RetryPolicy] = None,
    fallback: bool = True,
    store_fsync: Optional[bool] = None,
    batch_size: Optional[int] = None,
    pool: Optional[str] = None,
) -> ExecutionReport:
    """Run a job list on a backend, with caching, retries and degradation.

    Parameters
    ----------
    jobs:
        The planned jobs (see :mod:`repro.exec.planner`).  Jobs sharing a
        content key are computed once.
    executor:
        Registry key (``serial``, ``process``, ``cluster``,
        ``chaos:<inner>``) or an :class:`Executor` instance.
    max_workers:
        Worker count for pooled backends.
    store:
        A :class:`~repro.exec.store.ResultStore` (or its path).  Jobs whose
        key is already present are *not* re-run; newly computed results are
        appended as they finish (incremental checkpointing), so an
        interrupted run resumes with zero recomputation.
    progress:
        Optional ``(event, job, detail)`` callback.
    raise_on_error:
        Raise :class:`ExecutionError` after the run if any job failed
        (results of successful jobs are still stored first).
    policy:
        A :class:`~repro.exec.retry.RetryPolicy` governing per-job retries
        with deterministic backoff and the per-job timeout.  ``None``: one
        attempt, no timeout (the historical behaviour).
    fallback:
        When the backend fails at the *batch* level (cannot spawn workers,
        pool degraded beyond its respawn budget, an unexpected scheduler
        error), degrade along ``process → serial`` and re-run only
        the jobs without a finished outcome.  Each downgrade is recorded in
        ``report.fallbacks`` and emitted as a ``degraded`` progress event.
        With ``fallback=False`` the backend's exception propagates.
    store_fsync:
        When ``store`` is given as a path, open it with
        ``fsync``-per-append durability (see
        :meth:`~repro.exec.store.ResultStore.put`).  Ignored for
        already-constructed stores (configure those directly).
    batch_size:
        Ship N jobs per dispatch round-trip on chunked backends (process
        submissions, cluster HTTP requests) to amortise per-job
        spawn, pickle and network overhead.  Jobs keep per-job outcomes and
        retries; results are unchanged.  Default (``None``): the backend's
        own setting (1 unless configured otherwise).
    pool:
        Worker-pool lifecycle of pooled backends: ``"keep"`` retains idle
        workers on the executor instance across calls (warm pool — pass an
        executor *instance* to benefit across ``run_jobs`` calls),
        ``"fresh"`` tears them down per call.  Default (``None``): the
        backend's own setting.
    """
    jobs = list(jobs)
    backend = resolve_executor(
        executor,
        max_workers=max_workers,
        batch_size=batch_size,
        pool=pool,
    )
    if isinstance(store, (str, os.PathLike)):
        result_store: Optional[ResultStore] = ResultStore(
            store, fsync=bool(store_fsync)
        )
    else:
        result_store = store

    if (
        policy is not None
        and policy.timeout_s is not None
        and not backend.supports_timeout
    ):
        warnings.warn(
            f"executor {backend.name!r} cannot preempt running jobs; "
            f"timeout_s={policy.timeout_s:g} will not be enforced "
            f"(use the process backend for hard timeouts)",
            stacklevel=2,
        )

    report = ExecutionReport(jobs=jobs, results={}, executor=backend.name)
    started = time.perf_counter()

    # Partition into cached and to-compute, deduplicating by content key.
    to_run: List[ExperimentJob] = []
    seen: set = set()
    for job in jobs:
        key = job.key
        if key in seen:
            continue
        cached = result_store.get(key) if result_store is not None else None
        if cached is not None:
            report.results[key] = cached
            report.cached_keys.append(key)
            Executor._emit(progress, "cached", job)
            seen.add(key)
            continue
        seen.add(key)
        to_run.append(job)

    retry_counts: Dict[str, int] = {}
    backend_cell = {"name": backend.name}

    def wrapped_progress(event: str, job: ExperimentJob, detail: Optional[str]) -> None:
        if event == "retry":
            retry_counts[job.key] = retry_counts.get(job.key, 0) + 1
            report.retried += 1
        if progress is not None:
            progress(event, job, detail)

    def record_outcome(
        job: ExperimentJob, outcome: JobOutcome, result: Optional[SchemeResult]
    ) -> None:
        # Invoked as each job finishes (completion order): results reach the
        # store immediately — the incremental checkpoint that lets an
        # interrupted batch keep everything it computed and a restarted run
        # resume from there with zero recomputation.
        if isinstance(outcome, JobFailure):
            report.failures.append(outcome)
            return
        key = job.key
        report.results[key] = result
        report.computed_keys.append(key)
        if result_store is not None:
            # The outcome dict *is* the canonical encoding (plus wall clock)
            # and ``result`` proved it hydrates, so hand the dict to the
            # store directly instead of re-encoding the hydrated result.
            result_store.put(
                job,
                outcome,
                meta={
                    "executor": backend_cell["name"],
                    "attempts": retry_counts.get(key, 0) + 1,
                },
            )

    current = backend
    remaining = to_run
    while remaining:
        try:
            current.execute(
                remaining,
                progress=wrapped_progress,
                on_outcome=record_outcome,
                policy=policy,
            )
            break
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:  # noqa: BLE001 - backend-level failure
            # Everything with a *successful* result was checkpointed via
            # on_outcome; re-run the rest (including jobs that finally
            # failed on the broken backend — their failures may well have
            # been the backend's fault).
            remaining = [job for job in remaining if job.key not in report.results]
            rerun_keys = {job.key for job in remaining}
            next_backend = current.fallback_backend() if fallback else None
            if next_backend is None or not remaining:
                if remaining:
                    raise
                break
            if current.batch_size != 1 and next_backend.batch_size == 1:
                # Degrading drops the backend, not the chunking request.
                next_backend.batch_size = current.batch_size
            report.failures = [
                f for f in report.failures if f.job.key not in rerun_keys
            ]
            report.fallbacks.append(
                {
                    "from": current.name,
                    "to": next_backend.name,
                    "error": repr(exc),
                    "jobs": len(remaining),
                }
            )
            Executor._emit(
                wrapped_progress,
                "degraded",
                remaining[0],
                f"backend {current.name!r} failed ({exc!r}); "
                f"falling back to {next_backend.name!r} for "
                f"{len(remaining)} unfinished job(s)",
            )
            current = next_backend
            backend_cell["name"] = current.name

    report.wall_clock_s = time.perf_counter() - started
    if report.failures and raise_on_error:
        raise ExecutionError(report.failures)
    return report

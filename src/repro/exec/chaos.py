"""Chaos injection: a wrapper executor that makes jobs fail on purpose.

``chaos:<inner>`` (e.g. ``chaos:process``) wraps any registered backend and
injects seeded faults — worker crashes, raised exceptions, delays, corrupt
result payloads — into the jobs it runs.  It exists to *exercise* the
fault-tolerance layer (retries, crash recovery, timeouts, fallback; see
:mod:`repro.exec.retry`) in tests and CI, where real crashes are too rare to
rely on.

Injection decisions are deterministic: whether (and how) attempt ``a`` of a
job is sabotaged is drawn from a generator seeded with
``derive_seed(config.seed, "chaos", job.key, str(a))`` — same config, same
jobs, same faults, on every machine.  By default faults hit only each job's
*first* attempt (``first_attempt_only=True``), so any policy with
``max_attempts >= 2`` is guaranteed to converge and the recovered run's
results are byte-identical to an undisturbed serial run — which is exactly
the contract the CI chaos smoke test asserts.

The chaos config travels to workers inside the job's *payload dict* under
the reserved ``"__chaos__"`` key — never in the job's tags — so it is
invisible to the content key, the result store, and anything else that
round-trips the job itself.  :func:`~repro.exec.executors.execute_job_payload`
pops the envelope worker-side and applies it there, which is what makes an
injected "crash" genuinely kill the worker *process* the job runs in.
"""

from __future__ import annotations

import copy
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Union

import numpy as np

from repro.exec.executors import Executor, resolve_executor
from repro.exec.job import ExperimentJob
from repro.registry import EXECUTORS, RegistryError
from repro.sim.random import derive_seed

#: Reserved payload key carrying the injection envelope across the worker
#: boundary.  Stripped (and applied) by ``execute_job_payload`` before the
#: job is hydrated, so it never reaches ``ExperimentJob.from_dict``.
CHAOS_PAYLOAD_KEY = "__chaos__"

#: Exit code of an injected worker crash (mirrors SIGKILL's 128 + 9, the
#: signature of an OOM-killed worker).
CHAOS_CRASH_EXIT_CODE = 137


class ChaosError(RuntimeError):
    """An injected (deliberate) job failure; classified as retryable."""


class ChaosCrashError(ChaosError):
    """An injected crash on a backend whose workers cannot be killed.

    Raised instead of ``os._exit`` when the inner backend runs jobs in the
    caller's own process (serial) — actually exiting there would
    take the whole run down rather than simulate a worker loss.
    """


@dataclass(frozen=True)
class ChaosConfig:
    """What fraction of job attempts get which fault.

    The four rates partition ``[0, 1)``: a uniform draw per ``(job, attempt)``
    lands in the ``crash`` band, then ``error``, ``delay``, ``corrupt``, or —
    past their sum — no injection.  Rates must therefore sum to at most 1.

    Attributes
    ----------
    crash_rate:
        Kill the worker process mid-job (``os._exit``) on process backends;
        raise :class:`ChaosCrashError` on in-process backends.
    error_rate:
        Raise :class:`ChaosError` from inside the job.
    delay_rate:
        Sleep ``delay_s`` before running the job (the job still succeeds —
        use with ``timeout_s`` to exercise hung-worker detection).
    corrupt_rate:
        Let the job succeed, then mangle its result payload so hydration
        fails (exercises ``CorruptResultError`` detection).
    delay_s:
        Length of an injected delay.
    first_attempt_only:
        Inject only on each job's first attempt.  Keeps every fault
        recoverable: with ``max_attempts >= 2`` the retry is undisturbed,
        so a chaos run converges to exactly the fault-free results.
    seed:
        Root of the injection derivation; independent of the jobs' seeds.
    """

    crash_rate: float = 0.25
    error_rate: float = 0.25
    delay_rate: float = 0.2
    corrupt_rate: float = 0.15
    delay_s: float = 0.05
    first_attempt_only: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("crash_rate", "error_rate", "delay_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        total = self.crash_rate + self.error_rate + self.delay_rate + self.corrupt_rate
        if total > 1.0 + 1e-9:
            raise ValueError(f"injection rates must sum to <= 1, got {total:g}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")
        object.__setattr__(self, "seed", int(self.seed))

    def injection_for(self, job_key: str, attempt: int) -> Optional[str]:
        """The fault injected into this attempt, if any.

        Pure function of ``(config, job_key, attempt)``: the uniform draw
        comes from ``derive_seed(seed, "chaos", job_key, str(attempt))``, so
        a chaos run is exactly reproducible.
        """
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        if self.first_attempt_only and attempt > 1:
            return None
        rng = np.random.default_rng(
            derive_seed(self.seed, "chaos", job_key, str(attempt))
        )
        u = float(rng.random())
        edge = 0.0
        for mode, rate in (
            ("crash", self.crash_rate),
            ("error", self.error_rate),
            ("delay", self.delay_rate),
            ("corrupt", self.corrupt_rate),
        ):
            edge += rate
            if u < edge:
                return mode
        return None

    def to_dict(self) -> Dict[str, Any]:
        """A plain JSON-safe dict; :meth:`from_dict` round-trips losslessly."""
        return {
            "crash_rate": float(self.crash_rate),
            "error_rate": float(self.error_rate),
            "delay_rate": float(self.delay_rate),
            "corrupt_rate": float(self.corrupt_rate),
            "delay_s": float(self.delay_s),
            "first_attempt_only": bool(self.first_attempt_only),
            "seed": int(self.seed),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ChaosConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        return cls(**dict(data))


#: Only injection on process workers may really exit the process; everything
#: in-process must raise instead (see :class:`ChaosCrashError`).
_CRASH_OK_BACKENDS = ("process",)


def apply_chaos_before(envelope: Mapping[str, Any]) -> None:
    """Apply a pre-run injection worker-side (delay, error, crash)."""
    mode = envelope.get("mode")
    if mode == "delay":
        time.sleep(float(envelope.get("delay_s", 0.0)))
    elif mode == "error":
        raise ChaosError("injected failure (chaos error mode)")
    elif mode == "crash":
        if envelope.get("crash_ok"):
            os._exit(CHAOS_CRASH_EXIT_CODE)
        raise ChaosCrashError(
            "injected crash (in-process backend: raising instead of exiting)"
        )


def apply_chaos_after(
    envelope: Mapping[str, Any], result: Dict[str, Any]
) -> Dict[str, Any]:
    """Apply a post-run injection worker-side (result corruption)."""
    if envelope.get("mode") != "corrupt":
        return result
    corrupted = dict(result)
    # Remove the one field SchemeResult.from_dict cannot survive without,
    # so the parent's hydration check trips and classifies the payload as
    # a (retryable) CorruptResultError.
    corrupted.pop("scheme", None)
    corrupted["__chaos_corrupted__"] = True
    return corrupted


class ChaosExecutor(Executor):
    """Wrap an inner backend and sabotage a seeded fraction of attempts.

    Registered as ``chaos``; resolved via the wrapper syntax
    ``chaos:<inner>`` (``resolve_executor("chaos:process")``).  Delegates
    all actual execution — and therefore all retry/timeout/recovery
    machinery — to the inner backend; its only contribution is attaching
    the injection envelope to each dispatched payload.
    """

    def __init__(
        self,
        inner: Union[str, Executor] = "serial",
        max_workers: Optional[int] = None,
        config: Optional[ChaosConfig] = None,
    ) -> None:
        super().__init__(max_workers)
        backend = resolve_executor(inner, max_workers=max_workers)
        if isinstance(backend, ChaosExecutor):
            raise RegistryError("chaos executors cannot wrap each other")
        self.inner = backend
        self.config = config or ChaosConfig()
        self.name = f"chaos:{backend.name}"

    @property
    def supports_timeout(self) -> bool:  # type: ignore[override]
        return self.inner.supports_timeout

    # The pool lifecycle belongs to the *inner* backend (the execute() copy
    # shares its in-place pool state), so the knob delegates:
    # resolve_executor("chaos:process", pool="keep") warms the real pool.
    @property
    def pool(self) -> str:  # type: ignore[override]
        return self.inner.pool

    @pool.setter
    def pool(self, value: str) -> None:
        self.inner.pool = value

    def close(self) -> None:
        self.inner.close()

    def stats(self):
        inner_stats = getattr(self.inner, "stats", None)
        return inner_stats() if callable(inner_stats) else {}

    def effective_workers(self, n_jobs: int) -> int:
        return self.inner.effective_workers(n_jobs)

    def fallback_backend(self) -> Optional[Executor]:
        # Degrading out of chaos means dropping the injection entirely: the
        # plain inner backend re-runs the unfinished jobs undisturbed.
        return copy.copy(self.inner)

    def _transform(self, payload: Dict[str, Any], attempt: int) -> Dict[str, Any]:
        job = ExperimentJob.from_dict(payload)
        mode = self.config.injection_for(job.key, attempt)
        if mode is None:
            return payload
        payload = dict(payload)
        payload[CHAOS_PAYLOAD_KEY] = {
            "mode": mode,
            "delay_s": self.config.delay_s,
            "crash_ok": self.inner.name in _CRASH_OK_BACKENDS,
        }
        return payload

    def execute(self, jobs, progress=None, on_outcome=None, policy=None):
        # Run on a shallow copy of the inner backend so attaching the
        # transform never mutates a caller-owned executor instance.
        runner = copy.copy(self.inner)
        runner.payload_transform = self._transform
        if self.batch_size != 1:
            runner.batch_size = self.batch_size
        return runner.execute(jobs, progress=progress, on_outcome=on_outcome, policy=policy)


EXECUTORS.register(
    "chaos",
    ChaosExecutor,
    description="wrapper injecting seeded crashes/errors/delays/corruption "
    "into an inner backend (use as chaos:<inner>, e.g. chaos:process)",
)


__all__ = [
    "CHAOS_CRASH_EXIT_CODE",
    "CHAOS_PAYLOAD_KEY",
    "ChaosConfig",
    "ChaosCrashError",
    "ChaosError",
    "ChaosExecutor",
    "apply_chaos_after",
    "apply_chaos_before",
]

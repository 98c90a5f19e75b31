"""Wire protocol of the cluster execution service.

Everything that crosses the network is JSON over plain HTTP/1.1, spoken with
nothing but the standard library (``urllib.request`` on the client side,
``http.server`` on the worker/coordinator side) — the service adds no
dependencies to the repo.

Endpoints (see :mod:`repro.service.worker` / :mod:`repro.service.coordinator`
for the servers):

``POST /jobs``
    Body ``{"jobs": [<ExperimentJob payload>, ...]}`` (a bare payload dict is
    accepted as a chunk of one).  The worker runs each payload through
    :func:`~repro.exec.executors.execute_job_payload`, appends successful
    canonical results to its write-once JSONL shard, and answers
    ``{"outcomes": [...]}`` with one
    :func:`~repro.exec.executors.execute_job_chunk`-style outcome per job,
    in order.  A successful outcome carries the plain
    :meth:`~repro.metrics.comparison.SchemeResult.to_dict` result.  Job
    failures travel *in-band* as ``{"ok": False, "error", "exc_type",
    "traceback"}`` outcomes — an HTTP error status always means the
    transport or the protocol broke, never that a job raised.

``GET /healthz``
    ``{"status": "ok", ...}`` — liveness probe used by discovery gating.

``GET /stats``
    Counters: jobs run/failed, chunks served, shard path and size.

``GET /shard``
    The worker's shard file, streamed verbatim as ``application/x-ndjson``
    for :meth:`~repro.exec.store.ResultStore.merge`.

``POST /shutdown``
    Acknowledge, then stop serving (used by tests and CI teardown).

Client-side failure mapping (:func:`http_json`) folds transport failures into
the executor layer's existing retry vocabulary, because exception *class
names* are what :class:`~repro.exec.retry.RetryPolicy` classifies:

* request/read timeout → :class:`~repro.exec.retry.JobTimeoutError`
* connection refused/reset/dropped → :class:`~repro.exec.retry.WorkerCrashError`
  (the worker process is gone, exactly like a killed pool worker)
* anything else (bad status, non-JSON body, malformed URL) →
  :class:`~repro.exec.retry.ClusterTransportError`

All three names are in :data:`~repro.exec.retry.DEFAULT_RETRYABLE`, so a
flaky exchange is retried with the same deterministic backoff as a local
crash.
"""

from __future__ import annotations

import http.client
import json
import socket
import urllib.error
import urllib.request
from typing import Any, Dict, Optional

from repro.exec.retry import ClusterTransportError, JobTimeoutError, WorkerCrashError

#: Paths served by the worker daemon.
JOBS_PATH = "/jobs"
HEALTH_PATH = "/healthz"
STATS_PATH = "/stats"
SHARD_PATH = "/shard"
SHUTDOWN_PATH = "/shutdown"
#: Additional paths served by the coordinator.
RESULTS_PATH = "/results"

#: Default socket timeout for control-plane calls (health checks, stats).
CONTROL_TIMEOUT_S = 5.0


def http_json(
    method: str,
    url: str,
    payload: Optional[Dict[str, Any]] = None,
    timeout_s: Optional[float] = None,
) -> Any:
    """One JSON-in/JSON-out HTTP exchange, with retry-vocabulary failures.

    ``timeout_s`` bounds the whole exchange via the socket timeout
    (``None``: wait indefinitely, mirroring a policy without ``timeout_s``).
    Raises :class:`JobTimeoutError` / :class:`WorkerCrashError` /
    :class:`ClusterTransportError` as documented in the module docstring;
    never returns a partially-parsed body.
    """
    body = (
        None
        if payload is None
        else json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )
    headers = {"Content-Type": "application/json"} if body is not None else {}
    request = urllib.request.Request(url, data=body, method=method, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=timeout_s) as response:
            raw = response.read()
    except urllib.error.HTTPError as exc:
        detail = ""
        try:
            detail = exc.read().decode("utf-8", "replace")[:200]
        except Exception:  # noqa: BLE001 - the status code is the real signal
            pass
        raise ClusterTransportError(
            f"{method} {url} answered HTTP {exc.code}: {detail or exc.reason}"
        ) from exc
    except urllib.error.URLError as exc:
        reason = exc.reason
        if isinstance(reason, (socket.timeout, TimeoutError)):
            raise JobTimeoutError(
                f"{method} {url} timed out after {timeout_s:g}s"
                if timeout_s is not None
                else f"{method} {url} timed out"
            ) from exc
        if isinstance(reason, ConnectionError):
            raise WorkerCrashError(f"{method} {url}: worker unreachable ({reason!r})") from exc
        raise ClusterTransportError(f"{method} {url} failed ({reason!r})") from exc
    except (socket.timeout, TimeoutError) as exc:
        raise JobTimeoutError(
            f"{method} {url} timed out after {timeout_s:g}s"
            if timeout_s is not None
            else f"{method} {url} timed out"
        ) from exc
    except ConnectionError as exc:
        # Includes http.client.RemoteDisconnected — the server vanished
        # mid-exchange, i.e. the worker process died under us.
        raise WorkerCrashError(f"{method} {url}: connection lost ({exc!r})") from exc
    except http.client.HTTPException as exc:
        raise ClusterTransportError(f"{method} {url}: malformed response ({exc!r})") from exc
    except (ValueError, OSError) as exc:
        raise ClusterTransportError(f"{method} {url} failed ({exc!r})") from exc
    try:
        return json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise ClusterTransportError(
            f"{method} {url} returned a non-JSON body ({exc})"
        ) from exc


def http_text(url: str, timeout_s: Optional[float] = CONTROL_TIMEOUT_S) -> str:
    """Fetch a raw text body (the ``GET /shard`` stream) with the same mapping."""
    try:
        with urllib.request.urlopen(url, timeout=timeout_s) as response:
            return response.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        raise ClusterTransportError(f"GET {url} answered HTTP {exc.code}") from exc
    except urllib.error.URLError as exc:
        reason = exc.reason
        if isinstance(reason, (socket.timeout, TimeoutError)):
            raise JobTimeoutError(f"GET {url} timed out") from exc
        if isinstance(reason, ConnectionError):
            raise WorkerCrashError(f"GET {url}: worker unreachable ({reason!r})") from exc
        raise ClusterTransportError(f"GET {url} failed ({reason!r})") from exc
    except (socket.timeout, TimeoutError) as exc:
        raise JobTimeoutError(f"GET {url} timed out") from exc
    except ConnectionError as exc:
        raise WorkerCrashError(f"GET {url}: connection lost ({exc!r})") from exc
    except (http.client.HTTPException, ValueError, OSError) as exc:
        raise ClusterTransportError(f"GET {url} failed ({exc!r})") from exc


__all__ = [
    "CONTROL_TIMEOUT_S",
    "HEALTH_PATH",
    "JOBS_PATH",
    "RESULTS_PATH",
    "SHARD_PATH",
    "SHUTDOWN_PATH",
    "STATS_PATH",
    "http_json",
    "http_text",
]

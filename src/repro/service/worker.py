"""The cluster worker daemon: one HTTP process, one write-once result shard.

``repro worker --port P --shard-dir D`` runs one of these per host (or
several per host on distinct ports).  The design follows the PYME cluster
filesystem pattern: every node owns a local shard it alone appends to, writes
are atomic single-``write()`` line appends, and the global view is the
*union* of shards computed at merge time — no cluster-wide locking, no
coordinator in the data path.

The daemon is deliberately thin: ``POST /jobs`` feeds payloads through the
same :func:`~repro.exec.executors.execute_job_chunk` funnel every other
backend uses, so a job computes identical bytes whether it ran serially,
in a pool worker, or here.  Successful canonical results are appended to the
shard *before* the response goes out — once a client has seen an outcome,
the result is durable on the worker, and a retried/duplicated job dedups to
a free re-put (identical result) while a *conflicting* re-put surfaces as a
non-retryable ``ResultStoreError`` outcome, making cross-host nondeterminism
an error instead of a silent last-write-wins.

Chaos envelopes (``__chaos__``, attached by ``chaos:cluster``) are
interpreted inside :func:`execute_job_payload` as usual; injected crashes
surface as retryable ``ChaosCrashError`` outcomes rather than killing the
daemon (the cluster backend is not in ``_CRASH_OK_BACKENDS`` — a shared
daemon must survive a poisoned job).  Corrupt-mode results fail result
hydration here and are returned *without* touching the shard, so injected
corruption can never poison the write-once data.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.exec.executors import execute_job_chunk
from repro.exec.job import ExperimentJob
from repro.exec.store import ResultStore, ResultStoreError
from repro.metrics.comparison import SchemeResult
from repro.service import protocol


def shard_filename(host: str, port: int) -> str:
    """The shard file name of the worker bound to ``host:port``.

    Deterministic per endpoint so a restarted worker resumes appending to
    (and conflict-checking against) its own previous shard.
    """
    return f"shard-{host.replace(':', '_')}-{port}.jsonl"


class HTTPDaemon:
    """Shared serve/start/stop lifecycle of the worker and coordinator daemons.

    Subclasses provide ``self.httpd`` (an ``http.server`` instance); the
    mixin adds blocking ``serve_forever``, background ``start``/``stop`` for
    in-process daemons (tests, benchmarks), and context-manager sugar.
    """

    httpd: ThreadingHTTPServer
    _thread: Optional[threading.Thread] = None

    def serve_forever(self) -> None:
        """Serve until :meth:`stop` (or ``POST /shutdown``); blocks."""
        try:
            self.httpd.serve_forever(poll_interval=0.1)
        finally:
            self.httpd.server_close()

    def start(self) -> "HTTPDaemon":
        """Serve on a daemon thread (in-process daemons for tests/benchmarks)."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and join the background thread, if any."""
        self.httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "HTTPDaemon":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


class _WorkerHTTPServer(ThreadingHTTPServer):
    """The socket server; carries a back-reference to its :class:`WorkerServer`."""

    daemon_threads = True
    worker: "WorkerServer"


class _WorkerHandler(BaseHTTPRequestHandler):
    """Request handler; all state lives on ``self.server.worker``."""

    server: _WorkerHTTPServer
    protocol_version = "HTTP/1.1"

    @property
    def worker(self) -> "WorkerServer":
        return self.server.worker

    # -- plumbing ----------------------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.worker.verbose:
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ValueError("empty request body")
        return json.loads(raw.decode("utf-8"))

    # -- routes ------------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == protocol.HEALTH_PATH:
            self._send_json(200, {"status": "ok", **self.worker.identity()})
        elif self.path == protocol.STATS_PATH:
            self._send_json(200, self.worker.stats())
        elif self.path == protocol.SHARD_PATH:
            body = self.worker.shard_bytes()
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path == protocol.JOBS_PATH:
            try:
                request = self._read_json()
            except ValueError as exc:
                self._send_json(400, {"error": f"bad request body: {exc}"})
                return
            try:
                payloads = self.worker.coerce_payloads(request)
            except ValueError as exc:
                self._send_json(400, {"error": str(exc)})
                return
            self._send_json(200, {"outcomes": self.worker.run_chunk(payloads)})
        elif self.path == protocol.SHUTDOWN_PATH:
            self._send_json(200, {"status": "stopping", **self.worker.identity()})
            # shutdown() blocks until serve_forever returns, so it must not
            # run on a handler thread that serve_forever is waiting on.
            threading.Thread(target=self.server.shutdown, daemon=True).start()
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})


class WorkerServer(HTTPDaemon):
    """One worker daemon: a threading HTTP server plus its local shard store.

    Parameters
    ----------
    host / port:
        Bind address.  ``port=0`` binds an ephemeral port (tests); the
        chosen port is available as :attr:`port` afterwards.
    shard_dir:
        Directory holding this worker's write-once JSONL shard (created on
        first result).  The file name is deterministic per endpoint, see
        :func:`shard_filename`.
    fsync:
        Per-append durability of the shard store (off by default, like
        :class:`~repro.exec.store.ResultStore`).
    verbose:
        Log one line per request to stderr (the CLI's ``--verbose``).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        shard_dir: Union[str, Path] = ".",
        fsync: bool = False,
        verbose: bool = False,
    ) -> None:
        self.httpd = _WorkerHTTPServer((host, port), _WorkerHandler)
        self.httpd.worker = self
        self.host = host
        self.port = int(self.httpd.server_address[1])
        self.shard_dir = Path(shard_dir)
        self.shard_path = self.shard_dir / shard_filename(self.host, self.port)
        self.store = ResultStore(self.shard_path, fsync=fsync)
        self.verbose = bool(verbose)
        self._store_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._counters: Dict[str, int] = {
            "chunks": 0,
            "jobs_ok": 0,
            "jobs_failed": 0,
            "shard_conflicts": 0,
        }
        self._thread: Optional[threading.Thread] = None

    # -- request logic -----------------------------------------------------------------
    def identity(self) -> Dict[str, Any]:
        return {
            "worker": f"{self.host}:{self.port}",
            "shard": str(self.shard_path),
        }

    def stats(self) -> Dict[str, Any]:
        with self._stats_lock:
            counters = dict(self._counters)
        with self._store_lock:
            shard_entries = len(self.store)
        return {**self.identity(), **counters, "shard_entries": shard_entries}

    def shard_bytes(self) -> bytes:
        with self._store_lock:
            if not self.shard_path.exists():
                return b""
            return self.shard_path.read_bytes()

    @staticmethod
    def coerce_payloads(request: Any) -> List[Dict[str, Any]]:
        """Normalise a ``POST /jobs`` body to a list of job payload dicts."""
        if isinstance(request, dict) and "jobs" in request:
            payloads = request["jobs"]
        elif isinstance(request, dict):
            payloads = [request]
        else:
            payloads = request
        if not isinstance(payloads, list) or not all(
            isinstance(p, dict) for p in payloads
        ):
            raise ValueError('body must be a job payload or {"jobs": [payload, ...]}')
        if not payloads:
            raise ValueError("empty job chunk")
        return payloads

    def run_chunk(self, payloads: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Run one chunk and persist successful results to the shard."""
        outcomes = [
            self._persist(payload, outcome)
            for payload, outcome in zip(payloads, execute_job_chunk(payloads))
        ]
        ok = sum(1 for outcome in outcomes if outcome.get("ok"))
        with self._stats_lock:
            self._counters["chunks"] += 1
            self._counters["jobs_ok"] += ok
            self._counters["jobs_failed"] += len(outcomes) - ok
        return outcomes

    def _persist(
        self, payload: Dict[str, Any], outcome: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Append one successful outcome to the shard; returns the outcome.

        Results that do not hydrate (chaos corruption) pass through
        *without* touching the shard — the client converts them to
        retryable ``CorruptResultError`` failures.  A conflicting re-put
        (same content key, different result) converts the outcome into a
        non-retryable ``ResultStoreError`` failure: two hosts computing
        different numbers for one job is a bug, not a transient.
        """
        if not outcome.get("ok"):
            return outcome
        try:
            job = ExperimentJob.from_dict(payload)
            SchemeResult.from_dict(outcome["result"])  # hydration gate only
        except Exception:  # noqa: BLE001 - corrupt payloads never reach the shard
            return outcome
        try:
            with self._store_lock:
                # The outcome dict just proved it hydrates; store it as-is
                # instead of re-encoding the hydrated object (see
                # ResultStore.put's pre-encoded path).
                self.store.put(
                    job,
                    outcome["result"],
                    meta={"executor": "worker", **self.identity()},
                )
        except ResultStoreError as exc:
            with self._stats_lock:
                self._counters["shard_conflicts"] += 1
            return {
                "ok": False,
                "error": str(exc),
                "exc_type": "ResultStoreError",
                "traceback": "",
            }
        return outcome

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)


__all__ = ["HTTPDaemon", "WorkerServer", "shard_filename"]

"""The ``repro serve`` coordinator: job submission + store queries over HTTP.

A minimal always-on front end for the execution layer: clients POST job
payloads, the coordinator runs them through
:func:`~repro.exec.executors.run_jobs` (with its configured backend — serial
by default, ``cluster`` when worker hosts are configured) against a single
persistent :class:`~repro.exec.store.ResultStore`, and the store's query API
is exposed read-only over HTTP.  Content-addressed keys make the submission
API idempotent for free: re-POSTing a job that is already stored is a cache
hit, not a recompute.

Endpoints:

``POST /jobs``
    Body ``{"jobs": [<ExperimentJob payload>, ...], "policy": {...}?}``.
    Runs the jobs (cache hits skipped) and answers the
    :meth:`~repro.exec.executors.ExecutionReport.summary` dict plus per-job
    ``{"key", "ok", "error"?}`` statuses.  Submissions are serialised by a
    lock — one batch at a time keeps the store's append path single-writer.

``GET /results``
    Query parameters ``scheme`` and ``ensemble`` filter the store; answers
    ``{"entries": [{"key", "ensemble", "replicate", "scheme", "result"}]}``.

``GET /results/<key>``
    One raw stored line (job + result + meta), 404 when absent.

``GET /healthz`` / ``GET /stats``
    Liveness and counters, mirroring the worker daemon.
"""

from __future__ import annotations

import json
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.exec.executors import resolve_executor, run_jobs
from repro.exec.job import ExperimentJob
from repro.exec.retry import RetryPolicy
from repro.exec.store import ResultStore
from repro.service import protocol
from repro.service.worker import HTTPDaemon


class _CoordinatorHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    coordinator: "CoordinatorServer"


class _CoordinatorHandler(BaseHTTPRequestHandler):
    server: _CoordinatorHTTPServer
    protocol_version = "HTTP/1.1"

    @property
    def coordinator(self) -> "CoordinatorServer":
        return self.server.coordinator

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.coordinator.verbose:
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urllib.parse.urlparse(self.path)
        if parsed.path == protocol.HEALTH_PATH:
            self._send_json(200, {"status": "ok", **self.coordinator.identity()})
        elif parsed.path == protocol.STATS_PATH:
            self._send_json(200, self.coordinator.stats())
        elif parsed.path == protocol.RESULTS_PATH:
            query = urllib.parse.parse_qs(parsed.query)
            entries = self.coordinator.query_entries(
                scheme=(query.get("scheme") or [None])[0],
                ensemble=(query.get("ensemble") or [None])[0],
            )
            self._send_json(200, {"entries": entries})
        elif parsed.path.startswith(protocol.RESULTS_PATH + "/"):
            key = parsed.path[len(protocol.RESULTS_PATH) + 1 :]
            entry = self.coordinator.entry(key)
            if entry is None:
                self._send_json(404, {"error": f"no stored result for key {key!r}"})
            else:
                self._send_json(200, entry)
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path == protocol.JOBS_PATH:
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length else b""
            try:
                request = json.loads(raw.decode("utf-8")) if raw else None
                if not isinstance(request, dict):
                    raise ValueError("body must be a JSON object")
            except ValueError as exc:
                self._send_json(400, {"error": f"bad request body: {exc}"})
                return
            try:
                answer = self.coordinator.submit(request)
            except ValueError as exc:
                self._send_json(400, {"error": str(exc)})
                return
            self._send_json(200, answer)
        elif self.path == protocol.SHUTDOWN_PATH:
            self._send_json(200, {"status": "stopping", **self.coordinator.identity()})
            threading.Thread(target=self.server.shutdown, daemon=True).start()
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})


class CoordinatorServer(HTTPDaemon):
    """The serve-mode daemon: one store, one backend, an HTTP front end.

    Parameters
    ----------
    store_path:
        The persistent :class:`ResultStore` all submissions land in.
    executor:
        Registry key for the backend submissions run on (``serial``,
        ``process``, ``cluster``, ``chaos:...``).
    max_workers / batch_size:
        Forwarded to :func:`~repro.exec.executors.run_jobs`.
    pool:
        Worker-pool lifecycle of the backend.  An always-on daemon is
        exactly where warm pools pay off — every submitted batch reuses the
        same workers — so the default here is ``"keep"`` (unlike the
        library default of ``"fresh"``); the retained workers are shut down
        by :meth:`stop`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        store_path: Union[str, Path] = "results.jsonl",
        executor: str = "serial",
        max_workers: Optional[int] = None,
        batch_size: Optional[int] = None,
        verbose: bool = False,
        pool: str = "keep",
    ) -> None:
        self.httpd = _CoordinatorHTTPServer((host, port), _CoordinatorHandler)
        self.httpd.coordinator = self
        self.host = host
        self.port = int(self.httpd.server_address[1])
        self.store = ResultStore(store_path)
        self.executor = executor
        self.max_workers = max_workers
        self.batch_size = batch_size
        self.verbose = bool(verbose)
        # One executor instance for the daemon's lifetime: with pool="keep"
        # the process backend's workers stay warm across POST /jobs batches
        # instead of respawning (and re-importing the simulator) per batch.
        self.backend = resolve_executor(
            executor, max_workers=max_workers, batch_size=batch_size, pool=pool
        )
        self._submit_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._counters = {"batches": 0, "computed": 0, "cached": 0, "failed": 0}
        self._thread: Optional[threading.Thread] = None

    def stop(self) -> None:
        """Stop serving and release the backend's warm workers."""
        super().stop()
        self.backend.close()

    # -- request logic -----------------------------------------------------------------
    def identity(self) -> Dict[str, Any]:
        return {
            "coordinator": f"{self.host}:{self.port}",
            "store": str(self.store.path),
            "executor": self.executor,
        }

    def stats(self) -> Dict[str, Any]:
        with self._stats_lock:
            counters = dict(self._counters)
        pool_stats = getattr(self.backend, "stats", None)
        return {
            **self.identity(),
            **counters,
            "store_entries": len(self.store),
            "kernel": self._kernel_stats(),
            # The warm-pool lifetime counters, when the backend has a pool.
            "pool": pool_stats() if callable(pool_stats) else {},
        }

    def _kernel_stats(self) -> Dict[str, float]:
        """Sum the per-run ``kernel_*`` perf extras across all stored results.

        Gives the daemon's ``/stats`` endpoint a fleet-wide view of solver
        behaviour — incremental vs full solve counts, dirty-region sizes,
        churn coalescing — so a slow batch can be diagnosed remotely without
        pulling every result payload.
        """
        totals: Dict[str, float] = {}
        with self._submit_lock:
            entries = self.store.query()
        for entry in entries:
            for key, value in entry.result.extras.items():
                if not key.startswith("kernel_") or not isinstance(value, (int, float)):
                    continue
                if key.endswith("_max"):
                    totals[key] = max(totals.get(key, 0.0), float(value))
                else:
                    totals[key] = totals.get(key, 0.0) + float(value)
        return totals

    def submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Run one submitted batch; returns the report summary + job statuses."""
        payloads = request.get("jobs")
        if not isinstance(payloads, list) or not payloads:
            raise ValueError('body must carry a non-empty "jobs" list')
        jobs = []
        for position, payload in enumerate(payloads):
            try:
                jobs.append(ExperimentJob.from_dict(payload))
            except Exception as exc:  # noqa: BLE001 - reported as a 400
                # A payload that does not even hydrate (unknown registry
                # key, malformed spec) is a client error, not a job failure:
                # job failures presume a job that could run.
                raise ValueError(f"jobs[{position}] does not hydrate: {exc}") from exc
        policy = None
        if request.get("policy") is not None:
            try:
                policy = RetryPolicy.from_dict(request["policy"])
            except Exception as exc:  # noqa: BLE001 - reported as a 400
                raise ValueError(f"bad retry policy: {exc}") from exc
        with self._submit_lock:
            report = run_jobs(
                jobs,
                executor=self.backend,
                store=self.store,
                policy=policy,
                raise_on_error=False,
            )
        failed = {failure.job.key: str(failure) for failure in report.failures}
        statuses: List[Dict[str, Any]] = []
        for job in jobs:
            status: Dict[str, Any] = {"key": job.key, "ok": job.key not in failed}
            if job.key in failed:
                status["error"] = failed[job.key]
            statuses.append(status)
        with self._stats_lock:
            self._counters["batches"] += 1
            self._counters["computed"] += report.computed
            self._counters["cached"] += report.cached
            self._counters["failed"] += len(report.failures)
        return {"summary": report.summary(), "jobs": statuses}

    def query_entries(
        self, scheme: Optional[str] = None, ensemble: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        with self._submit_lock:
            selected = self.store.query(scheme=scheme, ensemble=ensemble)
        return [
            {
                "key": entry.key,
                "ensemble": entry.ensemble,
                "replicate": entry.replicate,
                "scheme": entry.scheme_name,
                "result": entry.result.canonical_dict(),
            }
            for entry in selected
        ]

    def entry(self, key: str) -> Optional[Dict[str, Any]]:
        with self._submit_lock:
            return self.store.entry(key)

__all__ = ["CoordinatorServer"]

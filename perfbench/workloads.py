"""The benchmark's workloads: inputs from a seed, timed operations, digests.

A workload builds its inputs and stacks in :meth:`setup` (not timed), then
runs numbered operations.  An operation is one scheme run, one churn window
or one sweep batch.  Operation ``i`` is a pure function of the run seed and
``i``, so two commits run identical work and their digests can be compared.

Every operation returns an :class:`Op`: the simulated seconds it covered,
the wall time of its timed part, a digest of its simulated statistics, and
the per-layer counters the program already exposes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

#: Sessions one aggregate flow of ``fattree-churn`` stands for.
AGGREGATE_MULTIPLICITY = 500


@dataclass
class Op:
    """What one timed operation did."""

    index: int
    sim_s: float
    wall_s: float
    digest: str
    #: layer counters of this operation (events, recomputes, solves, ...)
    counts: Dict[str, float] = field(default_factory=dict)
    #: an invariant the operation broke, or "" when it held
    error: str = ""
    #: run with the tracing wrappers installed
    traced: bool = False
    #: ``wall_s`` rescaled to the reference CPU speed (see ``speed.py``)
    ref_wall_s: float = 0.0


def op_seed(seed: int, index: int) -> int:
    """Input seed of operation ``index`` of a run with ``seed`` (any integer)."""
    return (seed % 2**32) * 1000 + index


def digest_of(payload: Any) -> str:
    """Short stable digest of a JSON-able payload (floats keep every bit)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _result_counts(result) -> Dict[str, float]:
    """Layer counters a :class:`SchemeResult` carries back from its run."""
    extras = result.extras
    return {
        "network.fabric.peak_active_flows": float(_peak_concurrency(result.records)),
        "metrics.records": float(len(result.records)),
        "sim.events": extras.get("events_processed", 0.0),
        "sim.heap_compactions": extras.get("kernel_heap_compactions", 0.0),
        "network.fabric.recomputes": extras.get("kernel_recomputes", 0.0),
        "network.fabric.recomputes_coalesced": extras.get("kernel_recomputes_coalesced", 0.0),
        "network.fluid.solves_incremental": extras.get("kernel_solves_incremental", 0.0),
        "network.fluid.solves_full": extras.get("kernel_solves_full", 0.0),
        "network.fluid.fallback_large_region": extras.get("kernel_fallback_large_region", 0.0),
        "network.fluid.dirty_rows_max": extras.get("kernel_dirty_rows_max", 0.0),
    }


def _peak_concurrency(records) -> int:
    """Most flows in flight at once, from (start, finish) of every record."""
    edges = []
    for record in records:
        edges.append((record.started_at_s, 1))
        edges.append((record.finished_at_s, -1))
    edges.sort(key=lambda edge: (edge[0], edge[1]))
    live = peak = 0
    for _, step in edges:
        live += step
        peak = max(peak, live)
    return peak


def _record_error(result, horizon_s: float) -> str:
    """A broken invariant of a scheme run's records, or ""."""
    issued = result.extras["requests_issued"]
    if not 0 < result.extras["requests_completed"] <= issued:
        return f"{result.extras['requests_completed']:.0f} of {issued:.0f} requests completed"
    for record in result.records:
        if not (record.created_at_s <= record.started_at_s <= record.finished_at_s <= horizon_s
                and record.size_bytes > 0):
            return f"flow {record.flow_id} has an impossible record"
    return ""


# -- paper-pareto-* ----------------------------------------------------------------------


class ParetoRun:
    """One scheme on the paper's Pareto/Poisson traffic (Section X-B).

    Each operation runs the scheme from an empty fabric on its own trace:
    the first ``requests`` arrivals of a 200 flows/s, 500 KB mean, shape-1.6
    trace on the paper's 3-tier tree.  A fixed request count, not a fixed
    arrival window, keeps the offered work per operation the same across
    seeds; the Poisson count alone otherwise moves wall time by 30%.
    """

    ARRIVAL_RATE_PER_S = 200.0
    CONSECUTIVE_OPS = False

    def __init__(self, scheme: str, seed: int, requests: int) -> None:
        self.scheme = scheme
        self.seed = seed
        self.requests = requests
        self.inputs: Dict[int, Any] = {}

    def trace(self, index: int):
        """(spec, workload) of operation ``index``, generated on first use."""
        if index not in self.inputs:
            from repro.experiments.spec import ScenarioSpec
            from repro.workloads.traces import Workload

            # 1.5x the nominal window so the count is reached on any seed.
            spec = ScenarioSpec.pareto_poisson(
                sim_time_s=1.5 * self.requests / self.ARRIVAL_RATE_PER_S,
                seed=op_seed(self.seed, index),
                arrival_rate_per_s=self.ARRIVAL_RATE_PER_S,
            )
            generated = spec.build_workload()
            if len(generated) < self.requests:
                raise RuntimeError(
                    f"trace {index} has {len(generated)} < {self.requests} requests"
                )
            self.inputs[index] = (
                spec,
                Workload(generated.requests[: self.requests], name=generated.name),
            )
        return self.inputs[index]

    def setup(self, n_ops: int) -> None:
        from repro.experiments import runner

        for index in range(n_ops):
            self.trace(index)
        spec, _ = self.trace(0)
        runner.build_stack(spec, self.scheme)

    def run_op(self, index: int) -> Op:
        from repro.experiments import runner

        spec, workload = self.trace(index)
        result = runner.run_scheme(spec, self.scheme, workload)
        error = _record_error(result, spec.total_time_s)
        counts = _result_counts(result)
        counts["workloads.requests"] = float(len(workload))
        return Op(
            index=index,
            sim_s=spec.total_time_s,
            wall_s=result.wall_clock_s,
            digest=digest_of(result.canonical_dict()),
            counts=counts,
            error=error,
        )

    def close(self) -> None:
        pass


# -- fattree-churn -----------------------------------------------------------------------


class FattreeChurn:
    """Sparse churn of short flows over a steady population on the k=32 fat tree.

    Setup admits :attr:`OBJECTS` long-lived rack-local flows in one churn
    batch (the cold full solve); a tenth are aggregate flows of
    :data:`AGGREGATE_MULTIPLICITY` sessions.  Operation ``i`` is the next
    window of :attr:`WINDOW_S` simulated seconds with
    :attr:`ARRIVALS_PER_WINDOW` evenly spaced short rack-local arrivals,
    under the ideal max-min transport and the fabric's public API only.
    Windows run back to back on one fabric, so they must run in order.
    """

    K = 32
    OBJECTS = 20_000
    AGGREGATE_EVERY = 10
    ELEPHANT_BYTES = 1e12
    WINDOW_S = 0.04
    ARRIVALS_PER_WINDOW = 16
    CONSECUTIVE_OPS = True

    def __init__(self, seed: int) -> None:
        self.seed = seed % 2**32
        self.fabric = None

    def setup(self, n_ops: int) -> None:
        import numpy as np

        from repro.network.fabric import FabricSimulator
        from repro.network.fattree import build_fat_tree
        from repro.network.flow import FlowKind
        from repro.network.transport.ideal import IdealMaxMinTransport
        from repro.sim.engine import Simulator

        self._kind = FlowKind.DATA
        topology = build_fat_tree(k=self.K)
        link_of = {(l.src.node_id, l.dst.node_id): l for l in topology.links}
        racks: Dict[str, list] = {}
        for host in topology.hosts():
            racks.setdefault(str(host.attrs["rack"]), []).append(host)
        self._racks = [
            (hosts, [link_of[(h.node_id, f"edge-{key}")] for h in hosts],
             [link_of[(f"edge-{key}", h.node_id)] for h in hosts])
            for key, hosts in sorted(racks.items())
        ]
        self.sim = Simulator()
        self.fabric = FabricSimulator(self.sim, topology, IdealMaxMinTransport())
        rng = np.random.default_rng([self.seed, 0])
        with self.fabric.churn():
            for n in range(self.OBJECTS):
                multiplicity = AGGREGATE_MULTIPLICITY if n % self.AGGREGATE_EVERY == 0 else 1
                self._start(rng, self.ELEPHANT_BYTES, multiplicity)
        self._finished_seen = 0
        self._finished_bytes = 0.0

    def _start(self, rng, size_bytes: float, multiplicity: int = 1) -> None:
        hosts, up, down = self._racks[int(rng.integers(0, len(self._racks)))]
        i = int(rng.integers(0, len(hosts)))
        j = int(rng.integers(0, len(hosts) - 1))
        if j >= i:
            j += 1
        self.fabric.start_flow(
            hosts[i], hosts[j], size_bytes, self._kind,
            path=[up[i], down[j]], multiplicity=multiplicity,
        )

    def run_op(self, index: int) -> Op:
        import numpy as np

        fabric, sim = self.fabric, self.sim
        start = sim.now
        rng = np.random.default_rng([self.seed, 1 + index])
        spacing = self.WINDOW_S / self.ARRIVALS_PER_WINDOW
        for n in range(self.ARRIVALS_PER_WINDOW):
            size = float(rng.uniform(1e5, 1e6))
            sim.call_at(start + (n + 0.5) * spacing, self._start, rng, size)
        events_before = sim.events_processed
        compactions_before = sim.heap_compactions
        recomputes_before = fabric.recomputes
        coalesced_before = fabric.recomputes_coalesced
        delta = fabric.incidence.delta
        delta_before = delta.stats() if delta is not None else {}

        wall_start = time.perf_counter()
        sim.run(until=start + self.WINDOW_S)
        wall = time.perf_counter() - wall_start

        finished = fabric.finished_flows[self._finished_seen:]
        self._finished_seen = len(fabric.finished_flows)
        # Bytes conserved, session-weighted: what the fabric says it delivered
        # is what finished flows carried plus what active flows have sent.
        self._finished_bytes += math.fsum(f.size_bytes * f.multiplicity for f in finished)
        sent = self._finished_bytes + math.fsum(
            (f.size_bytes - f.remaining_bytes) * f.multiplicity for f in fabric.active_flows
        )
        error = ""
        if not math.isclose(fabric.total_bytes_delivered, sent, rel_tol=1e-6):
            error = f"bytes not conserved: delivered {fabric.total_bytes_delivered!r}, sent {sent!r}"
        delta_after = delta.stats() if delta is not None else {}

        def moved(key: str) -> float:
            return delta_after.get(key, 0.0) - delta_before.get(key, 0.0)

        counts = {
            "sim.events": float(sim.events_processed - events_before),
            "sim.heap_compactions": float(sim.heap_compactions - compactions_before),
            "network.fabric.recomputes": float(fabric.recomputes - recomputes_before),
            "network.fabric.recomputes_coalesced": float(
                fabric.recomputes_coalesced - coalesced_before
            ),
            "network.fluid.solves_incremental": moved("solves_incremental"),
            "network.fluid.solves_full": moved("solves_full"),
            "network.fluid.fallback_large_region": moved("fallback_large_region"),
            "network.fluid.dirty_rows_max": delta_after.get("dirty_rows_max", 0.0),
            "workloads.requests": float(self.ARRIVALS_PER_WINDOW),
        }
        payload = {
            "finished": [[f.flow_id, f.finished_at - f.created_at] for f in finished],
            "bytes_delivered": fabric.total_bytes_delivered,
            "active": fabric.active_flow_count,
            "events": sim.events_processed,
            "recomputes": fabric.recomputes,
            "recomputes_coalesced": fabric.recomputes_coalesced,
        }
        return Op(index, self.WINDOW_S, wall, digest_of(payload), counts, error)

    def close(self) -> None:
        self.fabric = None


# -- sweep-process / sweep-cluster -------------------------------------------------------


class Sweep:
    """A replicated SCDA-vs-RandTCP ensemble through ``run_jobs``.

    Operation ``i`` plans :attr:`REPLICATES` replicates of a short, low-rate
    Pareto/Poisson scenario (``plan_replications``, 2 jobs each) from its
    own base seed and runs them on the backend with two workers and
    ``fallback=False``, into a fresh :class:`ResultStore`, so every job is
    computed.  The timed part is the whole ``run_jobs`` call, process spawn
    or HTTP dispatch included.
    """

    REPLICATES = 8
    SIM_TIME_S = 1.5
    ARRIVAL_RATE_PER_S = 40.0
    WORKERS = 2
    CONSECUTIVE_OPS = False

    def __init__(self, backend: str, seed: int, scratch: Path) -> None:
        self.backend = backend
        self.seed = seed
        self.scratch = scratch
        self.batches: Dict[int, list] = {}
        self.daemons: List[subprocess.Popen] = []
        self.endpoints: List[str] = []
        #: (event, job key, seconds since the run_jobs call) of the last batch
        self.events: List[tuple] = []
        self.last_report = None
        self.last_results: Dict[str, Any] = {}
        self.last_store_bytes = 0

    def jobs(self, index: int) -> list:
        if index not in self.batches:
            from repro.exec.planner import plan_replications
            from repro.experiments.spec import ScenarioSpec

            spec = ScenarioSpec.pareto_poisson(
                sim_time_s=self.SIM_TIME_S,
                seed=op_seed(self.seed, index),
                arrival_rate_per_s=self.ARRIVAL_RATE_PER_S,
            )
            self.batches[index] = plan_replications(
                spec, ("scda", "rand-tcp"), seeds=self.REPLICATES
            )
        return self.batches[index]

    def setup(self, n_ops: int) -> None:
        self.scratch.mkdir(parents=True, exist_ok=True)
        for index in range(n_ops):
            self.jobs(index)
        if self.backend == "cluster":
            self._start_daemons()

    def _start_daemons(self) -> None:
        """Start two ``repro worker`` daemons on loopback and wait until healthy."""
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        logs = []
        for n in range(self.WORKERS):
            shard_dir = self.scratch / f"shards-{n}"
            shard_dir.mkdir(parents=True, exist_ok=True)
            logs.append(self.scratch / f"worker-{n}.log")
            with open(logs[-1], "w") as log:
                self.daemons.append(subprocess.Popen(
                    [sys.executable, "-m", "repro", "worker", "--port", "0",
                     "--shard-dir", str(shard_dir)],
                    stdout=subprocess.DEVNULL, stderr=log, env=env,
                ))
        deadline = time.monotonic() + 30.0
        for log in logs:
            # The daemon names its ephemeral port on its first stderr line.
            while "listening on" not in log.read_text():
                if time.monotonic() > deadline:
                    raise RuntimeError(f"worker daemon did not start: {log.read_text()!r}")
                time.sleep(0.01)
            self.endpoints.append(log.read_text().split("listening on ", 1)[1].split()[0])
        for endpoint in self.endpoints:
            while True:
                try:
                    with urllib.request.urlopen(f"http://{endpoint}/healthz", timeout=2.0):
                        break
                except OSError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.01)

    def worker_stats(self) -> List[Dict[str, Any]]:
        stats = []
        for endpoint in self.endpoints:
            with urllib.request.urlopen(f"http://{endpoint}/stats", timeout=5.0) as answer:
                stats.append(json.loads(answer.read().decode("utf-8")))
        return stats

    def executor(self):
        if self.backend == "cluster":
            from repro.exec.cluster import ClusterExecutor

            return ClusterExecutor(hosts=",".join(self.endpoints))
        return "process"

    def run_op(self, index: int) -> Op:
        from repro.exec import executors
        from repro.exec.store import ResultStore

        jobs = self.jobs(index)
        store_path = self.scratch / f"store-{index}.jsonl"
        store_path.unlink(missing_ok=True)
        store = ResultStore(store_path)
        events: List[tuple] = []
        clock = time.perf_counter

        def progress(event, job, detail):
            events.append((event, job.key, clock()))

        started = clock()
        report = executors.run_jobs(
            jobs,
            executor=self.executor(),
            max_workers=self.WORKERS,
            store=store,
            progress=progress,
            fallback=False,
            raise_on_error=False,
        )
        wall = clock() - started
        self.events = [(event, key, t - started) for event, key, t in events]
        self.last_report = report
        self.last_store_bytes = store_path.stat().st_size if store_path.exists() else 0
        store_path.unlink(missing_ok=True)

        digests = {}
        counts: Dict[str, float] = {}
        errors = [f"{len(report.failures)} job(s) failed"] if report.failures else []
        horizon_s = 0.0
        for job in jobs:
            horizon_s += job.resolved_spec().total_time_s
            result = report.results.get(job.key)
            if result is None:
                continue
            digests[job.key] = digest_of(result.canonical_dict())
            problem = _record_error(result, job.resolved_spec().total_time_s)
            if problem:
                errors.append(f"job {job.label}: {problem}")
            for name, value in _result_counts(result).items():
                if name in ("network.fluid.dirty_rows_max", "network.fabric.peak_active_flows"):
                    counts[name] = max(counts.get(name, 0.0), value)
                else:
                    counts[name] = counts.get(name, 0.0) + value
            counts["workloads.requests"] = (
                counts.get("workloads.requests", 0.0) + result.extras["requests_issued"]
            )
        if len(digests) != len(jobs):
            errors.append(f"{len(digests)}/{len(jobs)} results")
        self.last_results = report.results
        return Op(
            index=index,
            sim_s=horizon_s,
            wall_s=wall,
            digest=digest_of(sorted(digests.values())),
            counts=counts,
            error="; ".join(errors),
        )

    def cross_check(self, index: int) -> str:
        """Recompute one job of each scheme in this process; "" when equal."""
        from repro.experiments.runner import run_job

        jobs = self.jobs(index)
        for job in jobs[:2]:
            expected = digest_of(run_job(job).canonical_dict())
            got = self.last_results.get(job.key)
            if got is None or digest_of(got.canonical_dict()) != expected:
                return f"job {job.label} differs from an in-process run"
        return ""

    def close(self) -> None:
        for daemon in self.daemons:
            daemon.terminate()
        for daemon in self.daemons:
            try:
                daemon.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait()
        self.daemons = []
        shutil.rmtree(self.scratch, ignore_errors=True)


def make(name: str, seed: int, scratch: Path):
    """The workload called ``name``; sweeps keep their stores under ``scratch``."""
    # SCDA's cost grows with how long flows stay active (a control round
    # every 10 ms), so its operations are shorter; RandTCP's 200 requests
    # reach the ~190 concurrent flows where solves go through numpy.
    if name == "paper-pareto-scda":
        return ParetoRun("scda", seed, requests=100)
    if name == "paper-pareto-rand-tcp":
        return ParetoRun("rand-tcp", seed, requests=200)
    if name == "fattree-churn":
        return FattreeChurn(seed)
    if name == "sweep-process":
        return Sweep("process", seed, scratch)
    if name == "sweep-cluster":
        return Sweep("cluster", seed, scratch)
    raise ValueError(f"unknown workload {name!r}")


#: Nominal wall seconds of one operation at the commit that defined the
#: benchmark; a run of ``--seconds S`` plans ``S / nominal`` operations, so
#: the operation list (and its digests) depends only on the seed and ``S``.
NOMINAL_OP_S = {
    "paper-pareto-scda": 0.43,
    "paper-pareto-rand-tcp": 1.7,
    "fattree-churn": 1.5,
    "sweep-process": 2.75,
    "sweep-cluster": 2.3,
}

WORKLOADS = tuple(NOMINAL_OP_S)

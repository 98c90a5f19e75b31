"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload paper-pareto-scda --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all   # every workload, untraced then traced

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
operation twice, untraced and traced, and prints the per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it give the environment, every operation's digest and every
metric with its unit.  A full record (and, when traced, every span) is
written under ``.perfbench_out/``.  ``rationale.json`` says why each
workload and metric exists.

Regenerating ``reference.json`` is an explicit act, made only when the
simulated behaviour is meant to change::

    python3 perfbench/run.py --workload <name> --seconds 30 --record-reference
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 1
#: fresh interpreters timed through set-up (``setup_s`` is their median):
#: at least the first, and more while the probes have taken less than
#: SETUP_PROBE_BUDGET_S, up to the second
SETUP_PROBES = (3, 7)
SETUP_PROBE_BUDGET_S = 3.0
MIN_OPS = 3
#: The end-to-end metrics and their units (BENCHMARK.json lists the same).
END_TO_END = {"sim_s_per_ref_s": "sim-s/s", "setup_s": "s", "peak_rss_mb": "MiB"}

sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402  (the benchmark's own module)
from layers import PER_LAYER, batch_layers, layer_metrics  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from tracing import Tracer  # noqa: E402


def import_program() -> None:
    """Import the package from this checkout's ``src/`` or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'repro'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def environment(loadavg) -> Dict[str, Any]:
    import numpy

    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "available_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": list(loadavg),
    }


def plan_ops(workload: str, seconds: float) -> int:
    return max(MIN_OPS, round(seconds / wl.NOMINAL_OP_S[workload]))


def reference_digests(workload: str, seed: int) -> Optional[List[str]]:
    """Recorded digests of operations 0, 1, ... at the default seed."""
    path = HERE / "reference.json"
    if seed != DEFAULT_SEED or not path.is_file():
        return None
    with open(path) as handle:
        return json.load(handle)["digests"].get(workload)


def record_reference(name: str, ops: List[wl.Op], failures: list) -> None:
    """Store this run's digests as the reference of ``name`` (default seed)."""
    if failures:
        sys.exit(f"perfbench: not recording a reference from a failed run: {failures}")
    path = HERE / "reference.json"
    data = json.loads(path.read_text()) if path.is_file() else {"seed": DEFAULT_SEED, "digests": {}}
    data["digests"][name] = [op.digest for op in sorted(ops, key=lambda op: op.index)]
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def probe_setup(args: argparse.Namespace) -> int:
    """Set up once in this fresh interpreter, say ``ready``, tear down."""
    import_program()
    work = wl.make(args.workload, args.seed, OUT / f"probe-{os.getpid()}")
    try:
        work.setup(plan_ops(args.workload, args.seconds))
        print("ready", flush=True)
    finally:
        work.close()
    return 0


def time_setup(args: argparse.Namespace, speed: SpeedSampler) -> List[float]:
    """Seconds from spawning a fresh interpreter until it is set up, each
    rescaled to the reference speed."""
    samples: List[float] = []
    spent = 0.0
    fewest, most = SETUP_PROBES
    while len(samples) < fewest or (len(samples) < most and spent < SETUP_PROBE_BUDGET_S):
        command = [
            sys.executable, str(HERE / "run.py"), "--probe-setup",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds),
        ]
        started = time.perf_counter()
        probe = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        line = probe.stdout.readline()
        ready = time.perf_counter()
        probe.stdout.close()
        if probe.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
        samples.append(speed.rescale(ready - started, started, ready))
        spent += ready - started
    return samples


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def label(op: wl.Op) -> str:
    return f"{'traced ' if op.traced else ''}op {op.index}"


def check(ops: List[wl.Op], reference: Optional[List[str]]) -> List[Tuple[str, str]]:
    """(operation, reason) of every failed operation: an invariant or a digest."""
    failures = []
    for op in ops:
        if op.error:
            failures.append((label(op), op.error))
        elif reference is not None and op.index < len(reference) and op.digest != reference[op.index]:
            failures.append((label(op), f"digest {op.digest} != reference {reference[op.index]}"))
    return failures


def run_timed(work: Any, index: int, speed: SpeedSampler) -> wl.Op:
    """Run one operation and rescale its wall time to the reference speed.

    An operation that raises is returned as failed, with no timing.
    """
    started = time.perf_counter()
    try:
        op = work.run_op(index)
    except Exception as exc:  # noqa: BLE001 - a failed operation, not a failed run
        traceback.print_exc()
        return wl.Op(index, 0.0, 0.0, "", error=f"raised {exc!r}")
    op.ref_wall_s = speed.rescale(op.wall_s, started, time.perf_counter())
    return op


def sim_s_per_s(work: Any, ops: List[wl.Op], wall: str = "ref_wall_s") -> float:
    """Simulated seconds per (rescaled) wall second over a run's operations."""
    if work.CONSECUTIVE_OPS:
        # Slices of one simulation: together they are one long window.
        return sum(op.sim_s for op in ops) / sum(getattr(op, wall) for op in ops)
    # Independent runs on heavy-tailed traces: one long run must not dominate.
    return statistics.median(op.sim_s / getattr(op, wall) for op in ops)


def timed(ops: List[wl.Op]) -> List[wl.Op]:
    """The operations that finished and so have a timing."""
    done = [op for op in ops if op.wall_s > 0.0]
    if not done:
        sys.exit("perfbench: every operation raised; no timing to report")
    return done


def run_ops(args: argparse.Namespace, work: Any, speed: SpeedSampler, tracer: Tracer):
    """(untraced ops, traced ops, sweep batch layers, extra failures)."""
    name = args.workload
    n_ops = plan_ops(name, args.seconds)
    untraced: List[wl.Op] = []
    traced: List[wl.Op] = []
    batches: List[Dict[str, float]] = []
    failures: List[Tuple[str, str]] = []
    if not args.trace:
        work.setup(n_ops)
        untraced = [run_timed(work, index, speed) for index in range(n_ops)]
        return untraced, traced, batches, failures

    n_pairs = max(2, math.ceil(n_ops / 2))
    work.setup(n_pairs)
    # Churn windows advance one fabric, so the traced side needs its own.
    shadow = wl.FattreeChurn(args.seed) if name == "fattree-churn" else None
    target = shadow or work
    try:
        if shadow is not None:
            shadow.setup(n_pairs)
        for index in range(n_pairs):
            # Alternate which side runs first so warm-up favours neither.
            for side in ("untraced", "traced") if index % 2 == 0 else ("traced", "untraced"):
                if side == "untraced":
                    untraced.append(run_timed(work, index, speed))
                    continue
                if isinstance(target, wl.ParetoRun):
                    target.inputs.pop(index)  # regenerated under the tracer
                stats_before = target.worker_stats() if name == "sweep-cluster" else []
                tracer.op = index
                with tracer:
                    if isinstance(target, wl.ParetoRun):
                        target.trace(index)
                    op = run_timed(target, index, speed)
                op.traced = True
                traced.append(op)
                if isinstance(target, wl.Sweep):
                    batches.append(batch_layers(target, tracer, op, stats_before))
    finally:
        if shadow is not None:
            shadow.close()
    untraced.sort(key=lambda op: op.index)
    for plain, shown in zip(untraced, traced):
        if plain.digest != shown.digest:
            failures.append((label(shown), "digest differs from the untraced run"))
    return untraced, traced, batches, failures


def run(args: argparse.Namespace) -> int:
    loadavg = os.getloadavg()
    import_program()
    env = environment(loadavg)
    name = args.workload
    reference = None if args.record_reference else reference_digests(name, args.seed)
    work = wl.make(name, args.seed, OUT / f"work-{os.getpid()}")
    tracer = Tracer()
    with SpeedSampler() as speed:
        try:
            untraced, traced, batches, failures = run_ops(args, work, speed, tracer)
            if isinstance(work, wl.Sweep):
                problem = work.cross_check(untraced[-1].index)
                if problem:
                    failures.append((label(untraced[-1]), problem))
        finally:
            work.close()
        failures = check(untraced + traced, reference) + failures
        if args.trace:
            values = layer_metrics(timed(traced), timed(untraced), tracer, batches)
            units = PER_LAYER
        else:
            values = {
                "sim_s_per_ref_s": sim_s_per_s(work, timed(untraced)),
                # Read before the set-up probes, which are children too.
                "peak_rss_mb": peak_rss_mb(),
                "setup_s": statistics.median(time_setup(args, speed)),
            }
            units = END_TO_END
        env["calibration_s"] = statistics.fmean(cost for _, cost in speed.samples)
    ops = sorted(untraced + traced, key=lambda op: op.index)

    checked = "reference" if reference is not None else "invariants only (no reference for this seed)"
    lines = [f"workload {name} seed {args.seed} trace {args.trace}: {len(ops)} ops, checked against {checked}"]
    lines.append("env " + json.dumps(env, sort_keys=True))
    for op in ops:
        lines.append(
            f"{label(op)} digest {op.digest} sim_s {op.sim_s:.6g} "
            f"wall_s {op.wall_s:.6f} ref_wall_s {op.ref_wall_s:.6f}"
        )
    lines.extend(f"FAILED {where}: {why}" for where, why in failures)
    raw = sim_s_per_s(work, timed(untraced), wall="wall_s")
    lines.append(f"(unscaled sim_s_per_wall_s = {raw:.6g} sim-s/s)")
    result = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    lines.extend(f"{name} = {metric['value']:.6g} {metric['unit']}" for name, metric in result.items())
    print("\n".join(lines))

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps({
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "failures": failures, "ops": [vars(op) for op in ops], "metrics": result,
    }, indent=1, sort_keys=True))
    if args.record_reference:
        record_reference(name, untraced, failures)
    if args.trace:
        with open(stem.with_suffix(".spans.jsonl"), "w") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span.as_list()) + "\n")

    stop_resource_tracker()
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len({where for where, _ in failures}),
        "metrics": result,
    }))
    return 0


def stop_resource_tracker() -> None:
    """Stop the helper process that spawning pool workers started, and wait for it."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if hasattr(tracker, "_stop"):
        tracker._stop()


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    worst = 0
    for name in wl.WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            worst = max(worst, subprocess.run(command).returncode)
    return worst


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",),
                        help="one workload, or all of them untraced and traced")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="run length; fixes the number of operations (see NOMINAL_OP_S)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's digests as the reference (default seed only)")
    args = parser.parse_args(argv)
    if args.record_reference and (args.seed != DEFAULT_SEED or args.trace or args.workload == "all"):
        parser.error("--record-reference needs one workload, the default seed and --trace 0")
    if args.workload == "all":
        return run_all(args)
    if args.probe_setup:
        return probe_setup(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

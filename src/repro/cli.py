"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``compare``
    Run two schemes (default SCDA vs RandTCP) on a scenario — one of the
    paper's named scenarios, optionally with the topology or workload swapped
    by registry key (``--topology fattree``) — and print the headline numbers.
``run``
    Run a declarative scenario file (``repro run scenario.json``) produced by
    :meth:`~repro.experiments.spec.ScenarioSpec.save`, optionally on a
    parallel executor backend with a resumable result store
    (``--executor process --jobs 4 --results out.jsonl``), with a dynamics
    script injecting faults and churn mid-run (``--dynamics script.json``;
    see ``docs/DYNAMICS.md``), and/or as an N-seed replication ensemble
    whose headline numbers carry 95 % confidence intervals (``--seeds 5``;
    see ``docs/ANALYSIS.md``).
``sweep``
    Plan a load or τ sweep into jobs and run it on an executor backend
    (``repro sweep load --points 15,40,80 --executor process --jobs 4``).
    Points already present in ``--results`` are not recomputed.
    ``--reseed`` derives a per-point seed from each point's identity
    instead of reusing the base seed everywhere.
``list-plugins``
    Show every registered topology, workload, scheme, placement, executor,
    dynamics event and analysis (``--json`` for machine-readable output).
``figure``
    Regenerate one of the paper's figures (fig07..fig18) and print it as a
    table and/or an ASCII plot; ``--seeds N`` renders the multi-seed
    ensemble with confidence bands.
``workload``
    Generate one of the synthetic workloads and write it to CSV.
``replay``
    Replay a workload CSV through both schemes and compare them.
``report``
    Run a registered analysis over a result store
    (``repro report --results store.jsonl --analysis scheme-comparison``),
    or render a markdown report from the benchmark result JSONs.
``worker``
    Run a cluster worker daemon (``repro worker --port 8150 --shard-dir
    shards/``): an HTTP job runner appending results to a local write-once
    shard.  See ``docs/CLUSTER.md``.
``serve``
    Run the coordinator daemon: HTTP job submission plus the result-store
    query API, optionally fanning out to workers (``--executor cluster
    --hosts h1:8150,h2:8150``).
``store``
    Result-store maintenance: ``store merge`` unions worker shards into one
    store (conflicts abort — cross-host nondeterminism is an error),
    ``store compact`` rewrites a store with one line per key.

The CLI only wraps the public library API, so everything it does can also be
done programmatically; it exists to make quick experiments reproducible from
a shell.  Scenario composition (topologies × workloads × schemes) is
registry-driven — see ``docs/SCENARIOS.md`` for the plugin API and the
scenario-file format.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

from repro._version import __version__

def _scenario_spec(args: argparse.Namespace):
    """The declarative spec for a command's scenario arguments.

    Starts from the named paper scenario and swaps the topology and/or the
    workload by registry key when ``--topology`` / ``--workload`` are given
    (resetting the respective params to the plugin's defaults).
    """
    from repro.experiments.spec import paper_scenario

    spec = paper_scenario(args.scenario, args.sim_time, args.seed)
    topology = getattr(args, "topology", None)
    workload = getattr(args, "workload", None)
    if topology:
        spec = spec.with_topology(topology).with_overrides(name=f"{spec.name}+{topology}")
    if workload:
        spec = spec.with_workload(workload).with_overrides(name=f"{spec.name}+{workload}")
    return spec


def _add_common_scenario_args(parser: argparse.ArgumentParser) -> None:
    from repro.experiments.spec import PAPER_SCENARIOS

    parser.add_argument("--scenario", choices=tuple(PAPER_SCENARIOS), default="pareto",
                        help="which of the paper's scenarios to start from")
    parser.add_argument("--sim-time", type=float, default=10.0,
                        help="seconds of workload to generate")
    parser.add_argument("--seed", type=int, default=1, help="workload random seed")
    parser.add_argument("--topology", default=None, metavar="KEY",
                        help="swap the fabric by registry key (e.g. fattree, vl2, "
                             "leafspine); see 'list-plugins'")
    parser.add_argument("--workload", default=None, metavar="KEY",
                        help="swap the workload by registry key (e.g. datacenter); "
                             "see 'list-plugins'")


def _add_scheme_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--candidate", default="scda", metavar="SCHEME",
                        help="candidate scheme registry key (default: scda)")
    parser.add_argument("--baseline", default="rand-tcp", metavar="SCHEME",
                        help="baseline scheme registry key (default: rand-tcp)")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_executor_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--executor", default="serial", metavar="KEY",
                        help="execution backend registry key (serial, process, "
                             "cluster, chaos:<inner>); see "
                             "'list-plugins'")
    parser.add_argument("--jobs", type=_positive_int, default=None, metavar="N",
                        help="worker count for pooled executors (for the "
                             "cluster backend: in-flight chunk window)")
    parser.add_argument("--batch-size", type=_positive_int, default=None,
                        metavar="N",
                        help="jobs shipped per dispatch round-trip on chunked "
                             "backends (process submissions, cluster "
                             "HTTP requests); amortises per-job overhead "
                             "without changing results")
    parser.add_argument("--hosts", default=None, metavar="H1:P1,H2:P2",
                        help="cluster backend worker endpoints "
                             "(alternative: REPRO_CLUSTER_HOSTS)")
    parser.add_argument("--hosts-file", default=None, metavar="PATH",
                        help="file of worker endpoints, one host:port per "
                             "line, '#' comments "
                             "(alternative: REPRO_CLUSTER_HOSTS_FILE)")
    parser.add_argument("--results", default=None, metavar="PATH",
                        help="JSONL result store: computed points are appended "
                             "as they finish, already-stored points are never "
                             "re-run")
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help="re-attempt transiently failed jobs up to N times "
                             "with deterministic exponential backoff "
                             "(default: 0, fail on the first error)")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-job wall-clock budget in seconds; the process "
                             "backend kills and replaces a worker whose job "
                             "overruns it (see docs/EXECUTION.md)")
    parser.add_argument("--fallback", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="degrade cluster→process→serial when a "
                             "backend fails at the batch level (--no-fallback: "
                             "let the backend error propagate)")
    parser.add_argument("--fsync", action="store_true",
                        help="fsync every result-store append (survives machine "
                             "crashes, not just process crashes)")


def _execution_options(args: argparse.Namespace) -> Dict[str, object]:
    """The run_jobs fault-tolerance kwargs encoded by the CLI flags."""
    from repro.exec.retry import RetryPolicy

    policy = None
    if args.retries > 0 or args.timeout is not None:
        policy = RetryPolicy(max_attempts=args.retries + 1, timeout_s=args.timeout)
    return {
        "policy": policy,
        "fallback": args.fallback,
        "store_fsync": args.fsync,
    }


def _apply_cluster_env(args: argparse.Namespace) -> None:
    """Publish --hosts/--hosts-file through the environment channel.

    The registry's resolution path (and wrapper syntax like
    ``chaos:cluster``) builds executors from just a key and ``max_workers``,
    so cluster endpoints travel via ``REPRO_CLUSTER_HOSTS`` /
    ``REPRO_CLUSTER_HOSTS_FILE`` — see :mod:`repro.service.discovery`.
    """
    import os

    from repro.service.discovery import HOSTS_ENV, HOSTS_FILE_ENV

    if getattr(args, "hosts", None):
        os.environ[HOSTS_ENV] = args.hosts
    if getattr(args, "hosts_file", None):
        os.environ[HOSTS_FILE_ENV] = args.hosts_file


def _cli_executor(args: argparse.Namespace):
    """The ``executor`` argument for run_jobs-style calls.

    Applies the cluster endpoint flags and, when ``--batch-size`` is given,
    resolves the key into a configured instance (the library call paths —
    replication, figures — take an instance without needing new
    parameters).
    """
    _apply_cluster_env(args)
    batch_size = getattr(args, "batch_size", None)
    if batch_size:
        from repro.exec.executors import resolve_executor

        return resolve_executor(
            args.executor, max_workers=args.jobs, batch_size=batch_size
        )
    return args.executor


def _progress_printer(as_json: bool):
    """Per-job progress lines on stderr (silent in --json mode)."""
    if as_json:
        return None

    def progress(event: str, job, detail) -> None:
        if event == "submitted":
            return
        line = f"  [{event}] {job.label()}"
        if detail:
            line += f": {detail}"
        print(line, file=sys.stderr)

    return progress


def _print_comparison(scenario, comparison, shape, as_json: bool) -> None:
    summary = comparison.summary()
    if as_json:
        payload = {"scenario": scenario.name, "summary": summary, "all_passed": shape.all_passed}
        print(json.dumps(payload, indent=2, default=float))
        return
    candidate = comparison.candidate.scheme
    baseline = comparison.baseline.scheme
    print(f"scenario: {scenario.name} (topology={scenario.topology}, "
          f"workload={scenario.workload}, sim_time={scenario.sim_time_s:g}s, "
          f"seed={scenario.seed})")
    print(f"  mean FCT       {baseline} {summary['baseline_mean_fct_s']:.3f}s"
          f"   {candidate} {summary['candidate_mean_fct_s']:.3f}s"
          f"   (-{100 * summary['fct_reduction_fraction']:.0f}%)")
    print(f"  per-flow goodput  {baseline} {summary['baseline_mean_goodput_kBps']:.0f} KB/s"
          f"   {candidate} {summary['candidate_mean_goodput_kBps']:.0f} KB/s")
    print(f"  FCT CDF dominance: {100 * summary['cdf_dominance']:.0f}%"
          f"   shape checks passed: {shape.all_passed}")


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_scenario
    from repro.experiments.shapes import check_comparison_shape

    scenario = _scenario_spec(args)
    comparison = run_scenario(scenario, schemes=(args.candidate, args.baseline))
    shape = check_comparison_shape(comparison)
    _print_comparison(scenario, comparison, shape, args.json)
    return 0 if shape.all_passed else 1


def _print_replicated(scenario, ensemble, shape, as_json: bool) -> None:
    """Headline numbers of an N-seed run, every ratio carrying its CI."""
    summary = ensemble.summary()
    if as_json:
        payload = {
            "scenario": scenario.name,
            "replicates": ensemble.n_replicates,
            "seeds": list(ensemble.candidate.seeds),
            "summary": summary,
            "all_passed": shape.all_passed,
        }
        print(json.dumps(payload, indent=2, default=float))
        return
    from repro.metrics.stats import SummaryStats

    candidate = ensemble.candidate.scheme
    baseline = ensemble.baseline.scheme

    def ci(key: str, fmt: str = "{:.3f}") -> str:
        stats = SummaryStats.from_dict(summary[key])
        if stats.n <= 1:
            return fmt.format(stats.mean)
        return (f"{fmt.format(stats.mean)} "
                f"[{fmt.format(stats.ci_lower)}, {fmt.format(stats.ci_upper)}]")

    print(f"scenario: {scenario.name} (replicates={ensemble.n_replicates}, "
          f"topology={scenario.topology}, workload={scenario.workload}, "
          f"sim_time={scenario.sim_time_s:g}s, base seed={scenario.seed})")
    print(f"  mean FCT       {baseline} {ci('baseline_mean_fct_s')}s"
          f"   {candidate} {ci('candidate_mean_fct_s')}s")
    print(f"  AFCT speedup   {ci('speedup_afct', '{:.2f}')}"
          f"   FCT reduction {ci('fct_reduction_fraction', '{:.0%}')}")
    print(f"  FCT CDF dominance: {ci('cdf_dominance', '{:.0%}')}"
          f"   shape checks passed (replicate 0): {shape.all_passed}")


def cmd_run(args: argparse.Namespace) -> int:
    from repro.exec import plan_comparison, run_jobs
    from repro.experiments.shapes import check_comparison_shape
    from repro.experiments.spec import ScenarioSpec
    from repro.metrics.comparison import ComparisonResult

    try:
        scenario = ScenarioSpec.load(args.scenario_file)
    except (OSError, TypeError, ValueError, LookupError) as exc:
        # LookupError covers RegistryError on unknown keys and bad params.
        print(f"cannot load scenario file {args.scenario_file!r}: {exc}", file=sys.stderr)
        return 2
    if args.dynamics:
        from repro.dynamics import DynamicsScript

        try:
            script = DynamicsScript.load(args.dynamics)
        except (OSError, TypeError, ValueError, LookupError) as exc:
            # LookupError covers RegistryError on unknown event kinds.
            print(f"cannot load dynamics script {args.dynamics!r}: {exc}", file=sys.stderr)
            return 2
        scenario = scenario.with_dynamics(script)
    if args.seeds > 1:
        from repro.exec.replication import run_replicated_comparison

        ensemble = run_replicated_comparison(
            scenario,
            candidate=args.candidate,
            baseline=args.baseline,
            seeds=args.seeds,
            executor=_cli_executor(args),
            max_workers=args.jobs,
            store=args.results,
            progress=_progress_printer(args.json),
            **_execution_options(args),
        )
        shape = check_comparison_shape(ensemble.comparisons()[0])
        _print_replicated(scenario, ensemble, shape, args.json)
        return 0 if shape.all_passed else 1
    jobs = plan_comparison(scenario, candidate=args.candidate, baseline=args.baseline)
    report = run_jobs(
        jobs,
        executor=_cli_executor(args),
        max_workers=args.jobs,
        store=args.results,
        progress=_progress_printer(args.json),
        **_execution_options(args),
    )
    comparison = ComparisonResult(
        scenario=scenario.name,
        candidate=report.result_for(jobs[0]),
        baseline=report.result_for(jobs[1]),
    )
    shape = check_comparison_shape(comparison)
    _print_comparison(scenario, comparison, shape, args.json)
    return 0 if shape.all_passed else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.exec import (
        plan_control_interval_sweep,
        plan_offered_load_sweep,
        run_jobs,
    )
    from repro.experiments.sweeps import SweepResult, points_from_jobs

    try:
        points = [float(p) for p in args.points.split(",") if p.strip()]
    except ValueError:
        print(f"cannot parse --points {args.points!r}: expected comma-separated "
              "numbers, e.g. --points 15,40,80", file=sys.stderr)
        return 2
    if not points:
        print("--points must name at least one value", file=sys.stderr)
        return 2
    base = _scenario_spec(args)
    try:
        if args.axis == "load":
            if args.arrival_rate is not None:
                print("--arrival-rate only applies to tau sweeps (the load sweep's "
                      "--points are the arrival rates)", file=sys.stderr)
                return 2
            jobs = plan_offered_load_sweep(
                points, base=base, candidate=args.candidate, baseline=args.baseline,
                reseed_per_point=args.reseed,
            )
            parameter_name, short = "arrival rate (flows/s)", "rate"
        else:
            from repro.exec.planner import with_arrival_rate

            # Mirrors sweep_control_interval's rate handling: the 40 flows/s
            # pin applies only to the *default* scenario (the library's
            # "base is None" case); a customised scenario keeps its own rate
            # unless --arrival-rate overrides it.
            from repro.experiments.sweeps import DEFAULT_TAU_SWEEP_ARRIVAL_RATE

            rate = args.arrival_rate
            if rate is None and args.scenario == "pareto" and not args.workload:
                rate = DEFAULT_TAU_SWEEP_ARRIVAL_RATE
            if rate is not None:
                base = with_arrival_rate(base, rate)
            jobs = plan_control_interval_sweep(
                points, base=base, candidate=args.candidate, baseline=args.baseline,
                reseed_per_point=args.reseed,
            )
            parameter_name, short = "control interval (s)", "tau"
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_jobs(
        jobs,
        executor=_cli_executor(args),
        max_workers=args.jobs,
        store=args.results,
        progress=_progress_printer(args.json),
        **_execution_options(args),
    )
    sweep = SweepResult(
        parameter_name=parameter_name,
        points=points_from_jobs(jobs, report.results, short),
    )
    crossovers = sweep.crossover_points()
    if args.json:
        print(json.dumps(
            {
                "sweep": sweep.to_dict(),
                "execution": report.summary(),
                "crossover_points": crossovers,
            },
            indent=2, default=float,
        ))
    else:
        print(sweep.as_table())
        summary = report.summary()
        print(f"\nexecutor={summary['executor']} jobs={summary['jobs']} "
              f"computed={summary['computed']} cached={summary['cached']} "
              f"failed={summary['failed']} wall={summary['wall_clock_s']:.1f}s")
        if crossovers:
            print(f"note: baseline wins at {short}={crossovers} (exit status 1)")
        if args.results:
            print(f"results stored in {args.results}")
    return 0 if not crossovers else 1


def cmd_list_plugins(args: argparse.Namespace) -> int:
    from repro.registry import ALL_REGISTRIES

    if args.json:
        payload = {
            section: {
                entry.name: {
                    "description": entry.description,
                    "aliases": list(entry.aliases),
                    "config": entry.config_cls.__name__ if entry.config_cls else None,
                }
                for entry in registry.entries()
            }
            for section, registry in ALL_REGISTRIES
        }
        print(json.dumps(payload, indent=2))
        return 0
    for section, registry in ALL_REGISTRIES:
        print(f"{section}:")
        for entry in registry.entries():
            aliases = f" (aliases: {', '.join(entry.aliases)})" if entry.aliases else ""
            config = f" [{entry.config_cls.__name__}]" if entry.config_cls else ""
            print(f"  {entry.name:20s}{entry.description}{config}{aliases}")
        print()
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    from repro.analysis.ascii_plot import render_figure
    from repro.experiments.figures import (
        FIGURE_DEFAULT_SCENARIOS,
        FIGURE_GENERATORS,
        generate_figure,
    )
    from repro.experiments.spec import paper_scenario

    if args.figure not in FIGURE_GENERATORS:
        print(f"unknown figure {args.figure!r}; choose from {', '.join(sorted(FIGURE_GENERATORS))}",
              file=sys.stderr)
        return 2
    # Each figure's default scenario comes from the figures module's single
    # source of truth; --scenario overrides it.
    scenario_name = args.scenario or FIGURE_DEFAULT_SCENARIOS[args.figure]
    scenario = paper_scenario(scenario_name, args.sim_time, args.seed)
    figure = generate_figure(
        args.figure,
        config=scenario,
        seeds=args.seeds,
        executor=_cli_executor(args),
        max_workers=args.jobs,
        store=args.results,
        **_execution_options(args),
    )
    if args.plot:
        print(render_figure(figure))
        print()
    print(figure.as_table())
    if args.out:
        payload = {
            "figure": figure.figure_id,
            "title": figure.title,
            "summary": figure.summary,
            "series": {k: [list(map(float, v[0])), list(map(float, v[1]))]
                       for k, v in figure.series.items()},
        }
        if figure.bands:
            # Multi-seed figures: persist the CI bands as (x, lower, upper);
            # absent on single-seed output so those artifacts are unchanged.
            payload["bands"] = {
                k: [list(map(float, x)), list(map(float, lo)), list(map(float, hi))]
                for k, (x, lo, hi) in figure.bands.items()
            }
        Path(args.out).write_text(json.dumps(payload, indent=2))
        print(f"\nwrote {args.out}")
    return 0


def cmd_workload(args: argparse.Namespace) -> int:
    from repro.experiments.runner import generate_workload

    scenario = _scenario_spec(args)
    workload = generate_workload(scenario)
    workload.to_csv(args.out)
    summary = workload.summary()
    print(f"wrote {len(workload)} requests to {args.out}")
    print(f"  duration {summary['duration_s']:.1f}s, mean size {summary['mean_size_bytes'] / 1024:.1f} KB, "
          f"offered load {summary['offered_load_bps'] / 1e6:.1f} Mb/s")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_scheme
    from repro.experiments.shapes import check_comparison_shape
    from repro.metrics.comparison import ComparisonResult
    from repro.workloads.traces import Workload

    workload = Workload.from_csv(args.trace)
    scenario = _scenario_spec(args)
    # The replayed trace defines the arrivals; stretch the horizon to cover it.
    scenario = scenario.with_overrides(sim_time_s=max(scenario.sim_time_s, workload.duration_s + 1.0))

    candidate = run_scheme(scenario, args.candidate, workload)
    baseline = run_scheme(scenario, args.baseline, workload)
    comparison = ComparisonResult(scenario=f"replay:{args.trace}", candidate=candidate, baseline=baseline)
    shape = check_comparison_shape(comparison)
    summary = comparison.summary()
    print(f"replayed {len(workload)} requests from {args.trace}")
    print(f"  mean FCT   {baseline.scheme} {summary['baseline_mean_fct_s']:.3f}s"
          f"   {candidate.scheme} {summary['candidate_mean_fct_s']:.3f}s"
          f"   (-{100 * summary['fct_reduction_fraction']:.0f}%)")
    print(f"  shape checks passed: {shape.all_passed}")
    return 0 if shape.all_passed else 1


def cmd_report(args: argparse.Namespace) -> int:
    if args.results:
        return _cmd_report_store(args)
    if args.analysis:
        print("--analysis requires --results <store.jsonl> (the registry-driven "
              "report pipeline reads a result store, not the benchmark JSONs)",
              file=sys.stderr)
        return 2
    from repro.analysis.report import BenchmarkReport

    try:
        report = BenchmarkReport.from_directory(args.results_dir)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    markdown = report.to_markdown()
    if args.out:
        Path(args.out).write_text(markdown)
        print(f"wrote {args.out}")
    else:
        print(markdown)
    return 0 if report.all_shapes_passed() or not report.figures() else 1


def _cmd_report_store(args: argparse.Namespace) -> int:
    """The registry-driven pipeline: ANALYSES plugins over a result store.

    ``--analysis <name>`` emits that analysis's JSON artifact; without it,
    every registered analysis runs and the composed document is emitted
    (``--markdown`` renders the human view instead).
    """
    from repro.analysis.report import (
        render_store_report_markdown,
        run_analysis,
        store_report,
    )
    from repro.exec.store import ResultStore

    import inspect

    from repro.registry import ANALYSES

    store = ResultStore(args.results)
    if not Path(args.results).exists():
        print(f"no result store at {args.results}", file=sys.stderr)
        return 2
    if args.ensemble:
        stored = sorted(store.group_by_ensemble())
        if args.ensemble not in stored:
            print(f"unknown ensemble {args.ensemble!r}; stored ensembles: "
                  f"{', '.join(stored) or '<none>'}", file=sys.stderr)
            return 2

    def ensemble_params(name: str) -> dict:
        # Pass --ensemble only to analyses whose signature accepts it, so a
        # plugin without the parameter gets a clean error, not a TypeError.
        if not args.ensemble:
            return {}
        signature = inspect.signature(ANALYSES.get(name).builder)
        if "ensemble" in signature.parameters:
            return {"ensemble": args.ensemble}
        return {}

    if args.analysis:
        if args.markdown:
            print("--markdown renders the composed report; a single --analysis "
                  "always emits its JSON artifact", file=sys.stderr)
            return 2
        params = ensemble_params(args.analysis)
        if args.ensemble and not params:
            print(f"analysis {args.analysis!r} does not take --ensemble",
                  file=sys.stderr)
            return 2
        artifact = run_analysis(store, args.analysis, **params)
        text = json.dumps(artifact, indent=2, sort_keys=True, default=float)
    else:
        names = ANALYSES.names()
        if args.ensemble:
            # An analysis that cannot restrict itself to the ensemble would
            # silently cover the whole store: leave it out, visibly.
            unaware = [n for n in names if not ensemble_params(n)]
            if unaware:
                print(f"note: skipping {', '.join(unaware)} "
                      f"(no ensemble parameter; --ensemble cannot apply)",
                      file=sys.stderr)
            names = [n for n in names if n not in unaware]
        document = store_report(
            store, analyses=names,
            params={name: ensemble_params(name) for name in names},
        )
        if args.markdown:
            text = render_store_report_markdown(document)
        else:
            text = json.dumps(document, indent=2, sort_keys=True, default=float)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    from repro.service.worker import WorkerServer

    server = WorkerServer(
        host=args.host,
        port=args.port,
        shard_dir=args.shard_dir,
        fsync=args.fsync,
        verbose=args.verbose,
    )
    print(
        f"repro worker listening on {server.host}:{server.port} "
        f"(shard: {server.shard_path})",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.coordinator import CoordinatorServer

    _apply_cluster_env(args)
    server = CoordinatorServer(
        host=args.host,
        port=args.port,
        store_path=args.results,
        executor=args.executor,
        max_workers=args.jobs,
        batch_size=args.batch_size,
        verbose=args.verbose,
    )
    print(
        f"repro serve listening on {server.host}:{server.port} "
        f"(executor: {args.executor}, store: {server.store.path})",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


def cmd_store_merge(args: argparse.Namespace) -> int:
    from repro.exec.store import ResultStore

    shards = list(args.shards)
    fetched = []
    if args.hosts:
        import tempfile

        from repro.service import protocol
        from repro.service.discovery import parse_hosts

        for endpoint in parse_hosts(args.hosts):
            text = protocol.http_text(endpoint.url(protocol.SHARD_PATH))
            handle = tempfile.NamedTemporaryFile(
                "w", suffix=".jsonl", prefix=f"shard-{endpoint.host}-{endpoint.port}-",
                delete=False, encoding="utf-8",
            )
            with handle:
                handle.write(text)
            fetched.append(handle.name)
            shards.append(handle.name)
    if not shards:
        print("nothing to merge: name shard paths and/or --hosts", file=sys.stderr)
        return 2
    try:
        store = ResultStore(args.into)
        added = store.merge(shards)
    finally:
        for path in fetched:
            Path(path).unlink(missing_ok=True)
    print(f"merged {len(shards)} shard(s) into {args.into}: "
          f"{added} new result(s), {len(store)} total")
    return 0


def cmd_store_compact(args: argparse.Namespace) -> int:
    from repro.exec.store import ResultStore

    store = ResultStore(args.store)
    if not Path(args.store).exists():
        print(f"no result store at {args.store}", file=sys.stderr)
        return 2
    surviving = store.compact()
    print(f"compacted {args.store}: {surviving} entr(y/ies)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.experiments.spec import PAPER_SCENARIOS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="SCDA (HPDC 2013) reproduction — run comparisons, figures and reports.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    compare = subparsers.add_parser("compare", help="run two schemes on a scenario")
    _add_common_scenario_args(compare)
    _add_scheme_args(compare)
    compare.add_argument("--json", action="store_true", help="print machine-readable JSON")
    compare.set_defaults(func=cmd_compare)

    run = subparsers.add_parser("run", help="run a declarative scenario JSON file")
    run.add_argument("scenario_file", help="path to a ScenarioSpec JSON file")
    run.add_argument("--dynamics", default=None, metavar="PATH",
                     help="JSON dynamics script (event list or {\"events\": [...]}) "
                          "injecting link failures, churn and surges mid-run; "
                          "overrides the scenario file's own dynamics")
    run.add_argument("--seeds", type=_positive_int, default=1, metavar="N",
                     help="replicate the run under N derived seeds and report "
                          "mean ± 95%% CI (replicate 0 is the scenario's own "
                          "seed, so --seeds 1 is the plain single run)")
    _add_scheme_args(run)
    _add_executor_args(run)
    run.add_argument("--json", action="store_true", help="print machine-readable JSON")
    run.set_defaults(func=cmd_run)

    sweep = subparsers.add_parser(
        "sweep", help="run a load or τ sweep on an executor backend",
        description="Plan a sweep into jobs and run it on an executor backend. "
                    "Exit status: 0 when the candidate wins at every point, "
                    "1 when the baseline wins anywhere (the points are still "
                    "printed/stored), 2 on usage or execution errors.",
    )
    sweep.add_argument("axis", choices=("load", "tau"),
                       help="what to sweep: workload arrival rate, or the "
                            "control interval τ")
    sweep.add_argument("--points", required=True, metavar="P1,P2,...",
                       help="comma-separated sweep values (rates in flows/s, "
                            "or τ in seconds)")
    sweep.add_argument("--arrival-rate", type=float, default=None, metavar="R",
                       help="tau sweeps only: workload arrival rate in flows/s; "
                            "defaults to 40 for the default pareto scenario "
                            "(matching sweep_control_interval) and to the "
                            "scenario's own rate otherwise")
    sweep.add_argument("--reseed", action="store_true",
                       help="derive each point's seed from its identity "
                            "(sweep axis + value) instead of reusing the base "
                            "seed at every point; order- and "
                            "backend-independent")
    _add_common_scenario_args(sweep)
    _add_scheme_args(sweep)
    _add_executor_args(sweep)
    sweep.add_argument("--json", action="store_true", help="print machine-readable JSON")
    sweep.set_defaults(func=cmd_sweep)

    plugins = subparsers.add_parser(
        "list-plugins",
        help="list registered topologies, workloads, schemes, placements, "
             "executors and dynamics events",
    )
    plugins.add_argument("--json", action="store_true", help="print machine-readable JSON")
    plugins.set_defaults(func=cmd_list_plugins)

    figure = subparsers.add_parser("figure", help="regenerate one of the paper's figures")
    figure.add_argument("figure", help="figure id, e.g. fig09")
    figure.add_argument("--scenario", choices=tuple(PAPER_SCENARIOS), default=None,
                        help="override the figure's default scenario")
    figure.add_argument("--sim-time", type=float, default=10.0)
    figure.add_argument("--seed", type=int, default=1)
    figure.add_argument("--seeds", type=_positive_int, default=1, metavar="N",
                        help="render the figure from an N-seed ensemble with "
                             "95%% confidence bands (N=1: the plain figure)")
    _add_executor_args(figure)
    figure.add_argument("--plot", action="store_true", help="also print an ASCII plot")
    figure.add_argument("--out", default=None, help="write the series to a JSON file")
    figure.set_defaults(func=cmd_figure)

    workload = subparsers.add_parser("workload", help="generate a synthetic workload CSV")
    _add_common_scenario_args(workload)
    workload.add_argument("--out", required=True, help="output CSV path")
    workload.set_defaults(func=cmd_workload)

    replay = subparsers.add_parser(
        "replay", help="replay a workload CSV through two schemes and compare"
    )
    # Its own dest: the scenario arguments below also define --workload.
    replay.add_argument("trace", metavar="workload",
                        help="CSV produced by the 'workload' command (or any trace)")
    _add_common_scenario_args(replay)
    _add_scheme_args(replay)
    replay.set_defaults(func=cmd_replay)

    report = subparsers.add_parser(
        "report",
        help="run analyses over a result store, or render the benchmark report",
        description="Two modes: with --results, run ANALYSES-registry plugins "
                    "over a JSONL result store and emit their JSON artifacts "
                    "(see docs/ANALYSIS.md); without it, render the markdown "
                    "table from the benchmark result JSONs.",
    )
    report.add_argument("--results", default=None, metavar="PATH",
                        help="JSONL result store to analyse (switches to the "
                             "registry-driven report pipeline)")
    report.add_argument("--analysis", default=None, metavar="NAME",
                        help="which registered analysis to run on --results "
                             "(default: all; see 'list-plugins')")
    report.add_argument("--ensemble", default=None, metavar="LABEL",
                        help="restrict ensemble-aware analyses to one ensemble")
    report.add_argument("--markdown", action="store_true",
                        help="with --results and no --analysis: render the "
                             "composed report as markdown instead of JSON")
    report.add_argument("--results-dir", default="benchmarks/results",
                        help="directory with the benchmark JSON files")
    report.add_argument("--out", default=None, help="write output here instead of stdout")
    report.set_defaults(func=cmd_report)

    worker = subparsers.add_parser(
        "worker",
        help="run a cluster worker daemon (HTTP job runner with a local "
             "write-once result shard)",
        description="One worker per host/port: POST /jobs runs ExperimentJob "
                    "payloads through the shared execution funnel and appends "
                    "canonical results to a local JSONL shard; GET /shard "
                    "streams the shard for merging.  See docs/CLUSTER.md.",
    )
    worker.add_argument("--host", default="127.0.0.1", help="bind address")
    worker.add_argument("--port", type=int, default=8150,
                        help="bind port (0: ephemeral)")
    worker.add_argument("--shard-dir", default=".", metavar="DIR",
                        help="directory for this worker's result shard")
    worker.add_argument("--fsync", action="store_true",
                        help="fsync every shard append")
    worker.add_argument("--verbose", action="store_true",
                        help="log one line per request to stderr")
    worker.set_defaults(func=cmd_worker)

    serve = subparsers.add_parser(
        "serve",
        help="run the coordinator daemon (HTTP job submission + result-store "
             "query API)",
        description="POST /jobs submits ExperimentJob payloads (cache hits "
                    "are free), GET /results queries the store by scheme/"
                    "ensemble.  With --executor cluster and --hosts, "
                    "submissions fan out to worker daemons.  See "
                    "docs/CLUSTER.md.",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8140,
                       help="bind port (0: ephemeral)")
    serve.add_argument("--results", default="results.jsonl", metavar="PATH",
                       help="the persistent JSONL result store")
    serve.add_argument("--executor", default="serial", metavar="KEY",
                       help="backend submissions run on (serial, process, "
                            "cluster, chaos:<inner>)")
    serve.add_argument("--jobs", type=_positive_int, default=None, metavar="N",
                       help="worker count / in-flight window of the backend")
    serve.add_argument("--batch-size", type=_positive_int, default=None,
                       metavar="N", help="jobs per dispatch round-trip")
    serve.add_argument("--hosts", default=None, metavar="H1:P1,H2:P2",
                       help="cluster worker endpoints for --executor cluster")
    serve.add_argument("--hosts-file", default=None, metavar="PATH",
                       help="file of cluster worker endpoints")
    serve.add_argument("--verbose", action="store_true",
                       help="log one line per request to stderr")
    serve.set_defaults(func=cmd_serve)

    store = subparsers.add_parser(
        "store",
        help="result-store maintenance: merge worker shards, compact",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    merge = store_sub.add_parser(
        "merge",
        help="union write-once shards into one store",
        description="Union-of-shards merge keyed by job content: duplicates "
                    "dedup when identical, conflicting results (cross-host "
                    "nondeterminism) abort the merge before anything is "
                    "written.",
    )
    merge.add_argument("shards", nargs="*", metavar="SHARD",
                       help="shard JSONL paths to merge")
    merge.add_argument("--into", required=True, metavar="PATH",
                       help="target store (may already exist; its entries "
                            "participate in conflict validation)")
    merge.add_argument("--hosts", default=None, metavar="H1:P1,H2:P2",
                       help="also fetch GET /shard from these live workers")
    merge.set_defaults(func=cmd_store_merge)
    compact = store_sub.add_parser(
        "compact",
        help="rewrite a store with one line per key (atomic)",
    )
    compact.add_argument("store", help="JSONL result store path")
    compact.set_defaults(func=cmd_store_compact)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    from repro.exec.executors import ExecutionError
    from repro.exec.store import ResultStoreError
    from repro.registry import RegistryError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RegistryError, ExecutionError, ResultStoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())

"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_missing_command_is_an_error(self):
        with pytest.raises(SystemExit):
            main([])

    def test_parser_knows_all_commands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("compare", "run", "sweep", "list-plugins", "figure", "workload", "report"):
            assert command in text


class TestCompareCommand:
    def test_compare_prints_headline_numbers(self, capsys):
        code = main(["compare", "--scenario", "pareto", "--sim-time", "2.5", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mean FCT" in out
        assert "shape checks passed: True" in out

    def test_compare_json_output_is_parseable(self, capsys):
        code = main(["compare", "--scenario", "pareto", "--sim-time", "2.5", "--seed", "3", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["scenario"] == "pareto-poisson"
        assert payload["summary"]["speedup_afct"] > 1.0


class TestCompareWithRegistryKeys:
    def test_compare_on_fattree_via_topology_flag(self, capsys):
        code = main(["compare", "--topology", "fattree", "--sim-time", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mean FCT" in out
        assert "topology=fattree" in out
        assert "RandTCP" in out and "SCDA" in out

    def test_unknown_topology_lists_available(self, capsys):
        code = main(["compare", "--topology", "hypercube", "--sim-time", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown topology" in err
        assert "fattree" in err

    def test_unknown_scheme_lists_available(self, capsys):
        code = main(["compare", "--candidate", "warp", "--sim-time", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown scheme" in err
        assert "rand-tcp" in err


class TestListPluginsCommand:
    def test_lists_all_seven_registries(self, capsys):
        code = main(["list-plugins"])
        out = capsys.readouterr().out
        assert code == 0
        for section in ("topologies:", "workloads:", "schemes:", "placements:",
                        "executors:", "dynamics:", "analyses:"):
            assert section in out
        for name in ("fattree", "vl2", "leafspine", "pareto-poisson", "hedera", "vlb",
                     "serial", "process", "cluster", "chaos",
                     "link-failure", "link-recovery", "capacity-degradation",
                     "block-server-churn", "workload-surge",
                     "scheme-comparison", "sweep-summary", "fct-cdf", "availability"):
            assert name in out

    def test_json_output_is_parseable(self, capsys):
        code = main(["list-plugins", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert "fattree" in payload["topologies"]
        assert payload["topologies"]["fattree"]["config"] == "FatTreeConfig"

    def test_json_output_covers_the_dynamics_registry(self, capsys):
        """Machine-readable discovery of every registry, incl. DYNAMICS."""
        code = main(["list-plugins", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert set(payload) == {"topologies", "workloads", "schemes",
                                "placements", "executors", "dynamics", "analyses"}
        failure = payload["dynamics"]["link-failure"]
        assert failure["config"] == "LinkFailureEvent"
        assert "link-fail" in failure["aliases"]
        assert failure["description"]

    def test_json_output_covers_the_analyses_registry(self, capsys):
        code = main(["list-plugins", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        comparison = payload["analyses"]["scheme-comparison"]
        assert "comparison" in comparison["aliases"]
        assert comparison["description"]


class TestRunCommand:
    def test_run_scenario_file(self, tmp_path, capsys):
        from repro.experiments.spec import ScenarioSpec

        spec = ScenarioSpec(
            name="cli-run",
            seed=3,
            sim_time_s=1.5,
            drain_time_s=20.0,
            topology="leafspine",
            workload="pareto-poisson",
            workload_params={"arrival_rate_per_s": 10.0},
        )
        path = spec.save(tmp_path / "scenario.json")
        code = main(["run", str(path), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code in (0, 1)  # shapes may be noisy at this tiny scale
        assert payload["scenario"] == "cli-run"
        assert payload["summary"]["candidate_mean_fct_s"] > 0

    def test_run_missing_file_errors(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "nope.json")])
        assert code == 2
        assert "cannot load" in capsys.readouterr().err

    def test_run_bad_spec_exits_before_planning(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"topology": "fattree", "topology_params": {"pods": 4}}')
        store = tmp_path / "s.jsonl"
        code = main(["run", str(bad), "--results", str(store)])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot load scenario file" in err and "pods" in err
        assert not store.exists()

    def test_run_badly_typed_field_errors_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"sim_time_s": "10"}')
        code = main(["run", str(bad)])
        assert code == 2
        assert "cannot load" in capsys.readouterr().err

    def test_run_with_process_executor_and_store(self, tmp_path, capsys):
        from repro.exec.store import ResultStore
        from repro.experiments.spec import ScenarioSpec

        path = ScenarioSpec.pareto_poisson(sim_time_s=1.5, seed=3).save(
            tmp_path / "scenario.json"
        )
        store = tmp_path / "results.jsonl"
        code = main(["run", str(path), "--executor", "process", "--jobs", "2",
                     "--results", str(store), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code in (0, 1)
        assert payload["summary"]["candidate_mean_fct_s"] > 0
        assert len(ResultStore(store)) == 2

    def test_run_with_dynamics_script(self, tmp_path, capsys):
        from repro.exec.store import ResultStore
        from repro.experiments.spec import ScenarioSpec

        spec = ScenarioSpec(
            name="cli-dynamics", seed=3, sim_time_s=1.5, drain_time_s=12.0,
            topology="leafspine", workload="pareto-poisson",
            workload_params={"arrival_rate_per_s": 10.0},
        )
        scenario_path = spec.save(tmp_path / "scenario.json")
        script_path = tmp_path / "dynamics.json"
        script_path.write_text(json.dumps([
            {"kind": "link-failure", "at_s": 0.4, "select": "switch-uplink", "index": 0},
            {"kind": "link-recovery", "at_s": 1.0, "select": "switch-uplink", "index": 0},
        ]))
        store = tmp_path / "results.jsonl"
        code = main(["run", str(scenario_path), "--dynamics", str(script_path),
                     "--results", str(store), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code in (0, 1)
        assert payload["scenario"] == "cli-dynamics"
        # The stored jobs carry the script, and the run actually failed links.
        loaded = ResultStore(store)
        assert len(loaded) == 2
        for key in loaded.keys():
            entry = loaded.entry(key)
            assert [e["kind"] for e in entry["job"]["spec"]["dynamics"]] == [
                "link-failure", "link-recovery"]
            assert entry["result"]["extras"]["links_failed"] == 2.0

    def test_run_with_bad_dynamics_script_errors(self, tmp_path, capsys):
        from repro.experiments.spec import ScenarioSpec

        scenario_path = ScenarioSpec.pareto_poisson(sim_time_s=1.0).save(
            tmp_path / "s.json")
        bad = tmp_path / "bad.json"
        bad.write_text('[{"kind": "meteor-strike", "at_s": 1.0}]')
        code = main(["run", str(scenario_path), "--dynamics", str(bad)])
        assert code == 2
        assert "cannot load dynamics script" in capsys.readouterr().err

    def test_run_unknown_executor_lists_available(self, tmp_path, capsys):
        from repro.experiments.spec import ScenarioSpec

        path = ScenarioSpec.pareto_poisson(sim_time_s=1.0).save(tmp_path / "s.json")
        code = main(["run", str(path), "--executor", "slurm"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown executor" in err
        assert "serial" in err

    def test_run_with_seeds_reports_confidence_intervals(self, tmp_path, capsys):
        from repro.exec.store import ResultStore
        from repro.experiments.spec import ScenarioSpec
        from repro.sim.random import derive_seed

        path = ScenarioSpec.pareto_poisson(sim_time_s=1.5, seed=3).save(
            tmp_path / "scenario.json"
        )
        store = tmp_path / "results.jsonl"
        code = main(["run", str(path), "--seeds", "2", "--executor", "process",
                     "--jobs", "2", "--results", str(store), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code in (0, 1)
        assert payload["replicates"] == 2
        assert payload["seeds"] == [3, derive_seed(3, "replicate", "1")]
        speedup = payload["summary"]["speedup_afct"]
        assert speedup["n"] == 2
        assert speedup["ci_lower"] <= speedup["mean"] <= speedup["ci_upper"]
        assert len(ResultStore(store)) == 4  # 2 schemes × 2 replicates

    def test_run_seeds_one_output_matches_plain_run(self, tmp_path, capsys):
        """--seeds 1 must be the historical single-seed path, byte for byte."""
        from repro.experiments.spec import ScenarioSpec

        path = ScenarioSpec.pareto_poisson(sim_time_s=1.5, seed=3).save(
            tmp_path / "scenario.json"
        )
        code_plain = main(["run", str(path), "--json"])
        out_plain = capsys.readouterr().out
        code_seeded = main(["run", str(path), "--seeds", "1", "--json"])
        out_seeded = capsys.readouterr().out
        assert code_plain == code_seeded
        assert out_plain == out_seeded


class TestSweepCommand:
    def test_load_sweep_table_and_summary(self, tmp_path, capsys):
        store = tmp_path / "sweep.jsonl"
        code = main(["sweep", "load", "--points", "10,20", "--sim-time", "1.5",
                     "--seed", "4", "--results", str(store)])
        out = capsys.readouterr().out
        assert code == 0
        assert "arrival rate" in out
        assert "computed=4 cached=0" in out
        # Re-run: every point comes from the store.
        code = main(["sweep", "load", "--points", "10,20", "--sim-time", "1.5",
                     "--seed", "4", "--results", str(store)])
        out = capsys.readouterr().out
        assert code == 0
        assert "computed=0 cached=4" in out

    def test_tau_sweep_json_payload(self, capsys):
        code = main(["sweep", "tau", "--points", "0.01,0.05", "--sim-time", "1.5",
                     "--seed", "4", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["execution"]["jobs"] == 4
        assert len(payload["sweep"]["points"]) == 2
        assert payload["sweep"]["parameter_name"] == "control interval (s)"

    def test_bad_points_error(self, capsys):
        code = main(["sweep", "load", "--points", "ten,20"])
        assert code == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_nonpositive_point_error(self, capsys):
        code = main(["sweep", "load", "--points", "0", "--sim-time", "1"])
        assert code == 2
        assert "positive" in capsys.readouterr().err

    def test_nonpositive_jobs_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "load", "--points", "10", "--jobs", "0"])
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["run", "scenario.json"],
        ["sweep", "load", "--points", "10"],
        ["figure", "fig07"],
        ["serve"],
    ])
    def test_pool_option_is_gone(self, command, capsys):
        # The process backend has one worker lifecycle, so no subcommand
        # takes --pool any more.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(command + ["--pool", "keep"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --pool" in capsys.readouterr().err

    def test_arrival_rate_rejected_for_load_axis(self, capsys):
        code = main(["sweep", "load", "--points", "10", "--arrival-rate", "20"])
        assert code == 2
        assert "tau sweeps" in capsys.readouterr().err

    def test_reseed_changes_point_seeds_and_default_does_not(self, tmp_path, capsys):
        from repro.exec.store import ResultStore
        from repro.sim.random import derive_seed

        default_store = tmp_path / "default.jsonl"
        code = main(["sweep", "load", "--points", "10", "--sim-time", "1",
                     "--seed", "4", "--results", str(default_store)])
        assert code == 0
        default_seeds = {e.job.seed for e in ResultStore(default_store).query()}
        # Default: every point reuses the base seed (historical behaviour).
        assert default_seeds == {4}

        reseed_store = tmp_path / "reseed.jsonl"
        code = main(["sweep", "load", "--points", "10", "--sim-time", "1",
                     "--seed", "4", "--results", str(reseed_store), "--reseed"])
        assert code == 0
        reseed_seeds = {e.job.seed for e in ResultStore(reseed_store).query()}
        # --reseed: the point's seed is pinned to its identity derivation.
        assert reseed_seeds == {derive_seed(4, "sweep", "offered-load", "rate=10")}
        assert reseed_seeds != default_seeds
        capsys.readouterr()

    def test_cli_tau_sweep_shares_store_with_library_default(self, tmp_path, capsys):
        from repro.experiments.sweeps import sweep_control_interval

        store = tmp_path / "tau.jsonl"
        sweep_control_interval([0.01], sim_time=1.5, seed=4, store=str(store))
        code = main(["sweep", "tau", "--points", "0.01", "--sim-time", "1.5",
                     "--seed", "4", "--results", str(store)])
        out = capsys.readouterr().out
        assert code == 0
        # Same operating point (40 flows/s default) → full cache hit.
        assert "computed=0 cached=2" in out


class TestFigureCommand:
    def test_unknown_figure_returns_error_code(self, capsys):
        code = main(["figure", "fig99"])
        assert code == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_figure_table_and_json_output(self, tmp_path, capsys):
        out_file = tmp_path / "fig18.json"
        code = main(
            ["figure", "fig18", "--sim-time", "2.5", "--seed", "3", "--plot", "--out", str(out_file)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fig18" in out
        payload = json.loads(out_file.read_text())
        assert set(payload["series"]) == {"SCDA", "RandTCP"}
        assert "bands" not in payload  # single-seed artifacts are unchanged

    def test_figure_with_seeds_writes_bands_to_json(self, tmp_path, capsys):
        out_file = tmp_path / "fig18_ens.json"
        code = main(["figure", "fig18", "--sim-time", "1.5", "--seed", "3",
                     "--seeds", "2", "--executor", "process", "--jobs", "2",
                     "--out", str(out_file)])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert set(payload["bands"]) == set(payload["series"])
        x, lower, upper = payload["bands"]["SCDA"]
        assert len(x) == len(lower) == len(upper) == len(payload["series"]["SCDA"][0])
        assert "speedup_afct_ci_lower" in payload["summary"]


class TestWorkloadCommand:
    def test_workload_csv_round_trips(self, tmp_path, capsys):
        out_file = tmp_path / "workload.csv"
        code = main(
            ["workload", "--scenario", "video", "--sim-time", "3", "--seed", "2", "--out", str(out_file)]
        )
        assert code == 0
        assert out_file.exists()
        from repro.workloads.traces import Workload

        loaded = Workload.from_csv(out_file)
        assert len(loaded) > 0
        assert "wrote" in capsys.readouterr().out


class TestReplayCommand:
    def test_replay_round_trips_a_generated_workload(self, tmp_path, capsys):
        csv_path = tmp_path / "trace.csv"
        assert main(
            ["workload", "--scenario", "pareto", "--sim-time", "2", "--seed", "5", "--out", str(csv_path)]
        ) == 0
        capsys.readouterr()
        code = main(["replay", str(csv_path), "--scenario", "pareto", "--seed", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "replayed" in out
        assert "shape checks passed: True" in out


class TestReportCommand:
    def test_report_from_results_directory(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig07.json").write_text(
            json.dumps(
                {
                    "summary": {
                        "candidate_mean_fct_s": 0.3,
                        "baseline_mean_fct_s": 1.0,
                        "fct_reduction_fraction": 0.7,
                        "cdf_dominance": 1.0,
                    },
                    "shape": {"all_passed": True},
                }
            )
        )
        out_md = tmp_path / "report.md"
        code = main(["report", "--results-dir", str(results), "--out", str(out_md)])
        assert code == 0
        assert "| fig07 |" in out_md.read_text()

    def test_report_missing_directory_errors(self, tmp_path, capsys):
        code = main(["report", "--results-dir", str(tmp_path / "nope")])
        assert code == 2


class TestReportStoreMode:
    @pytest.fixture
    def store_path(self, tmp_path):
        """A small replication store built without running any simulation."""
        from repro.exec.job import ExperimentJob
        from repro.exec.store import ResultStore
        from repro.experiments.spec import ScenarioSpec
        from repro.metrics.comparison import SchemeResult
        from repro.metrics.records import FlowRecord
        from repro.network.flow import FlowKind

        store = ResultStore(tmp_path / "store.jsonl")
        spec = ScenarioSpec.pareto_poisson(sim_time_s=2.0, seed=1)
        for replicate, seed in ((0, 1), (1, 77)):
            for scheme, role, fct in (("scda", "candidate", 1.0),
                                      ("rand-tcp", "baseline", 2.0)):
                job = ExperimentJob(
                    spec=spec, scheme=scheme, seed=seed,
                    tags={"ensemble": "ens", "replicate": replicate, "role": role},
                )
                result = SchemeResult(
                    scheme="SCDA" if scheme == "scda" else "RandTCP",
                    records=[FlowRecord(0, 1e6, 0.0, 0.0, fct + 0.01 * replicate,
                                        FlowKind.DATA, "a", "b")],
                )
                store.put(job, result)
        return store.path

    def test_single_analysis_artifact(self, store_path, tmp_path, capsys):
        out = tmp_path / "artifact.json"
        code = main(["report", "--results", str(store_path),
                     "--analysis", "scheme-comparison", "--out", str(out)])
        assert code == 0
        artifact = json.loads(out.read_text())
        assert artifact["analysis"] == "scheme-comparison"
        assert artifact["ensembles"]["ens"]["comparison"]["replicates"] == 2
        # The artifact survives a JSON round-trip unchanged.
        assert json.loads(json.dumps(artifact)) == artifact

    def test_composed_report_runs_every_analysis(self, store_path, capsys):
        code = main(["report", "--results", str(store_path)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert {"scheme-comparison", "sweep-summary", "fct-cdf",
                "availability"} <= set(payload["analyses"])

    def test_markdown_mode(self, store_path, capsys):
        code = main(["report", "--results", str(store_path), "--markdown"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Scheme comparison" in out

    def test_unknown_analysis_lists_available(self, store_path, capsys):
        code = main(["report", "--results", str(store_path),
                     "--analysis", "tail-latency"])
        assert code == 2
        assert "scheme-comparison" in capsys.readouterr().err

    def test_unknown_ensemble_lists_stored_labels(self, store_path, capsys):
        code = main(["report", "--results", str(store_path),
                     "--analysis", "scheme-comparison", "--ensemble", "typo"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown ensemble" in err and "ens" in err

    def test_markdown_with_single_analysis_errors(self, store_path, capsys):
        code = main(["report", "--results", str(store_path),
                     "--analysis", "scheme-comparison", "--markdown"])
        assert code == 2
        assert "--markdown" in capsys.readouterr().err

    def test_missing_store_errors(self, tmp_path, capsys):
        code = main(["report", "--results", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "no result store" in capsys.readouterr().err

    def test_analysis_without_results_errors(self, capsys):
        code = main(["report", "--analysis", "scheme-comparison"])
        assert code == 2
        assert "--results" in capsys.readouterr().err

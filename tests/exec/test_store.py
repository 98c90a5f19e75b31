"""Tests for the JSONL result store."""

import json

import pytest

from repro.exec.job import ExperimentJob
from repro.exec.store import ResultStore, ResultStoreError
from repro.experiments.spec import ScenarioSpec
from repro.metrics.comparison import SchemeResult
from repro.metrics.records import FlowRecord
from repro.network.flow import FlowKind


def make_job(seed=5, scheme="scda"):
    return ExperimentJob(
        spec=ScenarioSpec.pareto_poisson(sim_time_s=2.0, seed=seed), scheme=scheme
    )


def make_result(scheme="SCDA", n_records=2):
    records = [
        FlowRecord(
            flow_id=i,
            size_bytes=1000.0 * (i + 1),
            created_at_s=0.1 * i,
            started_at_s=0.1 * i + 0.01,
            finished_at_s=0.1 * i + 0.5,
            kind=FlowKind.DATA,
            src=f"ucl-{i}",
            dst="bs-0",
        )
        for i in range(n_records)
    ]
    return SchemeResult(
        scheme=scheme, records=records, sla_violations=1, wall_clock_s=3.14,
        extras={"events_processed": 42.0},
    )


class TestResultStore:
    def test_missing_file_reads_empty(self, tmp_path):
        store = ResultStore(tmp_path / "none.jsonl")
        assert len(store) == 0
        assert store.get("deadbeef") is None

    def test_put_then_get_round_trips_canonically(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        job, result = make_job(), make_result()
        key = store.put(job, result)
        assert key == job.key
        assert job in store
        loaded = store.get(job)
        # Canonical: everything but the wall clock round-trips.
        assert loaded.canonical_dict() == result.canonical_dict()
        assert loaded.wall_clock_s == 0.0

    def test_wall_clock_is_kept_as_line_meta(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        job = make_job()
        store.put(job, make_result(), meta={"executor": "serial"})
        entry = store.entry(job.key)
        assert entry["meta"]["executor"] == "serial"
        assert entry["meta"]["wall_clock_s"] == pytest.approx(3.14)
        assert "wall_clock_s" not in entry["result"]

    def test_reopened_store_sees_previous_writes(self, tmp_path):
        path = tmp_path / "r.jsonl"
        job = make_job()
        ResultStore(path).put(job, make_result())
        fresh = ResultStore(path)
        assert job in fresh
        assert fresh.get(job).scheme == "SCDA"

    def test_results_by_key_excludes_meta(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        job = make_job()
        store.put(job, make_result(), meta={"executor": "process"})
        by_key = store.results_by_key()
        assert set(by_key) == {job.key}
        assert "meta" not in by_key[job.key]

    def test_identical_reput_appends_and_compact_dedupes(self, tmp_path):
        # A restarted run recomputing a job it already stored appends an
        # identical line (last write wins on load); compact dedupes it.
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        job = make_job()
        store.put(job, make_result(n_records=3))
        store.put(job, make_result(n_records=3))
        assert len(path.read_text().splitlines()) == 2
        reloaded = ResultStore(path)
        assert len(reloaded.get(job).records) == 3
        assert reloaded.compact() == 1
        assert len(path.read_text().splitlines()) == 1
        assert len(ResultStore(path).get(job).records) == 3

    def test_conflicting_reput_raises(self, tmp_path):
        # The same content key computing *different* numbers is exactly the
        # nondeterminism the store exists to rule out: refuse loudly.
        store = ResultStore(tmp_path / "r.jsonl")
        job = make_job()
        store.put(job, make_result(n_records=1))
        with pytest.raises(ResultStoreError, match="nondeterminism"):
            store.put(job, make_result(n_records=3))
        # The conflicting line was never written.
        assert len((tmp_path / "r.jsonl").read_text().splitlines()) == 1

    def test_fsync_append_durability_option(self, tmp_path):
        # fsync=True (constructor default or per-put override) must not
        # change what is written, only when it hits stable storage.
        job, result = make_job(), make_result()
        plain = ResultStore(tmp_path / "plain.jsonl")
        plain.put(job, result)
        durable = ResultStore(tmp_path / "durable.jsonl", fsync=True)
        durable.put(job, result)
        per_call = ResultStore(tmp_path / "per_call.jsonl")
        per_call.put(job, result, fsync=True)
        contents = {
            p.read_text() for p in tmp_path.glob("*.jsonl")
        }
        assert len(contents) == 1  # byte-identical lines on all three paths

    def test_truncated_final_line_is_dropped_and_recomputable(self, tmp_path):
        # The signature of a run killed mid-append: resume must survive it.
        path = tmp_path / "crashed.jsonl"
        job = make_job()
        ResultStore(path).put(job, make_result())
        with path.open("a") as fh:
            fh.write('{"key": "zzz", "job": {"trunc')  # partial append
        with pytest.warns(UserWarning, match="truncated final"):
            store = ResultStore(path)
            assert len(store) == 1
        assert job in store  # the intact entry survives

    def test_corrupt_interior_line_raises_with_location(self, tmp_path):
        from repro.exec.store import ResultStoreError

        path = tmp_path / "bad.jsonl"
        path.write_text('not json\n{"key": "a", "result": {}}\n')
        with pytest.raises(ResultStoreError, match="bad.jsonl:1"):
            len(ResultStore(path))

    def test_store_lines_are_plain_json(self, tmp_path):
        path = tmp_path / "r.jsonl"
        ResultStore(path).put(make_job(), make_result())
        entry = json.loads(path.read_text().splitlines()[0])
        assert set(entry) == {"key", "job", "result", "meta"}


class TestDictPut:
    """``put`` accepting the pre-encoded canonical/to_dict forms directly.

    The dispatch paths already hold the plain dict (as it crossed the pipe);
    re-hydrating to a SchemeResult only to re-serialise it was pure overhead.
    The contract: a dict put writes the byte-identical line a SchemeResult
    put would have.
    """

    def test_dict_put_writes_the_identical_line(self, tmp_path):
        job, result = make_job(), make_result()
        a = ResultStore(tmp_path / "obj.jsonl")
        a.put(job, result)
        b = ResultStore(tmp_path / "dict.jsonl")
        b.put(job, result.to_dict())
        assert (tmp_path / "obj.jsonl").read_text() == (
            tmp_path / "dict.jsonl"
        ).read_text()

    def test_canonical_dict_put_defaults_wall_clock_to_zero(self, tmp_path):
        job, result = make_job(), make_result()
        store = ResultStore(tmp_path / "r.jsonl")
        store.put(job, result.canonical_dict())  # no wall_clock_s key
        entry = store.entry(job.key)
        assert entry["meta"]["wall_clock_s"] == 0.0
        assert store.get(job).canonical_dict() == result.canonical_dict()

    def test_dict_put_missing_required_keys_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        bad = make_result().canonical_dict()
        del bad["records"]
        with pytest.raises(ResultStoreError, match="records"):
            store.put(make_job(), bad)
        assert len(store) == 0

    def test_dict_put_conflict_detection_unchanged(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        job = store_job = make_job()
        store.put(job, make_result(n_records=1).to_dict())
        with pytest.raises(ResultStoreError, match="nondeterminism"):
            store.put(store_job, make_result(n_records=3).to_dict())
        # Mixed forms conflict-check against each other too.
        store.put(job, make_result(n_records=1))  # identical: appends fine
        with pytest.raises(ResultStoreError, match="nondeterminism"):
            store.put(job, make_result(n_records=2))

    def test_dict_put_wall_clock_lands_in_meta_not_result(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        job = make_job()
        store.put(job, make_result().to_dict(), meta={"executor": "worker"})
        entry = store.entry(job.key)
        assert entry["meta"]["wall_clock_s"] == pytest.approx(3.14)
        assert entry["meta"]["executor"] == "worker"
        assert "wall_clock_s" not in entry["result"]


class TestCrashSafeRewrite:
    def _populated(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        store.put(make_job(seed=1), make_result(n_records=1))
        store.put(make_job(seed=2), make_result(n_records=2))
        # A restarted/concurrent run appended a duplicate line for seed=1;
        # simulate the on-disk append directly, then reload to pick it up.
        first_line = path.read_text().splitlines()[0]
        with path.open("a") as fh:
            fh.write(first_line + "\n")
        store.reload()
        return path, store

    def test_failed_replace_leaves_original_jsonl_intact(self, tmp_path, monkeypatch):
        import repro.exec.store as store_module

        path, store = self._populated(tmp_path)
        before = path.read_bytes()

        def boom(src, dst):
            raise OSError("simulated crash mid-compact")

        monkeypatch.setattr(store_module.os, "replace", boom)
        with pytest.raises(OSError, match="simulated crash"):
            store.compact()
        # Original store byte-identical, temp file cleaned up, still loadable.
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))
        assert len(ResultStore(path)) == 2

    def test_failed_write_leaves_original_jsonl_intact(self, tmp_path, monkeypatch):
        from pathlib import Path

        path, store = self._populated(tmp_path)
        before = path.read_bytes()
        real_write_text = Path.write_text

        def boom(self, *args, **kwargs):
            if self.name.endswith(".compact.tmp"):
                real_write_text(self, "partial garbage", encoding="utf-8")
                raise OSError("ENOSPC: simulated")
            return real_write_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", boom)
        with pytest.raises(OSError, match="ENOSPC"):
            store.compact()
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_successful_compact_still_dedupes(self, tmp_path):
        path, store = self._populated(tmp_path)
        assert store.compact() == 2
        assert len(path.read_text().splitlines()) == 2


class TestQueryApi:
    def _store_with_tags(self, tmp_path):
        store = ResultStore(tmp_path / "q.jsonl")
        for seed, scheme, role in ((1, "scda", "candidate"), (1, "rand-tcp", "baseline"),
                                   (2, "scda", "candidate"), (2, "rand-tcp", "baseline")):
            replicate = seed - 1
            job = ExperimentJob(
                spec=ScenarioSpec.pareto_poisson(sim_time_s=2.0, seed=seed),
                scheme=scheme,
                tags={"ensemble": "ens-a", "replicate": replicate, "role": role},
            )
            store.put(job, make_result(scheme="SCDA" if scheme == "scda" else "RandTCP"))
        return store

    def test_entries_sorted_is_deterministic_and_typed(self, tmp_path):
        store = self._store_with_tags(tmp_path)
        entries = store.entries_sorted()
        assert len(entries) == 4
        assert [e.replicate for e in entries] == [0, 0, 1, 1]
        assert [e.scheme_name for e in entries] == ["rand-tcp", "scda"] * 2
        assert entries[0].ensemble == "ens-a"
        assert entries[0].result.completed_flows == 2

    def test_query_by_scheme_and_tags(self, tmp_path):
        store = self._store_with_tags(tmp_path)
        assert len(store.query(scheme="scda")) == 2
        assert len(store.query(tags={"role": "baseline"})) == 2
        assert len(store.query(scheme="scda", tags={"replicate": 1})) == 1
        assert store.query(scheme="nonexistent") == []

    def test_query_by_spec_fields(self, tmp_path):
        store = self._store_with_tags(tmp_path)
        assert len(store.query(spec_fields={"seed": 1})) == 2
        assert len(store.query(spec_fields={"topology": "tree"})) == 4
        with pytest.raises(ResultStoreError, match="unknown ScenarioSpec field"):
            store.query(spec_fields={"not_a_field": 1})

    def test_query_predicate(self, tmp_path):
        store = self._store_with_tags(tmp_path)
        picked = store.query(predicate=lambda e: e.job.seed == 2)
        assert len(picked) == 2

    def test_group_by_ensemble_and_schemes(self, tmp_path):
        store = self._store_with_tags(tmp_path)
        groups = store.group_by_ensemble()
        assert set(groups) == {"ens-a"}
        assert len(groups["ens-a"]) == 4
        assert store.schemes() == ["rand-tcp", "scda"]

    def test_untagged_entries_group_under_scenario_name(self, tmp_path):
        store = ResultStore(tmp_path / "plain.jsonl")
        store.put(make_job(), make_result())
        groups = store.group_by_ensemble()
        assert set(groups) == {"pareto-poisson"}
        assert groups["pareto-poisson"][0].replicate == 0
        # The stored job round-trips back to a runnable job with the same key.
        entry = groups["pareto-poisson"][0]
        assert entry.job.key == entry.key


class TestMerge:
    def shard(self, tmp_path, name, seeds, scheme="scda"):
        store = ResultStore(tmp_path / name)
        for seed in seeds:
            store.put(make_job(seed=seed, scheme=scheme), make_result())
        return store

    def test_merge_unions_disjoint_shards(self, tmp_path):
        a = self.shard(tmp_path, "a.jsonl", seeds=[1, 2])
        b = self.shard(tmp_path, "b.jsonl", seeds=[3])
        merged = ResultStore(tmp_path / "merged.jsonl")
        added = merged.merge([a.path, b.path])
        assert added == 3
        assert merged.results_by_key() == {**a.results_by_key(), **b.results_by_key()}

    def test_merge_dedups_identical_entries(self, tmp_path):
        a = self.shard(tmp_path, "a.jsonl", seeds=[1, 2])
        b = self.shard(tmp_path, "b.jsonl", seeds=[2, 3])  # seed 2 in both
        merged = ResultStore(tmp_path / "merged.jsonl")
        assert merged.merge([a, b]) == 3
        assert len(merged) == 3

    def test_merge_into_existing_store_skips_known_keys(self, tmp_path):
        merged = self.shard(tmp_path, "merged.jsonl", seeds=[1])
        shard = self.shard(tmp_path, "a.jsonl", seeds=[1, 2])
        assert merged.merge([shard]) == 1  # only seed 2 is new
        assert len(merged) == 2

    def test_conflicting_results_abort_the_merge(self, tmp_path):
        job = make_job(seed=7)
        a = ResultStore(tmp_path / "a.jsonl")
        a.put(job, make_result())
        b = ResultStore(tmp_path / "b.jsonl")
        b.put(job, make_result(n_records=3))  # same key, different result
        merged = self.shard(tmp_path, "merged.jsonl", seeds=[1])
        before = merged.path.read_bytes()
        with pytest.raises(ResultStoreError, match="shard merge conflict"):
            merged.merge([a, b])
        # atomic: the target store is untouched on conflict
        assert merged.path.read_bytes() == before
        assert len(ResultStore(merged.path)) == 1

    def test_merge_is_atomic_and_compacted(self, tmp_path):
        a = self.shard(tmp_path, "a.jsonl", seeds=[1, 2])
        merged = ResultStore(tmp_path / "merged.jsonl")
        merged.merge([a])
        lines = merged.path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["key"] for line in lines)

    def test_merged_classmethod(self, tmp_path):
        a = self.shard(tmp_path, "a.jsonl", seeds=[1])
        b = self.shard(tmp_path, "b.jsonl", seeds=[2])
        merged = ResultStore.merged([a.path, b.path], into=tmp_path / "out.jsonl")
        assert len(merged) == 2
        # and the written file reloads identically
        assert ResultStore(merged.path).results_by_key() == merged.results_by_key()

    def test_merge_empty_shard_list_is_a_noop(self, tmp_path):
        merged = self.shard(tmp_path, "merged.jsonl", seeds=[1])
        before = merged.path.read_bytes()
        assert merged.merge([]) == 0
        assert merged.path.read_bytes() == before


class TestReadingWithoutTheRegistry:
    """A store is read from its stored dicts: listing, grouping and reporting
    it needs none of the plugins its jobs name."""

    WRITER = """
import sys
from repro.exec import run_jobs
from repro.exec.planner import plan_replications
from repro.experiments.spec import ScenarioSpec
from repro.network.tree import TreeTopologyConfig, build_tree_topology
from repro.registry import TOPOLOGIES

TOPOLOGIES.register("my-tree", build_tree_topology, config_cls=TreeTopologyConfig)
spec = ScenarioSpec(
    name="custom-tree", seed=1, sim_time_s=0.5, drain_time_s=5.0,
    topology="my-tree", workload="pareto-poisson",
    workload_params={"arrival_rate_per_s": 20.0},
)
jobs = plan_replications(spec, schemes=("scda", "rand-tcp"), seeds=2)
report = run_jobs(jobs, executor="serial", store=sys.argv[1])
assert not report.failures, report.failures
"""

    READER = """
import json, sys
from repro.exec.store import ResultStore
store = ResultStore(sys.argv[1])
entries = store.entries_sorted()
print(json.dumps({
    "entries": len(entries),
    "ensembles": sorted(store.group_by_ensemble()),
    "schemes": store.schemes(),
    "seeds": [e.seed for e in store.query(scheme="scda")],
}))
"""

    def _run(self, *args):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[2] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        return subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
        )

    def test_a_store_naming_an_unregistered_plugin_is_listed_grouped_and_reported(
        self, tmp_path
    ):
        path = str(tmp_path / "custom.jsonl")
        written = self._run("-c", self.WRITER, path)
        assert written.returncode == 0, written.stderr

        listed = self._run("-c", self.READER, path)
        assert listed.returncode == 0, listed.stderr
        listing = json.loads(listed.stdout)
        assert listing["entries"] == 4
        assert listing["ensembles"] == ["custom-tree"]
        assert listing["schemes"] == ["rand-tcp", "scda"]
        assert len(listing["seeds"]) == 2 and listing["seeds"][0] == 1

        reported = self._run("-m", "repro", "report", "--results", path)
        assert reported.returncode == 0, reported.stderr
        assert "custom-tree" in reported.stdout

        # Asking for the typed job is what needs the plugin.
        typed = self._run(
            "-c",
            "import sys\nfrom repro.exec.store import ResultStore\n"
            "ResultStore(sys.argv[1]).entries_sorted()[0].job",
            path,
        )
        assert typed.returncode != 0
        assert "my-tree" in typed.stderr

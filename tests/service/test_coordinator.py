"""Tests for the ``repro serve`` coordinator: submission, caching, queries."""

import pytest

from repro.exec.executors import run_jobs
from repro.exec.planner import plan_replications
from repro.exec.store import ResultStore
from repro.experiments.spec import ScenarioSpec
from repro.service import protocol
from repro.service.coordinator import CoordinatorServer


def tiny_jobs(seeds=2):
    spec = ScenarioSpec.pareto_poisson(sim_time_s=1.0, seed=3)
    return plan_replications(spec, seeds=seeds)


@pytest.fixture()
def coordinator(tmp_path):
    server = CoordinatorServer(port=0, store_path=tmp_path / "store.jsonl")
    with server:
        yield server


def url(server, path):
    return f"http://{server.host}:{server.port}{path}"


class TestSubmission:
    def test_submit_runs_and_stores(self, coordinator):
        jobs = tiny_jobs()
        answer = protocol.http_json(
            "POST", url(coordinator, protocol.JOBS_PATH),
            {"jobs": [job.to_dict() for job in jobs]},
        )
        assert answer["summary"]["computed"] == len(jobs)
        assert answer["summary"]["failed"] == 0
        assert all(status["ok"] for status in answer["jobs"])
        assert len(ResultStore(coordinator.store.path)) == len(jobs)

    def test_resubmission_is_all_cache_hits(self, coordinator):
        jobs = tiny_jobs()
        body = {"jobs": [job.to_dict() for job in jobs]}
        protocol.http_json("POST", url(coordinator, protocol.JOBS_PATH), body)
        again = protocol.http_json("POST", url(coordinator, protocol.JOBS_PATH), body)
        assert again["summary"]["computed"] == 0
        assert again["summary"]["cached"] == len(jobs)

    def test_unhydratable_payload_is_a_400(self, coordinator):
        from repro.exec.retry import ClusterTransportError

        good = tiny_jobs(seeds=1)[0]
        bad = good.to_dict()
        bad["scheme"] = "no-such-scheme"
        with pytest.raises(ClusterTransportError, match="HTTP 400"):
            protocol.http_json(
                "POST", url(coordinator, protocol.JOBS_PATH),
                {"jobs": [good.to_dict(), bad]},
            )
        # the batch was rejected atomically: nothing ran, nothing stored
        assert len(ResultStore(coordinator.store.path)) == 0

    def test_bad_spec_is_a_400_at_submit(self, coordinator):
        from repro.exec.retry import ClusterTransportError

        good = tiny_jobs(seeds=1)[0]
        bad = good.to_dict()
        bad["spec"]["scda_params"] = {"alpha": -5}
        with pytest.raises(ClusterTransportError, match="HTTP 400.*alpha"):
            protocol.http_json(
                "POST", url(coordinator, protocol.JOBS_PATH),
                {"jobs": [good.to_dict(), bad]},
            )
        assert len(ResultStore(coordinator.store.path)) == 0

    def test_submit_accepts_a_policy(self, coordinator):
        job = tiny_jobs(seeds=1)[0]
        answer = protocol.http_json(
            "POST", url(coordinator, protocol.JOBS_PATH),
            {
                "jobs": [job.to_dict()],
                "policy": {"max_attempts": 3, "timeout_s": None},
            },
        )
        assert answer["summary"]["computed"] == 1

    def test_bad_bodies_are_400(self, coordinator):
        from repro.exec.retry import ClusterTransportError

        for body in (None, {"jobs": []}, {"nope": 1}):
            with pytest.raises(ClusterTransportError, match="HTTP 400"):
                protocol.http_json("POST", url(coordinator, protocol.JOBS_PATH), body)


class TestQueries:
    def test_results_query_filters_by_scheme(self, coordinator):
        jobs = tiny_jobs()
        protocol.http_json(
            "POST", url(coordinator, protocol.JOBS_PATH),
            {"jobs": [job.to_dict() for job in jobs]},
        )
        everything = protocol.http_json("GET", url(coordinator, protocol.RESULTS_PATH))
        assert len(everything["entries"]) == len(jobs)
        scda = protocol.http_json(
            "GET", url(coordinator, protocol.RESULTS_PATH) + "?scheme=scda"
        )
        assert {entry["scheme"] for entry in scda["entries"]} == {"scda"}

    def test_single_result_lookup(self, coordinator):
        job = tiny_jobs(seeds=1)[0]
        protocol.http_json(
            "POST", url(coordinator, protocol.JOBS_PATH), {"jobs": [job.to_dict()]}
        )
        entry = protocol.http_json(
            "GET", url(coordinator, protocol.RESULTS_PATH) + "/" + job.key
        )
        assert entry["key"] == job.key
        assert entry["result"]  # canonical result dict present

    def test_missing_key_is_404(self, coordinator):
        from repro.exec.retry import ClusterTransportError

        with pytest.raises(ClusterTransportError, match="HTTP 404"):
            protocol.http_json(
                "GET", url(coordinator, protocol.RESULTS_PATH) + "/deadbeef"
            )

    def test_healthz_and_stats(self, coordinator):
        health = protocol.http_json("GET", url(coordinator, protocol.HEALTH_PATH))
        assert health["status"] == "ok"
        jobs = tiny_jobs(seeds=1)
        protocol.http_json(
            "POST", url(coordinator, protocol.JOBS_PATH),
            {"jobs": [job.to_dict() for job in jobs]},
        )
        stats = protocol.http_json("GET", url(coordinator, protocol.STATS_PATH))
        assert stats["batches"] == 1
        assert stats["store_entries"] == len(jobs)

    def test_process_backend_daemon_batches_equal_serial(self, tmp_path):
        # Consecutive submissions on the process backend: each batch forks
        # its own workers, the computed counter accumulates across batches,
        # and the store they build equals a serial run of the same jobs.
        server = CoordinatorServer(
            port=0, store_path=tmp_path / "store.jsonl",
            executor="process", max_workers=2,
        )
        first = tiny_jobs(seeds=1)
        second = tiny_jobs(seeds=2)  # superset: one batch of new keys
        with server:
            for jobs in (first, second):
                answer = protocol.http_json(
                    "POST", url(server, protocol.JOBS_PATH),
                    {"jobs": [job.to_dict() for job in jobs]},
                )
                assert answer["summary"]["failed"] == 0
            stats = protocol.http_json("GET", url(server, protocol.STATS_PATH))
            assert stats["batches"] == 2
            assert stats["computed"] == len(second)
        run_jobs(second, executor="serial", store=str(tmp_path / "serial.jsonl"))
        served = ResultStore(tmp_path / "store.jsonl").results_by_key()
        serial = ResultStore(tmp_path / "serial.jsonl").results_by_key()
        assert served and served == serial

    def test_stats_aggregates_kernel_counters(self, coordinator):
        """``/stats`` sums the per-run ``kernel_*`` extras across the store."""
        jobs = tiny_jobs(seeds=2)
        protocol.http_json(
            "POST", url(coordinator, protocol.JOBS_PATH),
            {"jobs": [job.to_dict() for job in jobs]},
        )
        stats = protocol.http_json("GET", url(coordinator, protocol.STATS_PATH))
        kernel = stats["kernel"]
        assert kernel["kernel_recomputes"] > 0

        entries = ResultStore(coordinator.store.path).query()
        expected = sum(e.result.extras["kernel_recomputes"] for e in entries)
        assert kernel["kernel_recomputes"] == expected
        # _max-suffixed counters aggregate as a maximum, not a sum.
        per_run_max = [
            e.result.extras[k]
            for e in entries
            for k in e.result.extras
            if k.startswith("kernel_") and k.endswith("_max")
        ]
        if per_run_max:
            key = next(
                k
                for k in entries[0].result.extras
                if k.startswith("kernel_") and k.endswith("_max")
            )
            assert kernel[key] == max(
                e.result.extras[key] for e in entries
            )

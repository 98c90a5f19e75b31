"""Tests for the worker daemon: endpoints, shard writes, failure transport."""

import json

import pytest

from repro.exec.job import ExperimentJob
from repro.exec.planner import plan_comparison
from repro.exec.store import ResultStore
from repro.experiments.spec import ScenarioSpec
from repro.service import protocol
from repro.service.worker import WorkerServer, shard_filename


def tiny_jobs(sim_time_s=1.0, seed=3):
    return plan_comparison(ScenarioSpec.pareto_poisson(sim_time_s=sim_time_s, seed=seed))


@pytest.fixture()
def worker(tmp_path):
    with WorkerServer(port=0, shard_dir=tmp_path) as server:
        yield server


class TestEndpoints:
    def test_healthz(self, worker):
        answer = protocol.http_json("GET", worker_url(worker, protocol.HEALTH_PATH))
        assert answer["status"] == "ok"
        assert answer["worker"] == f"{worker.host}:{worker.port}"

    def test_stats_counts_jobs(self, worker):
        jobs = tiny_jobs()
        protocol.http_json(
            "POST",
            worker_url(worker, protocol.JOBS_PATH),
            {"jobs": [job.to_dict() for job in jobs]},
        )
        stats = protocol.http_json("GET", worker_url(worker, protocol.STATS_PATH))
        assert stats["chunks"] == 1
        assert stats["jobs_ok"] == len(jobs)
        assert stats["shard_entries"] == len(jobs)

    def test_unknown_path_is_404(self, worker):
        from repro.exec.retry import ClusterTransportError

        with pytest.raises(ClusterTransportError, match="HTTP 404"):
            protocol.http_json("GET", worker_url(worker, "/nope"))

    def test_bad_jobs_body_is_400(self, worker):
        from repro.exec.retry import ClusterTransportError

        with pytest.raises(ClusterTransportError, match="HTTP 400"):
            protocol.http_json("POST", worker_url(worker, protocol.JOBS_PATH), {"jobs": []})


class TestJobExecution:
    def test_single_payload_runs_and_lands_in_shard(self, worker):
        job = tiny_jobs()[0]
        answer = protocol.http_json(
            "POST", worker_url(worker, protocol.JOBS_PATH), job.to_dict()
        )
        assert [o["ok"] for o in answer["outcomes"]] == [True]
        shard = ResultStore(worker.shard_path)
        assert job.key in shard

    def test_chunk_outcomes_match_serial_execution(self, worker):
        from repro.exec.executors import run_jobs
        from repro.metrics.comparison import SchemeResult

        jobs = tiny_jobs()
        serial = run_jobs(jobs, executor="serial")
        answer = protocol.http_json(
            "POST",
            worker_url(worker, protocol.JOBS_PATH),
            {"jobs": [job.to_dict() for job in jobs]},
        )
        outcomes = answer["outcomes"]
        assert len(outcomes) == len(jobs)
        for job, outcome in zip(jobs, outcomes):
            assert outcome["ok"]
            # the transported payload carries the worker's wall clock; the
            # *canonical* result must be bit-identical to the serial run
            computed = SchemeResult.from_dict(outcome["result"]).canonical_dict()
            assert computed == serial.results[job.key].canonical_dict()

    def test_job_failure_travels_in_band_with_exc_type(self, worker):
        payload = tiny_jobs()[0].to_dict()
        payload["scheme"] = "no-such-scheme"
        answer = protocol.http_json(
            "POST", worker_url(worker, protocol.JOBS_PATH), {"jobs": [payload]}
        )
        (outcome,) = answer["outcomes"]
        assert not outcome["ok"]
        assert outcome["exc_type"] == "RegistryError"
        assert "no-such-scheme" in outcome["error"]
        # failed jobs never touch the shard
        assert len(ResultStore(worker.shard_path)) == 0

    def test_duplicate_submission_is_a_free_re_put(self, worker):
        job = tiny_jobs()[0]
        for _ in range(2):
            answer = protocol.http_json(
                "POST", worker_url(worker, protocol.JOBS_PATH), {"jobs": [job.to_dict()]}
            )
            assert answer["outcomes"][0]["ok"]
        assert len(ResultStore(worker.shard_path)) == 1


class TestShard:
    def test_shard_endpoint_streams_the_file(self, worker):
        job = tiny_jobs()[0]
        protocol.http_json(
            "POST", worker_url(worker, protocol.JOBS_PATH), {"jobs": [job.to_dict()]}
        )
        text = protocol.http_text(worker_url(worker, protocol.SHARD_PATH))
        assert text == worker.shard_path.read_text(encoding="utf-8")
        entry = json.loads(text.splitlines()[0])
        assert entry["key"] == job.key

    def test_empty_shard_streams_empty(self, worker):
        assert protocol.http_text(worker_url(worker, protocol.SHARD_PATH)) == ""

    def test_shard_filename_is_deterministic_per_endpoint(self):
        assert shard_filename("127.0.0.1", 8150) == shard_filename("127.0.0.1", 8150)
        assert shard_filename("127.0.0.1", 8150) != shard_filename("127.0.0.1", 8151)

    def test_restarted_worker_reuses_its_shard(self, tmp_path):
        job = tiny_jobs()[0]
        first = WorkerServer(port=0, shard_dir=tmp_path).start()
        port = first.port
        protocol.http_json(
            "POST", worker_url(first, protocol.JOBS_PATH), {"jobs": [job.to_dict()]}
        )
        first.stop()
        second = WorkerServer(port=port, shard_dir=tmp_path).start()
        try:
            assert second.shard_path == first.shard_path
            assert job.key in ResultStore(second.shard_path)
        finally:
            second.stop()


class TestChaosEnvelope:
    def test_chaos_crash_does_not_kill_the_daemon(self, worker):
        payload = tiny_jobs()[0].to_dict()
        payload["__chaos__"] = {"mode": "crash", "delay_s": 0.0, "crash_ok": False}
        answer = protocol.http_json(
            "POST", worker_url(worker, protocol.JOBS_PATH), {"jobs": [payload]}
        )
        (outcome,) = answer["outcomes"]
        assert not outcome["ok"]
        assert outcome["exc_type"] == "ChaosCrashError"
        # the daemon survived the injected crash
        assert protocol.http_json("GET", worker_url(worker, protocol.HEALTH_PATH))[
            "status"
        ] == "ok"

    def test_corrupt_results_never_reach_the_shard(self, worker):
        payload = tiny_jobs()[0].to_dict()
        payload["__chaos__"] = {"mode": "corrupt", "delay_s": 0.0, "crash_ok": False}
        answer = protocol.http_json(
            "POST", worker_url(worker, protocol.JOBS_PATH), {"jobs": [payload]}
        )
        (outcome,) = answer["outcomes"]
        # the worker reports the (corrupt) payload as-is; the *client* is the
        # one that classifies it as CorruptResultError on hydration
        assert outcome["ok"]
        assert len(ResultStore(worker.shard_path)) == 0

    def test_chaos_envelope_does_not_change_the_job_key(self, worker):
        job = tiny_jobs()[0]
        payload = job.to_dict()
        payload["__chaos__"] = {"mode": "delay", "delay_s": 0.01, "crash_ok": False}
        protocol.http_json(
            "POST", worker_url(worker, protocol.JOBS_PATH), {"jobs": [payload]}
        )
        shard = ResultStore(worker.shard_path)
        assert job.key in shard
        assert ExperimentJob.from_dict(payload).key == job.key


class TestResultWire:
    """``POST /jobs`` answers carry each result as its plain ``to_dict()``."""

    def test_outcomes_carry_the_plain_result_dict(self, worker):
        from repro.exec.executors import run_jobs

        jobs = tiny_jobs()
        serial = run_jobs(jobs, executor="serial")
        answer = protocol.http_json(
            "POST",
            worker_url(worker, protocol.JOBS_PATH),
            {"jobs": [job.to_dict() for job in jobs]},
        )
        assert set(answer) == {"outcomes"}
        for job, outcome in zip(jobs, answer["outcomes"]):
            assert set(outcome) == {"ok", "result"}
            expected = serial.results[job.key].to_dict()
            assert set(outcome["result"]) == set(expected)
            assert outcome["result"]["wall_clock_s"] > 0.0
            del outcome["result"]["wall_clock_s"], expected["wall_clock_s"]
            assert outcome["result"] == expected

    def test_a_wire_field_from_an_older_client_is_ignored(self, tmp_path):
        # Clients that negotiated a columnar encoding sent "wire" next to
        # the jobs; today's workers answer them like any other request.
        job = tiny_jobs()[0]
        answers, shards = [], []
        for label, extra in (("plain", {}), ("older", {"wire": "columnar"})):
            with WorkerServer(port=0, shard_dir=tmp_path / label) as server:
                answers.append(
                    protocol.http_json(
                        "POST",
                        worker_url(server, protocol.JOBS_PATH),
                        {"jobs": [job.to_dict()], **extra},
                    )
                )
                shards.append(ResultStore(server.shard_path).results_by_key())
        for answer in answers:
            answer["outcomes"][0]["result"].pop("wall_clock_s")
        assert answers[0] == answers[1]
        assert shards[0] == shards[1] and job.key in shards[0]

    def test_corrupt_result_ships_as_it_came(self, worker):
        # The worker does not repair or drop a corrupt dict; it forwards it
        # so the dispatcher's hydration check can classify and retry it.
        job = tiny_jobs()[0]
        clean = protocol.http_json(
            "POST", worker_url(worker, protocol.JOBS_PATH), {"jobs": [job.to_dict()]}
        )["outcomes"][0]["result"]
        payload = job.to_dict()
        payload["__chaos__"] = {"mode": "corrupt", "delay_s": 0.0, "crash_ok": False}
        (outcome,) = protocol.http_json(
            "POST", worker_url(worker, protocol.JOBS_PATH), {"jobs": [payload]}
        )["outcomes"]
        damaged = outcome["result"]
        assert outcome["ok"]
        assert damaged.pop("__chaos_corrupted__") is True
        assert "scheme" not in damaged
        for result in (damaged, clean):
            result.pop("wall_clock_s")
        clean.pop("scheme")
        assert damaged == clean

    def test_stats_count_chunks_and_failed_jobs(self, worker):
        jobs = tiny_jobs()
        bad = jobs[0].to_dict()
        bad["scheme"] = "no-such-scheme"
        for body in ({"jobs": [job.to_dict() for job in jobs]}, {"jobs": [bad]}):
            protocol.http_json("POST", worker_url(worker, protocol.JOBS_PATH), body)
        stats = protocol.http_json("GET", worker_url(worker, protocol.STATS_PATH))
        counters = {
            key: stats[key]
            for key in ("chunks", "jobs_ok", "jobs_failed", "shard_conflicts",
                        "shard_entries")
        }
        assert counters == {
            "chunks": 2,
            "jobs_ok": len(jobs),
            "jobs_failed": 1,
            "shard_conflicts": 0,
            "shard_entries": len(jobs),
        }
        assert set(stats) == set(counters) | set(worker.identity())

    def test_same_job_on_two_workers_leaves_identical_shard_results(self, tmp_path):
        job = tiny_jobs()[0]
        shards = []
        for label in ("a", "b"):
            with WorkerServer(port=0, shard_dir=tmp_path / label) as server:
                protocol.http_json(
                    "POST",
                    worker_url(server, protocol.JOBS_PATH),
                    {"jobs": [job.to_dict()]},
                )
                entry = ResultStore(server.shard_path).entry(job.key)
                assert entry["meta"]["worker"] == f"{server.host}:{server.port}"
                shards.append(entry)
        assert shards[0]["job"] == shards[1]["job"] == job.to_dict()
        assert shards[0]["result"] == shards[1]["result"]


class TestShutdown:
    def test_post_shutdown_stops_the_server(self, tmp_path):
        server = WorkerServer(port=0, shard_dir=tmp_path).start()
        answer = protocol.http_json(
            "POST", worker_url(server, protocol.SHUTDOWN_PATH), {}
        )
        assert answer["status"] == "stopping"
        server._thread.join(timeout=10.0)
        assert not server._thread.is_alive()


def worker_url(worker, path):
    return f"http://{worker.host}:{worker.port}{path}"

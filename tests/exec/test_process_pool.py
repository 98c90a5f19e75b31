"""Tests for the process pool's one lifecycle: forked per batch, gone at exit.

Every batch forks its workers from one preloaded forkserver and shuts them
down when it ends.  The subprocess tests run a fresh interpreter so what
they observe — the preload a worker starts with, the processes left behind
at exit — does not depend on anything this test session already started.
They use the shortest scenarios that still exercise the machinery.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.exec.chaos import ChaosConfig, ChaosExecutor
from repro.exec.executors import ProcessExecutor, _forkserver_context, run_jobs
from repro.exec.planner import plan_comparison
from repro.exec.retry import ExecutorDegradedError, RetryPolicy
from repro.exec.store import ResultStore
from repro.experiments.spec import ScenarioSpec
from repro.registry import BUILTIN_PLUGIN_MODULES

SRC = str(Path(__file__).resolve().parents[2] / "src")


def tiny_jobs(sim_time_s=1.0, seed=3):
    return plan_comparison(ScenarioSpec.pareto_poisson(sim_time_s=sim_time_s, seed=seed))


def canonical(report):
    return {key: result.canonical_dict() for key, result in report.results.items()}


def run_script(tmp_path, body, *args):
    """Run ``body`` as a script in a fresh interpreter; its last stdout line
    is parsed as JSON.

    ``PYTHONPATH`` is dropped, so the script reaches ``repro`` only through
    the ``sys.path.insert`` it makes itself (``sys.argv[1]``).  The script
    is a real file: every worker re-imports the parent's ``__main__``.
    """
    script = tmp_path / "script.py"
    script.write_text(textwrap.dedent(body))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(script), SRC, *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def running(pid):
    """Whether ``pid`` is a live (not zombie) process."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state != "Z"


class TestForkserverStart:
    # "relaunch": the server is killed after its first start, and a batch
    # runs before the probe; every worker start must relaunch it with the
    # path, or the preload is lost.
    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
    @pytest.mark.parametrize("server", ["first-start", "relaunch"])
    def test_preload_reaches_workers_through_a_runtime_sys_path(self, tmp_path, server):
        # Only stdlib at module level: the worker re-imports this script, and
        # anything of repro's it finds in sys.modules must come from the
        # forkserver's preload, not from that re-import.
        seen = run_script(tmp_path, """
            import json
            import sys


            def report(conn, payload):
                before = set(sys.modules)
                repro = sys.modules.get("repro")
                from repro.exec.executors import execute_job_payload

                execute_job_payload(payload)
                conn.send({
                    "modules": sorted(before),
                    "file": getattr(repro, "__file__", None),
                    "imported_by_job": sorted(set(sys.modules) - before),
                })
                conn.close()


            def main():
                sys.path.insert(0, sys.argv[1])
                import repro
                from repro.exec import executors
                from repro.exec.planner import plan_comparison
                from repro.experiments.spec import ScenarioSpec

                spec = ScenarioSpec.pareto_poisson(sim_time_s=0.5, seed=3)
                job = plan_comparison(spec)[0]
                context = executors._forkserver_context()
                if sys.argv[2] == "relaunch":
                    import os
                    import signal
                    import time
                    from multiprocessing import forkserver

                    # A batch after the server died must relaunch it (with
                    # the path) before the probe below starts its worker.
                    server = forkserver._forkserver._forkserver_pid
                    os.kill(server, signal.SIGKILL)
                    while open(f"/proc/{server}/stat").read().rsplit(")", 1)[1].split()[0] != "Z":
                        time.sleep(0.01)
                    batch = executors.run_jobs([job], executor="process", max_workers=1)
                    assert not batch.fallbacks, batch.fallbacks
                ours, theirs = context.Pipe()
                worker = context.Process(target=report, args=(theirs, job.to_dict()))
                worker.start()
                theirs.close()
                seen = ours.recv()
                worker.join()
                print(json.dumps({"parent_file": repro.__file__, **seen}))


            if __name__ == "__main__":
                main()
        """, server)
        missing = [
            name
            for name in ("repro.experiments.runner", *BUILTIN_PLUGIN_MODULES)
            if name not in seen["modules"]
        ]
        assert not missing, f"not preloaded in the worker: {missing}"
        assert seen["file"] == seen["parent_file"]
        # ... and a first job finds everything it needs already imported.
        assert seen["imported_by_job"] == []

    @pytest.mark.parametrize("caller_path", [None, "/a/caller/entry"])
    def test_the_callers_environment_is_restored(self, monkeypatch, caller_path):
        if caller_path is None:
            monkeypatch.delenv("PYTHONPATH", raising=False)
        else:
            monkeypatch.setenv("PYTHONPATH", caller_path)
        _forkserver_context()
        assert os.environ.get("PYTHONPATH") == caller_path

    def test_without_forkserver_the_batch_falls_back_to_serial(self, monkeypatch):
        real = multiprocessing.get_context

        def get_context(method=None):
            if method == "forkserver":
                raise ValueError("cannot find context for 'forkserver'")
            return real(method)

        monkeypatch.setattr(multiprocessing, "get_context", get_context)
        jobs = tiny_jobs()
        report = run_jobs(jobs, executor="process", max_workers=2)
        assert [hop["to"] for hop in report.fallbacks] == ["serial"]
        assert canonical(report) == canonical(run_jobs(jobs, executor="serial"))

    @pytest.mark.parametrize("death", ["stubbed", "killed"])
    def test_a_batch_just_after_the_server_died_stays_on_the_process_backend(
        self, monkeypatch, death
    ):
        # ensure_running sees a killed server only once the kernel has made
        # it a zombie, so a worker start just after the kill reaches the dead
        # server and fails with EOFError.  "stubbed" makes the first start do
        # exactly that: kill the server, then fail as such a start fails.
        # "killed" kills it and starts the batch at once, which hits the
        # window only sometimes.
        from multiprocessing import forkserver

        jobs = tiny_jobs()
        _forkserver_context()
        server = forkserver._forkserver._forkserver_pid
        if death == "stubbed":
            connect = forkserver.connect_to_new_process
            failed = []

            def connect_to_the_dead_server(fds):
                if failed:
                    return connect(fds)
                os.kill(server, signal.SIGKILL)
                failed.append(server)
                raise EOFError("unexpected EOF")

            monkeypatch.setattr(forkserver, "connect_to_new_process", connect_to_the_dead_server)
        else:
            os.kill(server, signal.SIGKILL)
        report = run_jobs(jobs, executor="process", max_workers=2)
        assert report.fallbacks == []
        assert forkserver._forkserver._forkserver_pid != server
        assert canonical(report) == canonical(run_jobs(jobs, executor="serial"))

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
    def test_nothing_outlives_the_interpreter(self, tmp_path):
        # Two batches, the second on chaos:process with every first attempt
        # crashing its worker; then the interpreter exits.  Its forkserver
        # and every worker it used must be gone afterwards.
        seen = run_script(tmp_path, """
            import json
            import multiprocessing
            import sys


            def parent_of(pid):
                with open(f"/proc/{pid}/stat") as handle:
                    return int(handle.read().rsplit(")", 1)[1].split()[1])


            def main():
                sys.path.insert(0, sys.argv[1])
                from multiprocessing import forkserver

                from repro.exec import ChaosConfig, ChaosExecutor, run_jobs
                from repro.exec.planner import plan_comparison
                from repro.exec.retry import RetryPolicy
                from repro.experiments.spec import ScenarioSpec

                workers = {}

                def progress(event, job, detail):
                    for child in multiprocessing.active_children():
                        workers.setdefault(child.pid, parent_of(child.pid))

                def jobs(seed):
                    spec = ScenarioSpec.pareto_poisson(sim_time_s=1.0, seed=seed)
                    return plan_comparison(spec)

                run_jobs(jobs(3), executor="process", max_workers=2,
                         progress=progress)
                chaos = ChaosExecutor(
                    "process", max_workers=2,
                    config=ChaosConfig(crash_rate=1.0, error_rate=0.0,
                                       delay_rate=0.0, corrupt_rate=0.0),
                )
                report = run_jobs(
                    jobs(4), executor=chaos, progress=progress,
                    policy=RetryPolicy(max_attempts=2, base_delay_s=0.001),
                )
                assert report.retried >= 1 and not report.failures
                print(json.dumps({
                    "server": forkserver._forkserver._forkserver_pid,
                    "workers": workers,
                }))


            if __name__ == "__main__":
                main()
        """)
        server = seen["server"]
        workers = {int(pid): parent for pid, parent in seen["workers"].items()}
        assert server is not None and workers
        # Every batch's workers came from the one forkserver.
        assert set(workers.values()) == {server}
        deadline = time.monotonic() + 10.0
        left = [pid for pid in (server, *workers) if running(pid)]
        while left and time.monotonic() < deadline:
            time.sleep(0.05)
            left = [pid for pid in left if running(pid)]
        assert not left, f"still running after the interpreter exited: {left}"


class TestBatchLifetime:
    @pytest.mark.parametrize("batch", ["clean", "crashes", "degraded"])
    def test_no_worker_outlives_its_batch(self, batch):
        # The batch's workers are shut down however the batch ends: cleanly,
        # after replacing crashed workers, or by giving up on the backend.
        crash = batch != "clean"
        backend = ChaosExecutor(
            ProcessExecutor(max_workers=2, max_respawns=0 if batch == "degraded" else None),
            config=ChaosConfig(crash_rate=1.0 if crash else 0.0, error_rate=0.0,
                               delay_rate=0.0, corrupt_rate=0.0,
                               first_attempt_only=batch != "degraded"),
        )
        seen = set()

        def progress(event, job, detail):
            seen.update(multiprocessing.active_children())

        policy = RetryPolicy(max_attempts=2, base_delay_s=0.001)
        if batch == "degraded":
            with pytest.raises(ExecutorDegradedError):
                run_jobs(tiny_jobs(), executor=backend, policy=policy,
                         progress=progress, fallback=False)
        else:
            report = run_jobs(tiny_jobs(), executor=backend, policy=policy,
                              progress=progress)
            assert not report.failures
        assert seen
        assert not any(worker.is_alive() for worker in seen)
        assert multiprocessing.active_children() == []


class TestFaultTolerance:
    def test_crash_mid_batch_respawns_and_matches_serial(self, tmp_path):
        # Workers killed mid-batch are replaced within the respawn budget,
        # the batch finishes, and the store is bit-identical to serial.
        jobs = tiny_jobs()
        run_jobs(jobs, executor="serial", store=str(tmp_path / "serial.jsonl"))
        chaos = ChaosExecutor(
            ProcessExecutor(max_workers=2),
            config=ChaosConfig(crash_rate=1.0, error_rate=0.0,
                               delay_rate=0.0, corrupt_rate=0.0),
        )
        retries = []
        report = run_jobs(
            jobs, executor=chaos,
            policy=RetryPolicy(max_attempts=3, base_delay_s=0.001),
            store=str(tmp_path / "chaos.jsonl"),
            progress=lambda event, job, detail: (
                retries.append(detail) if event == "retry" else None
            ),
        )
        assert not report.failures
        assert not report.fallbacks
        assert retries and all("WorkerCrashError" in line for line in retries)
        a = ResultStore(tmp_path / "serial.jsonl")
        b = ResultStore(tmp_path / "chaos.jsonl")
        assert a.results_by_key() == b.results_by_key()

    def test_chaos_corruption_on_the_process_pool_retries_to_serial_bits(self):
        # A chaos-corrupted payload crosses the pipe, fails the dispatcher's
        # hydration check as a retryable CorruptResultError, and the retry
        # gets back to the serial bytes.
        jobs = tiny_jobs()
        serial = run_jobs(jobs, executor="serial")
        chaos = ChaosExecutor("process", max_workers=2,
                              config=ChaosConfig(crash_rate=0.0, error_rate=0.0,
                                                 delay_rate=0.0, corrupt_rate=1.0))
        report = run_jobs(
            jobs, executor=chaos,
            policy=RetryPolicy(max_attempts=2, base_delay_s=0.001),
        )
        assert canonical(report) == canonical(serial)
        assert report.retried == len(jobs)

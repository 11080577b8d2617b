"""Worker-pool battery: daemon SIGTERM cycles and replay workers killed mid-job.

Two hangs this battery pins down, each with real OS processes:

* **inherited SIGTERM handler** — the daemon's pool workers must not
  inherit ``python -m repro.serve``'s drain handler.  A worker that
  catches SIGTERM only sets a flag when the pool stops it, and the
  daemon can then block forever joining it.  Thirty start → replay →
  SIGTERM cycles must each exit 0 with ``drained=clean`` inside the
  drain budget and leave no worker behind;
* **lost jobs** — a replay worker SIGKILLed mid-job must fail *that job*
  with an error naming its run and iterations within a stated bound;
  it must never leave the waiter blocked on a result that cannot come.
  The daemon answers such a request with an ``INTERNAL`` error frame
  and serves the next query on a rebuilt pool.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.exceptions import ServiceError
from repro.query.api import prepare_query
from repro.query.executor import build_span_specs
from repro.replay.parallel import run_replay_jobs
from faultutils import catches_signal, child_pids
from serviceutils import (daemon_env, probe_for, record_run, start_service,
                          wait_until)

pytestmark = pytest.mark.service

CYCLES = 30
DRAIN_SECONDS = 5.0

#: A killed worker's job must be reported failed within this many seconds.
KILL_BOUND_SECONDS = 10.0

# Epoch-level sleeps are re-paid on replay, so each replay job runs for
# about a second: long enough to SIGKILL its worker mid-job.
SLOW_ITERATIONS = 8
SLOW_ITER_SECONDS = 0.25


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _replay_started(run_dir) -> bool:
    """Some replay job of the run has logged at least one value."""
    return any(path.stat().st_size > 0
               for path in run_dir.glob("replay-p*of*.log"))


def _names_its_job(error: str, run_id: str, iterations) -> bool:
    return ("died" in error and run_id in error
            and f"iterations {iterations[0]}-{iterations[-1]}" in error)


def test_service_forks_its_pool_before_serving(flor_config):
    """The pool's workers exist before any thread serves a request."""
    before = child_pids(os.getpid())
    with start_service(flor_config, workers=2):
        workers = child_pids(os.getpid()) - before
        assert len(workers) == 2
        for pid in workers:
            assert not catches_signal(pid, signal.SIGTERM)
    assert not {pid for pid in workers if _alive(pid)}


@pytest.mark.service(timeout=300)
def test_daemon_sigterm_cycles_exit_clean_and_leave_no_workers(flor_config):
    record_run(flor_config, iterations=4)
    probe = probe_for(iterations=4)
    for cycle in range(CYCLES):
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.serve",
             "--home", str(flor_config.home), "--port", "0",
             "--workers", "2", "--drain-seconds", str(DRAIN_SECONDS)],
            env=daemon_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        try:
            banner = daemon.stdout.readline().strip()
            assert banner.startswith("listening "), (
                f"cycle {cycle}: no banner ({daemon.stderr.read()})")
            address = banner.split(" ", 1)[1]
            result = repro.connect(address, client_id=f"c{cycle}").query(
                ["state"], iterations=[2], source=probe, memoize=False)
            assert result.stats.replay_job_count >= 1

            workers = child_pids(daemon.pid)
            assert len(workers) == 2, f"cycle {cycle}: workers {workers}"
            for pid in workers:
                assert not catches_signal(pid, signal.SIGTERM), (
                    f"cycle {cycle}: pool worker {pid} catches SIGTERM")

            started = time.monotonic()
            daemon.send_signal(signal.SIGTERM)
            stdout, stderr = daemon.communicate(timeout=DRAIN_SECONDS + 10)
            elapsed = time.monotonic() - started
            assert daemon.returncode == 0, (
                f"cycle {cycle}: exit {daemon.returncode}: {stderr}")
            assert "drained=clean" in stdout
            assert elapsed < DRAIN_SECONDS, (
                f"cycle {cycle}: stop took {elapsed:.2f}s")
            survivors = {pid for pid in workers if _alive(pid)}
            assert not survivors, f"cycle {cycle}: orphaned {survivors}"
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.communicate(timeout=30.0)


@pytest.mark.service(timeout=120)
def test_killed_replay_worker_fails_its_job_by_name(flor_config):
    run_id = record_run(flor_config, iterations=SLOW_ITERATIONS,
                        iter_seconds=SLOW_ITER_SECONDS)
    probe = probe_for(iterations=SLOW_ITERATIONS,
                      iter_seconds=SLOW_ITER_SECONDS)
    prepared = prepare_query(values=["state"], source=probe,
                             config=flor_config, memoize=False)
    try:
        specs = build_span_specs(prepared.balanced_jobs(2),
                                 prepared.sources_by_run,
                                 prepared.probed_by_run)
    finally:
        prepared.close()
    assert len(specs) == 2

    before = child_pids(os.getpid())
    outcome: dict = {}
    batch = threading.Thread(target=lambda: outcome.update(
        results=run_replay_jobs(specs, flor_config, processes=2)),
        daemon=True)
    batch.start()
    assert wait_until(lambda: _replay_started(flor_config.run_dir(run_id)),
                      timeout=30.0), "replay never started"
    workers = child_pids(os.getpid()) - before
    assert workers, "no replay worker to kill"
    os.kill(min(workers), signal.SIGKILL)
    killed = time.monotonic()
    batch.join(KILL_BOUND_SECONDS)
    assert not batch.is_alive(), (
        f"run_replay_jobs still waiting {KILL_BOUND_SECONDS}s after the kill")
    assert time.monotonic() - killed < KILL_BOUND_SECONDS

    failed = [(spec, result) for spec, result
              in zip(specs, outcome["results"]) if not result.succeeded]
    assert failed, "a killed worker's job reported success"
    for spec, result in failed:
        assert _names_its_job(result.error, spec.run_id,
                              spec.sample_iterations), result.error
    assert not child_pids(os.getpid()) - before, "pool workers outlived it"


@pytest.mark.service(timeout=120)
def test_killed_daemon_worker_answers_internal_then_recovers(flor_config):
    run_id = record_run(flor_config, iterations=SLOW_ITERATIONS,
                        iter_seconds=SLOW_ITER_SECONDS)
    probe = probe_for(iterations=SLOW_ITERATIONS,
                      iter_seconds=SLOW_ITER_SECONDS)
    before = child_pids(os.getpid())
    with start_service(flor_config, workers=2) as service:
        outcome: dict = {}

        def issue():
            client = repro.connect(service.address, client_id="victim",
                                   retries=0)
            try:
                client.query(["state"], source=probe, memoize=False)
            except ServiceError as error:
                outcome["error"] = error

        request = threading.Thread(target=issue, daemon=True)
        request.start()
        assert wait_until(
            lambda: _replay_started(flor_config.run_dir(run_id)),
            timeout=30.0), "replay never started"
        os.kill(min(child_pids(os.getpid()) - before), signal.SIGKILL)
        request.join(KILL_BOUND_SECONDS)
        assert not request.is_alive(), "the request never got an answer"
        error = outcome.get("error")
        assert error is not None, "a query whose worker died succeeded"
        assert error.code == "INTERNAL"
        assert "died" in str(error) and run_id in str(error), str(error)
        assert "iterations" in str(error)

        # The next job rebuilds the pool and answers normally.
        result = repro.connect(service.address, client_id="next").query(
            ["state"], iterations=[1], source=probe, memoize=False)
        assert [row.iteration for row in result.rows] == [1]
    assert not child_pids(os.getpid()) - before, "pool workers outlived it"

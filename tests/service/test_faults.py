"""Fault battery: clients and daemons dying at the worst possible time.

Two failure domains, each exercised with *real* OS processes:

* **client death** — a client SIGKILLed mid-stream must not leak
  anything in the daemon: its admission slot is released, the shared
  execution runs to completion (the memo write-back still lands), the
  dedup registry drains, and subsequent queries answer from the memo
  with zero new replay jobs;
* **daemon death** — a SIGTERMed ``python -m repro.serve`` daemon must
  drain gracefully: the in-flight query finishes and streams its full
  answer, new requests are refused with a typed ``SHUTTING_DOWN``, and
  the process exits 0 having printed ``drained=clean``.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro import telemetry
from repro.exceptions import ServiceError
from faultutils import kill_process, start_client_process, wait_for_file
from serviceutils import (SlowRunner, daemon_env, probe_for, record_run,
                          serve_daemon, start_service, wait_until)

pytestmark = pytest.mark.service


def test_sigkilled_client_leaks_no_slots_or_locks(flor_config, tmp_path):
    """SIGKILL a client mid-stream; the daemon must stay fully usable."""
    record_run(flor_config, iterations=8)
    probe = probe_for(iterations=8)
    with start_service(flor_config, workers=1) as service:
        # Slow spans so the kill lands while later spans are still
        # queued/running — genuinely mid-stream, not post-completion.
        service.pool._runner = SlowRunner(delay=0.75,
                                          delegate=service.pool._runner)

        streaming = tmp_path / "streaming"
        victim = start_client_process(
            service.address, "victim",
            {"values": ["state"], "source": probe, "memoize": True},
            streaming_path=streaming)
        assert wait_for_file(streaming, timeout=60.0), (
            "client never received a first batch — cannot kill mid-stream")
        kill_process(victim)

        # The connection thread notices the dead socket and releases its
        # admission slot; the orphaned execution still runs to the end
        # (its memo write-back is the whole point of not cancelling it)
        # and then deregisters.
        assert wait_until(lambda: service._admitted == 0, timeout=30.0), (
            "admission slot leaked after client SIGKILL")
        assert wait_until(lambda: service.pool.pending() == 0,
                          timeout=60.0), (
            "replay jobs stuck after client SIGKILL")
        assert wait_until(lambda: not service._executions, timeout=30.0), (
            "dedup registry leaked the orphaned execution")
        jobs_after_kill = len(service.pool.ledger())
        assert jobs_after_kill >= 1

        # The daemon is fully usable: the same query now answers from the
        # memo the orphaned execution wrote back — zero new replay jobs,
        # so no pool slot and no memo lock was left behind.
        client = repro.connect(service.address, client_id="survivor")
        assert client.ping()["status"] == "ok"
        result = client.query(["state"], source=probe, memoize=True)
        assert len(result.rows) == 8
        assert result.stats.resolved_memo == 8
        assert result.stats.replay_job_count == 0
        assert len(service.pool.ledger()) == jobs_after_kill


def test_two_kills_in_a_row_still_leave_a_working_daemon(flor_config,
                                                         tmp_path):
    """Slot accounting survives repeated client deaths (no slow creep)."""
    record_run(flor_config, iterations=6)
    probe = probe_for(iterations=6)
    with start_service(flor_config, workers=1, queue_size=2) as service:
        service.pool._runner = SlowRunner(delay=0.6,
                                          delegate=service.pool._runner)
        for round_index in range(2):
            streaming = tmp_path / f"streaming-{round_index}"
            victim = start_client_process(
                service.address, f"victim-{round_index}",
                {"values": ["state"], "source": probe, "memoize": False,
                 "iterations": [round_index]},
                streaming_path=streaming)
            assert wait_for_file(streaming, timeout=60.0)
            kill_process(victim)
            assert wait_until(lambda: service._admitted == 0,
                              timeout=30.0), (
                f"admission slot leaked on kill round {round_index}")
        # With queue_size=2, two leaked slots would make this third
        # query impossible to admit.
        result = repro.connect(service.address, client_id="after").query(
            ["state"], iterations=[5], source=probe, memoize=False)
        assert result.stats.requested_cells == 1


def test_daemon_sigterm_drains_then_refuses_then_exits_clean(flor_config,
                                                             tmp_path):
    """SIGTERM mid-query: finish the in-flight work, refuse new work."""
    # Per-iteration sleep makes the replay long enough that the drain
    # window (SIGTERM .. in-flight completion) is seconds wide.
    record_run(flor_config, iterations=10, iter_seconds=0.25)
    probe = probe_for(iterations=10, iter_seconds=0.25)
    trace_out = tmp_path / "service-trace.json"
    daemon = serve_daemon(flor_config.home, trace_out)
    try:
        assert daemon.stdout is not None
        banner = daemon.stdout.readline().strip()
        assert banner.startswith("listening "), (
            f"daemon never announced its address: {banner!r} "
            f"(stderr: {daemon.stderr.read() if daemon.stderr else ''})")
        address = banner.split(" ", 1)[1]

        in_flight: dict[str, object] = {}
        errors: list[BaseException] = []

        def issue():
            try:
                client = repro.connect(address, client_id="in-flight")
                in_flight["result"] = client.query(
                    ["state"], source=probe, memoize=False)
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        worker = threading.Thread(target=issue)
        worker.start()
        status_client = repro.connect(address, client_id="status")
        assert wait_until(
            lambda: status_client.ping()["admitted"] >= 1,
            timeout=60.0), "query was never admitted"

        daemon.send_signal(signal.SIGTERM)
        assert wait_until(
            lambda: status_client.ping()["status"] == "draining",
            timeout=30.0), "daemon never entered draining"

        # New work is refused with the typed shutdown error while the
        # admitted query keeps running.
        refused = repro.connect(address, client_id="refused", retries=0)
        with pytest.raises(ServiceError) as excinfo:
            refused.query(["state"], iterations=[0], source=probe,
                          memoize=False)
        assert excinfo.value.code == "SHUTTING_DOWN"

        # The in-flight query finishes with its complete answer.
        worker.join(timeout=120.0)
        assert not errors, errors
        result = in_flight["result"]
        assert result.stats.requested_cells == 10
        assert len(result.rows) == 10

        stdout, stderr = daemon.communicate(timeout=60.0)
        assert daemon.returncode == 0, (
            f"daemon exit {daemon.returncode}: {stderr}")
        assert "drained=clean" in stdout

        # The flight-recorder artifact the CI smoke uploads is real and
        # carries the service spans.
        trace = json.loads(trace_out.read_text(encoding="utf-8"))
        names = {span.get("name") for span in trace["spans"]}
        assert "service.request" in names
        # It is a full telemetry document: the daemon's metrics survive
        # its exit, and the trace CLI still renders the file.
        assert trace["schema"] == telemetry.DOCUMENT_SCHEMA
        assert trace["metrics"]["counters"]["service.requests"] >= 1
        rendered = subprocess.run(
            [sys.executable, "-m", "repro.trace", str(trace_out)],
            env=daemon_env(), capture_output=True, text=True, timeout=60)
        assert rendered.returncode == 0, rendered.stderr
        assert "service.request" in rendered.stdout
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.communicate(timeout=30.0)


def test_daemon_sigint_with_no_work_exits_immediately_clean(flor_config,
                                                            tmp_path):
    """An idle daemon's drain is instant: exit 0, drained=clean."""
    record_run(flor_config, iterations=4)
    daemon = serve_daemon(flor_config.home, tmp_path / "trace.json")
    try:
        assert daemon.stdout is not None
        banner = daemon.stdout.readline().strip()
        assert banner.startswith("listening ")
        address = banner.split(" ", 1)[1]
        assert repro.connect(address).ping()["status"] == "ok"
        started = time.monotonic()
        daemon.send_signal(signal.SIGINT)
        stdout, _stderr = daemon.communicate(timeout=30.0)
        assert daemon.returncode == 0
        assert "drained=clean" in stdout
        assert time.monotonic() - started < 15.0
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.communicate(timeout=30.0)

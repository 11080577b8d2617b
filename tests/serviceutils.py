"""Shared helpers for the query-service test batteries.

Everything the concurrency, fault, and e2e tests need to set up a
realistic multi-tenant scene: seeded runs whose hindsight probes *must*
replay (stateful accumulators the record log never captured), a service
context manager that always drains on exit, and stub runners for
scheduler-level tests that should not pay for real subprocess replay.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import repro
from repro.replay.parallel import ReplayJobSpec, WorkerResult
from repro.service import QueryService

__all__ = ["record_run", "probe_for", "start_service", "daemon_env",
           "serve_daemon",
           "stub_result", "SlowRunner", "wait_until"]


def record_run(config, iterations: int = 8, scale: float = 0.5,
               iter_seconds: float = 0.0) -> str:
    """Record one run with a hidden accumulator; returns its run id.

    ``state`` is never logged at record time, so any probe asking for it
    forces real checkpoint-restoring replay (not log/memo/analysis
    resolution).  ``iter_seconds`` adds per-iteration wall time *outside*
    the checkpointed block, so it is paid at record time AND re-paid by
    every replayed iteration — the knob that makes replay long enough for
    drain/fairness windows to be deterministic.
    """
    script = _script(iterations, scale, iter_seconds, probed=False)
    return repro.record_source(script, config=config).run_id


def probe_for(iterations: int = 8, scale: float = 0.5,
              iter_seconds: float = 0.0) -> str:
    """The hindsight probe source matching :func:`record_run`'s script."""
    return _script(iterations, scale, iter_seconds, probed=True)


def _script(iterations: int, scale: float, iter_seconds: float,
            probed: bool) -> str:
    # The inner for-block is what the instrumenter wraps in a SkipBlock;
    # its checkpointed ``state`` is what gives the planner aligned
    # restore points (and span splitting).  The sleep sits at epoch
    # level, OUTSIDE the block: replay restores block state from
    # checkpoints (skipping anything inside), but re-executes epoch-level
    # code, so the sleep slows both record and replay.
    lines = [
        "import time",
        "from repro import api as flor",
        "state = 0.0",
        f"for epoch in range({iterations}):",
        "    for _step in range(1):",
        f"        state = state + epoch * {scale}",
    ]
    if iter_seconds:
        lines.append(f"    time.sleep({iter_seconds})")
    lines.append('    flor.log("loss", 1.0 / (epoch + 1))')
    if probed:
        lines.append('    flor.log("state", state)')
    return "\n".join(lines) + "\n"


@contextmanager
def start_service(config, **kwargs):
    """A started :class:`QueryService` that always shuts down afterwards."""
    service = QueryService(config=config, **kwargs).start()
    try:
        yield service
    finally:
        service.shutdown(drain_seconds=10.0)


def daemon_env() -> dict:
    """The environment for a ``python -m repro...`` subprocess."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def serve_daemon(home, trace_out) -> subprocess.Popen:
    """Launch a real ``python -m repro.serve`` daemon on an ephemeral port.

    The caller scrapes the ``listening <addr>`` banner from stdout; the
    trace file is written on exit (``--telemetry --trace-out``), matching
    what the CI service smoke uploads as an artifact.
    """
    return subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--home", str(home),
         "--port", "0", "--workers", "2", "--telemetry",
         "--trace-out", str(trace_out)],
        env=daemon_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)


def stub_result(spec: ReplayJobSpec) -> WorkerResult:
    """A successful no-op replay result for scheduler unit tests."""
    return WorkerResult(pid=spec.pid, wall_seconds=0.0,
                        iterations=list(spec.sample_iterations),
                        log_records=[])


class SlowRunner:
    """A runner that delays each job, optionally delegating to another.

    Used to stretch job execution long enough for concurrency windows
    (dedup attachment, fairness interleaving) to be deterministic, and to
    record dispatch order.
    """

    def __init__(self, delay: float = 0.1, delegate=None):
        self.delay = delay
        self.delegate = delegate or stub_result
        self.calls: list[str] = []
        self._lock = threading.Lock()

    def __call__(self, spec: ReplayJobSpec) -> WorkerResult:
        with self._lock:
            self.calls.append(spec.run_id)
        time.sleep(self.delay)
        return self.delegate(spec)


def wait_until(predicate, timeout: float = 20.0,
               interval: float = 0.01) -> bool:
    """Poll ``predicate`` until it is truthy or ``timeout`` elapses."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False

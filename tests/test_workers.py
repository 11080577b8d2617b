"""The worker-pool contract: signals, worker death and bounded shutdown."""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.exceptions import WorkerDied
from repro.workers import WorkerPool

pytestmark = pytest.mark.multiproc


def _worker_state() -> tuple:
    from repro import session
    return (signal.getsignal(signal.SIGTERM),
            signal.getsignal(signal.SIGINT),
            session.get_active_session())


def _wait_running(future, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not future.running():
        assert time.monotonic() < deadline, "job never started"
        time.sleep(0.01)


def test_workers_take_default_sigterm_and_ignore_sigint():
    with WorkerPool(1) as pool:
        sigterm, sigint, session = pool.result(pool.submit(_worker_state),
                                               "probe")
    assert sigterm == signal.SIG_DFL
    assert sigint == signal.SIG_IGN
    assert session is None


def test_close_kills_a_job_that_outlives_its_deadline():
    pool = WorkerPool(1).start()
    future = pool.submit(time.sleep, 60)
    _wait_running(future)
    started = time.monotonic()
    pool.close(timeout=0.2)
    assert time.monotonic() - started < 5.0
    with pytest.raises(WorkerDied, match="the sleeper"):
        WorkerPool.result(future, "the sleeper")


def test_a_dead_worker_fails_its_job_and_the_next_submit_rebuilds():
    with WorkerPool(1) as pool:
        victim = pool.result(pool.submit(os.getpid), "pid")
        future = pool.submit(time.sleep, 60)
        _wait_running(future)
        os.kill(victim, signal.SIGKILL)
        with pytest.raises(WorkerDied, match="job 7"):
            pool.result(future, "job 7")
        assert pool.result(pool.submit(os.getpid), "pid") != victim

"""The one place that starts worker processes.

Parallel replay (Section 5.4) runs independent worker processes that need
no coordination, so starting and stopping them is one small piece shared
by every pool in the package: per-query replay pools
(:mod:`repro.replay.parallel`), the query daemon's persistent pool
(:mod:`repro.service.scheduler`) and data-parallel record
(:mod:`repro.workloads.distributed`).  :class:`WorkerPool` owns every
decision those sites would otherwise each make:

* **Start method.**  ``fork`` where available: a 2-worker pool starts in
  about 10 ms, against hundreds of ms for ``spawn``/``forkserver``.  The
  parent may hold a live Flor session (an open WAL-mode SQLite
  connection, background spool threads); pool creation flushes it first
  so children see a consistent manifest, then closes its store so
  children do not inherit an open connection.  Under a live async spool
  the pool uses ``spawn`` instead: ``fork`` copies only the calling
  thread, so the spool's queue and locks would arrive without the
  threads that release them.
* **Worker initializer.**  Every worker sets SIGTERM to ``SIG_DFL`` and
  SIGINT to ``SIG_IGN`` (a forked worker otherwise inherits the parent's
  Python handlers — the query daemon's drain handler — and a SIGTERM
  only sets a flag instead of ending it), drops the inherited active
  session registration so its own session can activate, and clears the
  inherited telemetry buffers so only its own spans ship back.
* **Worker death.**  A worker that dies mid-job fails that job with
  :class:`~repro.exceptions.WorkerDied` naming the job; it never hangs
  its waiter (``concurrent.futures`` reports the death, where
  ``multiprocessing.Pool`` silently drops the job).  The next submit
  after a death replaces the broken pool.
* **Shutdown.**  :meth:`WorkerPool.close` cancels queued jobs, lets
  running ones finish until a deadline, then SIGKILLs and reaps every
  survivor, so no worker outlives its pool.

A pool forks its workers on the first submit, on the submitting thread;
:meth:`WorkerPool.start` forces that early, which is how the daemon forks
from its main thread before any server thread exists.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from . import session as session_module
from . import telemetry
from .exceptions import FlorError, WorkerDied
from .utils.timing import monotonic

__all__ = ["WorkerPool", "CLOSE_TIMEOUT_SECONDS"]

#: Default bound on :meth:`WorkerPool.close`: how long running jobs may
#: keep going before their workers are SIGKILLed.
CLOSE_TIMEOUT_SECONDS = 5.0


def _init_worker() -> None:
    """Initializer of every pool worker (see the module docstring)."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    session_module._ACTIVE_SESSION = None
    telemetry.reset_for_worker()


def _start_method() -> str:
    """Pick the start method, making a live parent session fork-safe."""
    method = "fork" if hasattr(os, "fork") else "spawn"
    session = session_module.get_active_session()
    if session is None:
        return method
    session.materializer.flush()
    session.store.flush()
    if method == "fork" and getattr(session.materializer, "spool",
                                    None) is not None:
        return "spawn"
    session.store.close()
    return method


def _ready() -> bool:
    return True


class WorkerPool:
    """A process pool with safe workers, reported deaths and bounded close."""

    def __init__(self, processes: int):
        self.processes = max(1, processes)
        self._context = mp.get_context(_start_method())
        self._lock = threading.Lock()
        self._executor: ProcessPoolExecutor | None = self._new_executor()

    def _new_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.processes,
                                   mp_context=self._context,
                                   initializer=_init_worker)

    def start(self) -> "WorkerPool":
        """Start the workers now, on the calling thread."""
        self.submit(_ready).result()
        return self

    def submit(self, fn, /, *args) -> Future:
        """Schedule ``fn(*args)`` on a worker; ``fn`` must be picklable."""
        with self._lock:
            if self._executor is None:
                raise FlorError("worker pool is closed")
            try:
                return self._executor.submit(fn, *args)
            except BrokenProcessPool:
                # A worker died under an earlier job: replace the pool.
                broken, self._executor = self._executor, self._new_executor()
                _stop(broken, timeout=0.0)
                return self._executor.submit(fn, *args)

    @staticmethod
    def result(future: Future, job: str):
        """The job's result; raises :class:`WorkerDied` naming ``job``."""
        try:
            return future.result()
        except BrokenProcessPool as error:
            raise WorkerDied(
                f"worker process died while running {job}") from error

    def close(self, timeout: float = CLOSE_TIMEOUT_SECONDS) -> None:
        """Cancel queued jobs, wait ``timeout`` for running ones, kill the rest."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            _stop(executor, timeout)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _stop(executor: ProcessPoolExecutor, timeout: float) -> None:
    # ``_processes`` is the executor's only handle on its workers; taken
    # before shutdown, which may clear it.
    processes = list((executor._processes or {}).values())
    executor.shutdown(wait=False, cancel_futures=True)
    deadline = monotonic() + timeout
    for process in processes:
        process.join(max(0.0, deadline - monotonic()))
    for process in processes:
        if process.is_alive():
            process.kill()
            process.join()

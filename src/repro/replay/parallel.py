"""Parallel replay: many workers, no coordination (Section 5.4).

Each worker executes the *same* instrumented replay script; the Flor
generator gives worker ``pid`` its scheduler-issued share of main-loop
iterations, and checkpoints break the cross-iteration dependencies.  Under
static scheduling workers neither communicate nor coordinate (every worker
derives the same checkpoint-aligned plan); under dynamic scheduling they
share only a SQLite-backed chunk queue provisioned here.  On the paper's
testbed each worker owned one GPU; here each worker is a separate OS
process on a :class:`~repro.workers.WorkerPool`, which owns the start
method, fork safety, signal handling and shutdown.
"""

from __future__ import annotations

import traceback
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from ..config import FlorConfig
from ..exceptions import ReplayError, WorkerDied
from ..modes import InitStrategy, Mode
from ..record.logger import LogRecord
from ..session import Session, get_active_session
from .. import telemetry
from ..utils.timing import monotonic
from ..workers import WorkerPool

__all__ = ["WorkerResult", "ReplayJobSpec", "run_worker",
           "run_parallel_replay", "run_replay_jobs", "run_replay_job"]


@dataclass
class WorkerResult:
    """Outcome of one replay worker."""

    pid: int
    wall_seconds: float
    iterations: list[int] = field(default_factory=list)
    log_records: list[LogRecord] = field(default_factory=list)
    error: str | None = None
    #: Telemetry spans captured in the worker process (exported dicts),
    #: shipped back through the pool and ingested by the dispatching side.
    spans: list[dict] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return self.error is None


def run_worker(run_id: str, instrumented_source: str, config: FlorConfig,
               pid: int, num_workers: int, init_strategy: InitStrategy,
               probed_blocks: set[str],
               sample_iterations: list[int] | None = None,
               replay_queue_path: str | None = None) -> WorkerResult:
    """Execute one worker's share of a parallel replay (in this process)."""
    start = monotonic()
    session = Session(run_id=run_id, mode=Mode.REPLAY, config=config,
                      pid=pid, num_workers=num_workers,
                      init_strategy=init_strategy,
                      probed_blocks=probed_blocks,
                      sample_iterations=sample_iterations,
                      replay_queue_path=replay_queue_path)
    exec_globals = {"__name__": "__main__",
                    "__file__": f"replay-p{pid}of{num_workers}.py"}
    try:
        code = compile(instrumented_source, exec_globals["__file__"], "exec")
        with session:
            exec(code, exec_globals)  # noqa: S102 - replaying the user's script
    except Exception:
        return WorkerResult(pid=pid, wall_seconds=monotonic() - start,
                            error=traceback.format_exc())
    return WorkerResult(
        pid=pid,
        wall_seconds=monotonic() - start,
        iterations=list(session.iterations_run),
        log_records=list(session.logs.records),
    )


@dataclass(frozen=True)
class ReplayJobSpec:
    """One batched hindsight-query replay job.

    A job replays one contiguous iteration span of one run as a sampling
    replay (``sample_iterations``), so the hindsight query engine can put
    spans of *different* runs — and disjoint spans of the same run — on one
    process pool.  ``pid``/``num_workers`` only disambiguate the per-worker
    replay log filename between concurrent jobs of the same run; sampling
    replay does not partition by them.
    """

    run_id: str
    instrumented_source: str
    probed_blocks: tuple[str, ...]
    sample_iterations: tuple[int, ...]
    pid: int = 0
    num_workers: int = 1


def _job_entry(call: dict) -> WorkerResult:
    """Pool entry: ``run_worker(**call)`` plus this worker's spans.

    Log records travel back with the result (their values are
    JSON-normalized by the log manager) instead of being re-read from
    per-worker log files, so concurrent jobs of the same run cannot race
    on a shared log path.
    """
    result = run_worker(**call)
    result.spans = telemetry.get_tracer().drain()
    return result


def _job_name(call: dict) -> str:
    iterations = call.get("sample_iterations")
    if iterations:
        return (f"replay of run {call['run_id']} iterations "
                f"{iterations[0]}-{iterations[-1]}")
    return (f"replay of run {call['run_id']} worker {call['pid']} of "
            f"{call['num_workers']}")


def _collect(pool: WorkerPool, future, call: dict) -> WorkerResult:
    """A pooled job's result; a dead worker becomes the job's error."""
    try:
        return pool.result(future, _job_name(call))
    except WorkerDied as died:
        return WorkerResult(pid=call["pid"], wall_seconds=0.0,
                            error=str(died))


def _run_pooled(calls: list[dict], processes: int, dispatch
                ) -> list[WorkerResult]:
    """Run ``run_worker(**call)`` per call on a fresh pool, in order."""
    with WorkerPool(min(processes, len(calls))) as pool:
        # Look the entry up at call time: instrumentation may rebind it.
        futures = [pool.submit(_job_entry, call) for call in calls]
        results = [_collect(pool, future, call)
                   for future, call in zip(futures, calls)]
    tracer = telemetry.get_tracer()
    for result in results:
        # Worker spans come back through the result channel; re-parent
        # their roots under the dispatch span so the merged trace stays
        # one tree.
        tracer.ingest(result.spans, parent_id=dispatch.span_id)
    return results


def _remove_queue_files(queue_path: str | None) -> None:
    if not queue_path:
        return
    for suffix in ("", "-wal", "-shm"):
        try:
            Path(queue_path + suffix).unlink()
        except OSError:
            pass


def run_parallel_replay(run_id: str, instrumented_source: str,
                        config: FlorConfig, num_workers: int,
                        init_strategy: InitStrategy = InitStrategy.STRONG,
                        probed_blocks: set[str] | None = None,
                        sample_iterations: list[int] | None = None,
                        ) -> list[WorkerResult]:
    """Run ``num_workers`` replay workers and collect their results.

    Workers run as separate processes so they are as independent as the
    paper's per-GPU workers; a worker that dies reports the loss as its
    ``WorkerResult.error``.  For dynamic scheduling this driver provisions
    the shared chunk-queue file that workers pull work from, and removes
    it afterwards.
    """
    if num_workers < 1:
        raise ReplayError(f"num_workers must be >= 1, got {num_workers}")
    probed = probed_blocks or set()

    if sample_iterations is not None and num_workers != 1:
        raise ReplayError("sampling replay runs on a single worker; pass "
                          "num_workers=1 together with sample_iterations")

    if num_workers == 1:
        return [run_worker(run_id, instrumented_source, config, 0, 1,
                           init_strategy, probed,
                           sample_iterations=sample_iterations)]

    queue_path: str | None = None
    if config.replay_scheduler == "dynamic":
        run_dir = config.run_dir(run_id)
        run_dir.mkdir(parents=True, exist_ok=True)
        queue_path = str(run_dir
                         / f"replay-queue-{uuid.uuid4().hex[:12]}.sqlite")

    calls = [dict(run_id=run_id, instrumented_source=instrumented_source,
                  config=config, pid=pid, num_workers=num_workers,
                  init_strategy=init_strategy, probed_blocks=probed,
                  replay_queue_path=queue_path)
             for pid in range(num_workers)]
    try:
        with telemetry.get_tracer().span("replay.parallel", run_id=run_id,
                                         workers=num_workers) as dispatch:
            return _run_pooled(calls, num_workers, dispatch)
    finally:
        _remove_queue_files(queue_path)


# --------------------------------------------------------------------------- #
# Batched replay jobs (the hindsight query engine's execution primitive)
# --------------------------------------------------------------------------- #
def _spec_call(spec: ReplayJobSpec, config: FlorConfig) -> dict:
    return dict(run_id=spec.run_id,
                instrumented_source=spec.instrumented_source,
                config=config, pid=spec.pid, num_workers=spec.num_workers,
                init_strategy=InitStrategy.WEAK,
                probed_blocks=set(spec.probed_blocks),
                sample_iterations=list(spec.sample_iterations))


def run_replay_job(pool: WorkerPool, spec: ReplayJobSpec,
                   config: FlorConfig) -> WorkerResult:
    """Run one job on a caller-owned pool (the query daemon's).

    Raises :class:`~repro.exceptions.WorkerDied`, naming the job's run
    and iterations, when its worker dies mid-job.
    """
    call = _spec_call(spec, config)
    return pool.result(pool.submit(_job_entry, call), _job_name(call))


def run_replay_jobs(jobs: list[ReplayJobSpec], config: FlorConfig,
                    processes: int = 1) -> list[WorkerResult]:
    """Execute a batch of query replay jobs; results align with ``jobs``.

    Jobs are independent sampling replays (each restores its own aligned
    checkpoint), so the batch runs on one process pool of ``processes``
    workers regardless of how many distinct runs it spans — this is how a
    multi-run hindsight query parallelizes across runs.  With one job or
    ``processes <= 1`` the batch runs in the calling process instead (no
    pool spin-up for a cheap query).  Errors are reported per job in
    ``WorkerResult.error``; callers decide whether to raise.
    """
    specs = list(jobs)
    if not specs:
        return []
    # The in-process fast path needs this process session-free: run_worker
    # activates its own replay session, which a live session (a query
    # issued inside a record_session) would reject.  With a session active,
    # even a single job goes through the pool, whose children clear the
    # inherited registration and whose setup quiesces the parent's store.
    calls = [_spec_call(spec, config) for spec in specs]
    if (processes <= 1 or len(specs) == 1) and get_active_session() is None:
        return [run_worker(**call) for call in calls]
    with telemetry.get_tracer().span("replay.jobs", jobs=len(specs),
                                     processes=processes) as dispatch:
        return _run_pooled(calls, max(1, processes), dispatch)

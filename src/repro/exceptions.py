"""Exception hierarchy for the Flor reproduction.

Every error raised by this package derives from :class:`FlorError` so that
callers can catch package failures without also swallowing programming
errors (``TypeError``, ``KeyError``, ...) from their own code.
"""

from __future__ import annotations


class FlorError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class RecordError(FlorError):
    """Raised when the record phase cannot capture required state."""


class ReplayError(FlorError):
    """Raised when the replay phase cannot restore or recompute state."""


class CheckpointNotFoundError(ReplayError):
    """Raised when a memoized Loop End Checkpoint is missing on replay."""

    def __init__(self, run_id: str, block_id: str, execution_index: int):
        self.run_id = run_id
        self.block_id = block_id
        self.execution_index = execution_index
        super().__init__(
            f"no checkpoint for run={run_id!r} block={block_id!r} "
            f"execution={execution_index}"
        )


class ReplayAnomalyError(ReplayError):
    """Raised when deferred correctness checks detect a record/replay mismatch.

    The paper (Section 5.2.2) *warns* the user rather than aborting; Flor's
    deferred checker in this reproduction warns by default and raises this
    error only when ``strict`` checking is requested.
    """


class ReplaySafetyError(ReplayError):
    """Raised when static analysis refuses a replay or query.

    Carries the :class:`~repro.analysis.diagnostics.DiagnosticReport` that
    motivated the refusal (``MUTATING`` probes, RPL001) so callers can
    render the offending lines.
    """

    def __init__(self, message: str, report=None):
        self.report = report
        if report is not None and len(report):
            message = f"{message}\n{report.render_text()}"
        super().__init__(message)


class ReplaySafetyWarning(UserWarning):
    """Emitted at record open when the determinism lint finds hazards.

    A :class:`UserWarning` (not a :class:`FlorError`) because the default
    posture is to record anyway — the ``strict_analysis`` config knob
    upgrades these findings to a :class:`RecordError`.
    """


class InstrumentationError(FlorError):
    """Raised when the AST instrumentation pass cannot transform a script."""


class SideEffectAnalysisError(FlorError):
    """Raised when static side-effect analysis encounters malformed input."""


class UninstrumentableLoopError(SideEffectAnalysisError):
    """Raised (internally) when a loop activates Rule 5 or Rule 0 of Table 1.

    Such loops are left intact — they are fully re-executed on replay — so
    this exception is usually caught by the instrumenter rather than
    propagated to users.
    """

    def __init__(self, reason: str, lineno: int | None = None):
        self.reason = reason
        self.lineno = lineno
        where = f" at line {lineno}" if lineno is not None else ""
        super().__init__(f"loop cannot be instrumented{where}: {reason}")


class StorageError(FlorError):
    """Raised when the checkpoint store cannot read or write a payload."""


class SerializationError(StorageError):
    """Raised when an object cannot be serialized into a checkpoint."""


class ConfigError(FlorError):
    """Raised for invalid configuration values (e.g. negative tolerance)."""


class QueryError(FlorError):
    """Raised when a hindsight query cannot be planned or executed.

    Covers an empty run selection, a value that can be neither read nor
    recomputed (no probe source provided), and replay-job failures inside
    the query executor.
    """


class ServiceError(FlorError):
    """Raised for hindsight-query-service failures (client or server side).

    Carries the wire-protocol error ``code`` (see ``docs/api.md``) so
    callers can branch on the contract rather than on message text.
    """

    def __init__(self, message: str, code: str = "INTERNAL"):
        self.code = code
        super().__init__(message)


class ServiceBusy(ServiceError):
    """The daemon's admission queue is full; retry after ``retry_after``.

    A typed rejection, not a hang: the server answers immediately with a
    ``Retry-After``-style hint (seconds) derived from its measured request
    throughput, and :class:`~repro.service.client.ServiceClient` honours it
    in its retry/backoff loop before surfacing this error.
    """

    def __init__(self, message: str, retry_after: float = 0.1):
        self.retry_after = float(retry_after)
        super().__init__(message, code="SERVICE_BUSY")


class SimulationError(FlorError):
    """Raised by the paper-scale evaluation simulator for invalid setups."""


class WorkloadError(FlorError):
    """Raised when a workload name is unknown or a workload is misconfigured."""


class WorkerDied(FlorError):
    """A worker process exited (e.g. was killed) while running a job.

    The message names the job — for replay, its run and iterations — so
    the failure points at the work that was lost, not just at the pool.
    """

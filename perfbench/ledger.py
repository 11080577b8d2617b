"""Per-layer ledger: spans recorded around the program's layer boundaries.

Nothing inside the program changes.  :meth:`Ledger.install` replaces each
boundary function listed in :data:`BOUNDARIES` with a timing wrapper
*wherever it is looked up*: a module-level function is rebound in every
loaded ``repro`` module that holds it (``spool`` and ``checkpoint_store``
import ``serialize_checkpoint`` by name, for example), and a method is
rebound on its class and on every subclass that overrides it.

Install before any process pool forks: forked replay workers inherit the
wrappers.  Each process keeps its spans in memory.  A pool worker flushes
them to ``<span_dir>/spans-<pid>.jsonl`` as each wrapped job returns, and
the daemon does the same after each request, so terminating a pool cannot
lose them.  A boundary that a later refactor removed is listed in
:attr:`Ledger.missing` and skipped; the untraced benchmark never installs
the wrappers at all.

A span is a dict with ``name``, ``id``, ``parent``, ``pid``, ``thread``,
``start`` and ``end`` (``time.monotonic``, which every process on the
machine shares) and ``attrs``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import os
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Environment variable naming the span directory of a traced daemon.
SPAN_DIR_ENV = "PERFBENCH_SPAN_DIR"


@dataclass(frozen=True)
class Boundary:
    """One wrapped function: ``module`` + ``attr`` (``Class.method`` or a name).

    ``describe`` turns ``(result, args, kwargs)`` into span attributes;
    ``flush`` writes the process's spans out after the call returns;
    an ``envelope`` span encloses whole requests and is left out when
    attributing a phase's wall time to layers.
    """

    metric: str
    module: str
    attr: str
    describe: Callable | None = None
    flush: bool = False
    envelope: bool = False


def _chunks(result, _args, _kwargs) -> dict:
    return {"chunks": len(result)}


def _replay_jobs(_result, args, kwargs) -> dict:
    jobs = len(args[0]) if args else len(kwargs.get("jobs", ()))
    processes = kwargs.get("processes", args[2] if len(args) > 2 else 1)
    pooled = jobs > 1 and processes > 1
    return {"workers": min(processes, jobs) if pooled else 1}


def _queue_wait(_result, args, _kwargs) -> dict:
    ticket = args[0]
    return {"queue_wait": float(ticket.queue_wait)}


BOUNDARIES: tuple[Boundary, ...] = (
    Boundary("analysis.lint_source", "repro.analysis.lint", "lint_source"),
    Boundary("analysis.instrument_source", "repro.analysis.instrument",
             "instrument_source"),
    Boundary("record.snapshot_value", "repro.storage.serializer",
             "snapshot_value"),
    Boundary("record.materializer_submit", "repro.record.materializer",
             "Materializer.submit"),
    Boundary("session.close", "repro.session", "Session.close"),
    Boundary("storage.serialize_checkpoint", "repro.storage.serializer",
             "serialize_checkpoint"),
    Boundary("storage.chunk_payload", "repro.storage.chunking",
             "chunk_payload", describe=_chunks),
    Boundary("storage.codec_encode", "repro.storage.compression",
             "compress"),
    Boundary("storage.write_payload", "repro.storage.checkpoint_store",
             "CheckpointStore.write_payload"),
    Boundary("storage.flush", "repro.storage.checkpoint_store",
             "CheckpointStore.flush"),
    Boundary("storage.get", "repro.storage.checkpoint_store",
             "CheckpointStore.get"),
    Boundary("storage.codec_decode", "repro.storage.compression",
             "decompress"),
    Boundary("storage.deserialize_checkpoint", "repro.storage.serializer",
             "deserialize_checkpoint"),
    Boundary("replay.run_replay_jobs", "repro.replay.parallel",
             "run_replay_jobs", describe=_replay_jobs),
    Boundary("replay.worker_job", "repro.replay.parallel", "run_worker"),
    # The pool entry point: wrapped only so a worker writes its spans out
    # before the job's result travels back.
    Boundary("replay.pool_entry", "repro.replay.parallel", "_job_entry",
             flush=True, envelope=True),
    Boundary("query.catalog_open", "repro.query.catalog", "RunCatalog.open"),
    Boundary("query.prepare_query", "repro.query.api", "prepare_query"),
    Boundary("query.execute_span_jobs", "repro.query.executor",
             "execute_span_jobs"),
    Boundary("query.memo_write_back", "repro.query.memo",
             "MemoCache.write_back"),
    Boundary("query.explain", "repro.query.explain", "explain"),
    Boundary("service.connect", "repro.service.client",
             "ServiceClient._connect"),
    Boundary("service.attempt", "repro.service.client",
             "ServiceClient._attempt", envelope=True),
    Boundary("service.request", "repro.service.server",
             "QueryService._dispatch", flush=True, envelope=True),
    Boundary("service.pool_wait", "repro.service.scheduler",
             "FairReplayPool.wait", describe=_queue_wait, envelope=True),
)

ENVELOPES = frozenset(b.metric for b in BOUNDARIES if b.envelope)


class Ledger:
    """Spans of one process (and, after a fork, of each child separately)."""

    def __init__(self, span_dir: Path):
        self.span_dir = Path(span_dir)
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self) -> None:
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.spans: list[dict] = []

    def _owned(self) -> None:
        # A forked child starts with a copy of the parent's spans (and
        # possibly a lock some other parent thread held): start afresh.
        if os.getpid() != self._pid:
            self._reset()

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Record a span around a block; yields its mutable ``attrs``."""
        self._owned()
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = f"{os.getpid()}-{next(self._ids)}"
        stack.append(span_id)
        start = time.monotonic()
        try:
            yield attrs
        finally:
            end = time.monotonic()
            stack.pop()
            # ``attrs`` stays shared, so a caller may still fill it in
            # after the block (a record phase learns its paired vanilla
            # time only afterwards).
            record = {"name": name, "id": span_id, "parent": parent,
                      "pid": os.getpid(), "thread": threading.get_ident(),
                      "start": start, "end": end, "attrs": attrs}
            with self._lock:
                self.spans.append(record)

    def flush(self) -> None:
        """Append this process's spans to its span file and forget them."""
        self._owned()
        with self._lock:
            spans, self.spans = self.spans, []
        if not spans:
            return
        self.span_dir.mkdir(parents=True, exist_ok=True)
        path = self.span_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for record in spans:
                handle.write(json.dumps(record) + "\n")

    def collect(self) -> list[dict]:
        """This process's spans plus every span file under ``span_dir``."""
        spans = list(self.spans)
        for path in sorted(self.span_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                spans.extend(json.loads(line) for line in handle if line)
        return spans

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def _wrap(self, boundary: Boundary, fn: Callable) -> Callable:
        ledger = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                with ledger.span(boundary.metric) as attrs:
                    try:
                        result = fn(*args, **kwargs)
                    except Exception as error:
                        attrs["error"] = type(error).__name__
                        raise
                    if boundary.describe is not None:
                        attrs.update(boundary.describe(result, args, kwargs))
                    return result
            finally:
                if boundary.flush:
                    ledger.flush()

        return traced

    def install(self) -> "Ledger":
        """Wrap every boundary that still exists; note the ones that do not."""
        importlib.import_module("repro")  # loads every subpackage
        for boundary in BOUNDARIES:
            try:
                module = importlib.import_module(boundary.module)
            except ImportError:
                self.missing.append(boundary.metric)
                continue
            owner_name, _dot, name = boundary.attr.rpartition(".")
            if owner_name:
                installed = self._install_method(boundary, module,
                                                 owner_name, name)
            else:
                installed = self._install_function(boundary, module, name)
            if not installed:
                self.missing.append(boundary.metric)
        return self

    def _install_function(self, boundary: Boundary, module,
                          name: str) -> bool:
        original = getattr(module, name, None)
        if not callable(original):
            return False
        wrapper = self._wrap(boundary, original)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not (loaded_name == "repro"
                                      or loaded_name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._restore.append((loaded, key, value))
                    setattr(loaded, key, wrapper)
        return True

    def _install_method(self, boundary: Boundary, module, owner_name: str,
                        name: str) -> bool:
        owner = getattr(module, owner_name, None)
        if not inspect.isclass(owner) or not hasattr(owner, name):
            return False
        pending, seen = [owner], set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            raw = cls.__dict__.get(name)
            if raw is None:
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self._wrap(boundary, raw.__func__))
            else:
                wrapped = self._wrap(boundary, raw)
            self._restore.append((cls, name, raw))
            setattr(cls, name, wrapped)
        return True

    def uninstall(self) -> None:
        """Put every original back, newest first."""
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)


# ---------------------------------------------------------------------- #
# Aggregation
# ---------------------------------------------------------------------- #
def union_seconds(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, cover_start, cover_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cover_end is None or start > cover_end:
            if cover_end is not None:
                total += cover_end - cover_start
            cover_start, cover_end = start, end
        else:
            cover_end = max(cover_end, end)
    if cover_end is not None:
        total += cover_end - cover_start
    return total


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


#: Boundaries wrapped for their side effect or attributes, not their time.
_NO_BUSY = ("replay.pool_entry", "service.attempt", "service.pool_wait")

#: Phases whose wall time the ledger attributes to layers, and whether
#: spans of other processes (pool workers, the daemon) count toward them.
PHASES = {"record": False, "query_cold": True, "query_memo": True,
          "service": True}


def layer_metrics(spans: list[dict], main_pid: int, since: float,
                  daemon_workers: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans that started at or after ``since``.

    ``busy_s`` is the union of a boundary's intervals over every process
    and thread, so overlapping spool threads and pool workers count once.
    """
    spans = [span for span in spans if span["start"] >= since]
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    out: dict[str, tuple[float, str]] = {}
    for boundary in BOUNDARIES:
        if boundary.metric in _NO_BUSY:
            continue
        named = by_name.get(boundary.metric, [])
        out[f"{boundary.metric}.busy_s"] = (
            union_seconds((s["start"], s["end"]) for s in named), "s")
        out[f"{boundary.metric}.count"] = (float(len(named)), "count")

    # The cold-process gap: each process's first checkpoint read against
    # every later one.
    gets: dict[int, list[dict]] = {}
    for span in by_name.get("storage.get", []):
        gets.setdefault(span["pid"], []).append(span)
    first, warm = [], []
    for per_pid in gets.values():
        per_pid.sort(key=lambda s: s["start"])
        first.append(per_pid[0]["end"] - per_pid[0]["start"])
        warm.extend(s["end"] - s["start"] for s in per_pid[1:])
    out["storage.get.first_in_process_s"] = (_median(first), "s")
    out["storage.get.warm_s"] = (_median(warm), "s")

    chunks = sum(s.get("attrs", {}).get("chunks", 0)
                 for s in by_name.get("storage.chunk_payload", []))
    out["storage.chunks_produced"] = (float(chunks), "count")

    out["replay.worker_idle_share"] = (
        _idle_share(spans, by_name, main_pid, daemon_workers), "ratio")

    # Only a daemon that replays (serve-while-recording) has pool waits.
    waits = by_name.get("service.pool_wait", [])
    if waits:
        out["service.queue_wait_s"] = (
            sum(s["attrs"].get("queue_wait", 0.0) for s in waits), "s")
        out["service.pool_jobs"] = (float(len(waits)), "count")
    out["service.busy_retries"] = (float(sum(
        1 for s in by_name.get("service.attempt", [])
        if s.get("attrs", {}).get("error") == "ServiceBusy")), "count")

    for phase, cross_process in PHASES.items():
        out[f"{phase}.unattributed_s"] = (_unattributed(
            spans, f"phase.{phase}", main_pid, cross_process), "s")
    return out


def _idle_share(spans, by_name, main_pid: int, daemon_workers: int) -> float:
    """1 − worker busy ÷ (workers × wall), over every replay dispatch.

    In-library queries dispatch through ``run_replay_jobs``; the daemon's
    persistent pool is judged over the service phases instead.
    """
    jobs = by_name.get("replay.worker_job", [])
    windows = [(s["start"], s["end"], s.get("attrs", {}).get("workers", 1))
               for s in by_name.get("replay.run_replay_jobs", [])]
    if not windows:
        windows = [(s["start"], s["end"], daemon_workers)
                   for s in by_name.get("phase.query_cold", [])]
        jobs = [s for s in jobs if s["pid"] != main_pid]
    capacity = busy = 0.0
    for start, end, workers in windows:
        capacity += workers * (end - start)
        per_pid: dict[int, list] = {}
        for job in jobs:
            if job["end"] > start and job["start"] < end:
                per_pid.setdefault(job["pid"], []).append(
                    (max(job["start"], start), min(job["end"], end)))
        busy += sum(union_seconds(v) for v in per_pid.values())
    return 1.0 - busy / capacity if capacity > 0 else 0.0


def _unattributed(spans, phase_name: str, main_pid: int,
                  cross_process: bool) -> float:
    """Median over phase instances of wall − vanilla compute − layer union."""
    layers = [s for s in spans if not s["name"].startswith("phase.")
              and s["name"] not in ENVELOPES]
    values = []
    for phase in spans:
        if phase["name"] != phase_name:
            continue
        start, end = phase["start"], phase["end"]
        inside = [(max(s["start"], start), min(s["end"], end))
                  for s in layers
                  if s["end"] > start and s["start"] < end
                  and ((s["pid"] == main_pid
                        and s["thread"] == phase["thread"])
                       or (cross_process and s["pid"] != main_pid))]
        vanilla = phase.get("attrs", {}).get("vanilla_s", 0.0)
        values.append(end - start - vanilla - union_seconds(inside))
    return _median(values)

"""Background checkpoint materialization (Section 5.1).

Materializing a checkpoint means serializing Python objects and writing the
bytes to disk.  Doing that on the main thread stalls model training, so Flor
pushes the work into the background.  The paper compares four strategies
(Figure 5); all four are implemented here behind a common interface:

``sequential``
    Serialize and write on the main thread (the cloudpickle baseline).
``thread``
    Hand the (already-snapshotted) objects to a background thread.  The GIL
    limits how much serialization overlaps with training, but the disk write
    does overlap.
``ipc_queue``
    Serialize on the main thread, ship bytes to a writer *process* through a
    ``multiprocessing`` queue (the paper's IPC-Queue baseline).
``fork``
    Buffer checkpoints and ``os.fork()``: the child inherits the objects via
    copy-on-write, serializes and writes them, then exits.  The main process
    resumes training immediately (the paper's chosen mechanism).

A fifth strategy, ``shared_memory``, plays the role of the paper's
IPC-Plasma baseline: array payloads are placed in shared memory so the main
thread avoids serializing them; everything else falls back to queue
shipping.  Like Plasma, it only helps for array-like data.

``spool`` — the production default — goes beyond the paper's single
background thread: it hands snapshots to a **bounded** multi-worker
pipeline (:class:`repro.storage.spool.AsyncSpool`) that serializes,
compresses and writes off the hot path, commits manifest rows in batches,
and applies backpressure when the queue fills, so record-time memory stays
bounded under heavy checkpoint traffic.

Every ``submit`` returns a :class:`MaterializationTicket` whose
``main_thread_seconds`` is the time the training thread was blocked — the
quantity Figure 5 measures and the record-overhead figures build on.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import queue
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..exceptions import RecordError
from ..storage.checkpoint_store import CheckpointStore
from ..storage.serializer import ValueSnapshot, serialize_checkpoint
from ..storage.spool import AsyncSpool
from ..utils.timing import monotonic

__all__ = ["MaterializationTicket", "Materializer", "SequentialMaterializer",
           "ThreadMaterializer", "IPCQueueMaterializer", "ForkMaterializer",
           "SharedMemoryMaterializer", "SpoolMaterializer",
           "create_materializer", "MATERIALIZER_NAMES"]


@dataclass
class MaterializationTicket:
    """Receipt for one submitted checkpoint."""

    block_id: str
    execution_index: int
    main_thread_seconds: float
    payload_nbytes: int
    completed_inline: bool


@dataclass
class MaterializerStats:
    """Aggregate accounting across a materializer's lifetime."""

    submitted: int = 0
    total_main_thread_seconds: float = 0.0
    total_payload_nbytes: int = 0
    errors: list[str] = field(default_factory=list)


class Materializer:
    """Common interface: ``submit`` checkpoints, ``flush`` to durability."""

    name = "abstract"

    def __init__(self, store: CheckpointStore):
        self.store = store
        self.stats = MaterializerStats()

    def submit(self, block_id: str, execution_index: int,
               snapshots: list[ValueSnapshot]) -> MaterializationTicket:
        raise NotImplementedError

    def flush(self) -> None:
        """Block until every submitted checkpoint is durable and indexed."""

    def close(self) -> None:
        self.flush()

    def _account(self, ticket: MaterializationTicket) -> MaterializationTicket:
        self.stats.submitted += 1
        self.stats.total_main_thread_seconds += ticket.main_thread_seconds
        self.stats.total_payload_nbytes += ticket.payload_nbytes
        return ticket


class SequentialMaterializer(Materializer):
    """Serialize and write on the calling (training) thread."""

    name = "sequential"

    def submit(self, block_id, execution_index, snapshots):
        start = monotonic()
        serialized = serialize_checkpoint(snapshots)
        self.store.put_serialized(block_id, execution_index, serialized)
        elapsed = monotonic() - start
        return self._account(MaterializationTicket(
            block_id=block_id, execution_index=execution_index,
            main_thread_seconds=elapsed, payload_nbytes=serialized.nbytes,
            completed_inline=True))


class ThreadMaterializer(Materializer):
    """Serialize and write on a dedicated background thread."""

    name = "thread"
    _STOP = object()

    def __init__(self, store: CheckpointStore):
        super().__init__(store)
        self._queue: "queue.Queue[object]" = queue.Queue()
        self._thread = threading.Thread(target=self._drain, daemon=True,
                                        name="flor-materializer")
        self._thread.start()

    def submit(self, block_id, execution_index, snapshots):
        start = monotonic()
        estimate = sum(snapshot.nbytes() for snapshot in snapshots)
        self._queue.put((block_id, execution_index, snapshots))
        elapsed = monotonic() - start
        return self._account(MaterializationTicket(
            block_id=block_id, execution_index=execution_index,
            main_thread_seconds=elapsed, payload_nbytes=estimate,
            completed_inline=False))

    def _drain(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is self._STOP:
                    return
                block_id, execution_index, snapshots = item
                try:
                    self.store.put(block_id, execution_index, snapshots)
                except Exception as exc:  # pragma: no cover - background errors
                    self.stats.errors.append(
                        f"{block_id}[{execution_index}]: {exc}")
            finally:
                self._queue.task_done()

    def flush(self) -> None:
        # Queue.join blocks until every submitted item has been processed.
        self._queue.join()

    def close(self) -> None:
        self.flush()
        self._queue.put(self._STOP)
        self._thread.join(timeout=30.0)


def _ipc_writer(run_dir: str, compress: bool, work_queue: mp.Queue) -> None:
    """Entry point of the IPC-Queue writer process."""
    store = CheckpointStore(run_dir, compress=compress)
    while True:
        item = work_queue.get()
        if item is None:
            return
        block_id, execution_index, payload = item
        snapshots = pickle.loads(payload)
        store.put(block_id, execution_index, snapshots)


class IPCQueueMaterializer(Materializer):
    """Serialize on the main thread; write in a separate process."""

    name = "ipc_queue"

    def __init__(self, store: CheckpointStore):
        super().__init__(store)
        self._ctx = mp.get_context("fork" if hasattr(os, "fork") else "spawn")
        self._queue: mp.Queue = self._ctx.Queue()
        self._process = self._ctx.Process(
            target=_ipc_writer,
            args=(str(store.run_dir), store.compress, self._queue),
            daemon=True)
        self._process.start()

    def submit(self, block_id, execution_index, snapshots):
        start = monotonic()
        payload = pickle.dumps(snapshots, protocol=pickle.HIGHEST_PROTOCOL)
        self._queue.put((block_id, execution_index, payload))
        elapsed = monotonic() - start
        return self._account(MaterializationTicket(
            block_id=block_id, execution_index=execution_index,
            main_thread_seconds=elapsed, payload_nbytes=len(payload),
            completed_inline=False))

    def flush(self) -> None:
        deadline = time.time() + 30.0
        while not self._queue.empty() and time.time() < deadline:
            time.sleep(0.005)
        # Give the writer a moment to finish the item it popped last.
        time.sleep(0.05)

    def close(self) -> None:
        self.flush()
        self._queue.put(None)
        self._process.join(timeout=30.0)
        if self._process.is_alive():  # pragma: no cover - defensive
            self._process.terminate()


class ForkMaterializer(Materializer):
    """Buffer checkpoints and materialize them from forked children.

    ``fork()`` gives the child a copy-on-write view of the parent's heap, so
    the training process resumes immediately while the child serializes and
    writes.  Submissions are buffered and batched (the paper batches 5000
    objects per fork) so fork frequency stays low.
    """

    name = "fork"

    def __init__(self, store: CheckpointStore, batch_objects: int = 5000):
        if not hasattr(os, "fork"):
            raise RecordError("fork materialization requires a POSIX system")
        super().__init__(store)
        self.batch_objects = batch_objects
        self._buffer: list[tuple[str, int, list[ValueSnapshot]]] = []
        self._buffered_objects = 0
        self._children: list[int] = []

    def submit(self, block_id, execution_index, snapshots):
        start = monotonic()
        estimate = sum(snapshot.nbytes() for snapshot in snapshots)
        self._buffer.append((block_id, execution_index, snapshots))
        self._buffered_objects += max(len(snapshots), 1)
        if self._buffered_objects >= self.batch_objects:
            self._fork_batch()
        elapsed = monotonic() - start
        return self._account(MaterializationTicket(
            block_id=block_id, execution_index=execution_index,
            main_thread_seconds=elapsed, payload_nbytes=estimate,
            completed_inline=False))

    def _fork_batch(self) -> None:
        if not self._buffer:
            return
        batch = self._buffer
        self._buffer = []
        self._buffered_objects = 0
        self._reap(block=False)
        pid = os.fork()
        if pid == 0:
            # Child: materialize everything in the inherited batch and exit
            # without running any parent cleanup handlers.
            status = 0
            try:
                for block_id, execution_index, snapshots in batch:
                    self.store.put(block_id, execution_index, snapshots)
            except Exception:
                status = 1
            os._exit(status)
        else:
            self._children.append(pid)

    def _reap(self, block: bool) -> None:
        still_alive: list[int] = []
        for pid in self._children:
            try:
                done, status = os.waitpid(pid, 0 if block else os.WNOHANG)
            except ChildProcessError:
                continue
            if done == 0:
                still_alive.append(pid)
            elif os.waitstatus_to_exitcode(status) != 0:
                self.stats.errors.append(f"fork child {pid} failed")
        self._children = still_alive

    def flush(self) -> None:
        self._fork_batch()
        self._reap(block=True)


class SharedMemoryMaterializer(Materializer):
    """Plasma-like strategy: avoid serializing array payloads on the main thread.

    State-dict snapshots (dicts of ndarrays) have their arrays copied into a
    ``multiprocessing.shared_memory`` segment — a memcpy, not a pickle — and
    a writer process reassembles and persists them.  Non-array snapshots fall
    back to pickling through the queue, mirroring Plasma's limitation that it
    "cannot serialize other data types including PyTorch tensors".
    """

    name = "shared_memory"

    def __init__(self, store: CheckpointStore):
        super().__init__(store)
        from multiprocessing import shared_memory  # local: optional feature
        self._shared_memory = shared_memory
        self._ctx = mp.get_context("fork" if hasattr(os, "fork") else "spawn")
        self._queue: mp.Queue = self._ctx.Queue()
        self._process = self._ctx.Process(
            target=_shared_memory_writer,
            args=(str(store.run_dir), store.compress, self._queue),
            daemon=True)
        self._process.start()

    def submit(self, block_id, execution_index, snapshots):
        start = monotonic()
        descriptors = []
        segments = []
        total = 0
        for snapshot in snapshots:
            arrays = _extract_arrays(snapshot)
            if arrays is None:
                payload = pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
                descriptors.append(("pickle", snapshot.name, payload))
                total += len(payload)
                continue
            array_meta = []
            for key, array in arrays.items():
                segment = self._shared_memory.SharedMemory(
                    create=True, size=max(array.nbytes, 1))
                view = np.ndarray(array.shape, dtype=array.dtype,
                                  buffer=segment.buf)
                view[...] = array
                array_meta.append((key, segment.name, array.shape,
                                   str(array.dtype)))
                segments.append(segment)
                total += array.nbytes
            descriptors.append(("shm", snapshot.name, snapshot.kind, array_meta))
        self._queue.put((block_id, execution_index, descriptors))
        elapsed = monotonic() - start
        # Keep references alive until the writer confirms by closing them;
        # for simplicity we let the writer unlink and drop ours on flush.
        self._pending_segments = getattr(self, "_pending_segments", [])
        self._pending_segments.extend(segments)
        return self._account(MaterializationTicket(
            block_id=block_id, execution_index=execution_index,
            main_thread_seconds=elapsed, payload_nbytes=total,
            completed_inline=False))

    def flush(self) -> None:
        deadline = time.time() + 30.0
        while not self._queue.empty() and time.time() < deadline:
            time.sleep(0.005)
        time.sleep(0.05)
        for segment in getattr(self, "_pending_segments", []):
            try:
                segment.close()
            except (OSError, ValueError):
                pass
        self._pending_segments = []

    def close(self) -> None:
        self.flush()
        self._queue.put(None)
        self._process.join(timeout=30.0)
        if self._process.is_alive():  # pragma: no cover - defensive
            self._process.terminate()


def _extract_arrays(snapshot: ValueSnapshot) -> dict[str, np.ndarray] | None:
    """Return the snapshot's payload as flat name->ndarray, or None."""
    payload = snapshot.payload
    if isinstance(payload, np.ndarray):
        return {"__array__": payload}
    if isinstance(payload, dict) and payload and all(
            isinstance(v, np.ndarray) for v in payload.values()):
        return dict(payload)
    return None


def _shared_memory_writer(run_dir: str, compress: bool, work_queue: mp.Queue
                          ) -> None:
    """Entry point of the shared-memory writer process."""
    from multiprocessing import shared_memory

    store = CheckpointStore(run_dir, compress=compress)
    while True:
        item = work_queue.get()
        if item is None:
            return
        block_id, execution_index, descriptors = item
        snapshots: list[ValueSnapshot] = []
        for descriptor in descriptors:
            if descriptor[0] == "pickle":
                snapshots.append(pickle.loads(descriptor[2]))
                continue
            _, name, kind, array_meta = descriptor
            payload: dict[str, np.ndarray] = {}
            for key, segment_name, shape, dtype in array_meta:
                segment = shared_memory.SharedMemory(name=segment_name)
                view = np.ndarray(shape, dtype=np.dtype(dtype),
                                  buffer=segment.buf)
                payload[key] = np.array(view, copy=True)
                segment.close()
                try:
                    segment.unlink()
                except FileNotFoundError:
                    pass
            if list(payload) == ["__array__"]:
                snapshots.append(ValueSnapshot(name=name, kind=kind,
                                               payload=payload["__array__"]))
            else:
                snapshots.append(ValueSnapshot(name=name, kind=kind,
                                               payload=payload))
        store.put(block_id, execution_index, snapshots)


class SpoolMaterializer(Materializer):
    """Materialize through the bounded async spool pipeline.

    The hot path only snapshots and enqueues; a pool of worker threads
    drains the bounded queue, writes payloads through the store's backend,
    and commits manifest rows in batches.  ``flush`` is a full barrier: on
    return every submitted checkpoint is durable and indexed.
    """

    name = "spool"

    def __init__(self, store: CheckpointStore, workers: int = 2,
                 queue_size: int = 64, batch_size: int = 16,
                 on_complete=None, on_batch_commit=None):
        super().__init__(store)
        self.spool = AsyncSpool(store, workers=workers,
                                queue_size=queue_size, batch_size=batch_size,
                                on_complete=on_complete,
                                on_batch_commit=on_batch_commit)

    def submit(self, block_id, execution_index, snapshots):
        main_thread_seconds, estimate = self.spool.submit(
            block_id, execution_index, snapshots)
        return self._account(MaterializationTicket(
            block_id=block_id, execution_index=execution_index,
            main_thread_seconds=main_thread_seconds,
            payload_nbytes=estimate, completed_inline=False))

    def _sync_errors(self) -> None:
        for message in self.spool.stats.errors[len(self.stats.errors):]:
            self.stats.errors.append(message)

    def flush(self) -> None:
        self.spool.flush()
        self._sync_errors()

    def close(self) -> None:
        self.spool.close()
        self._sync_errors()


#: Factory table used by the configuration layer.
MATERIALIZER_NAMES = {
    "sequential": SequentialMaterializer,
    "thread": ThreadMaterializer,
    "ipc_queue": IPCQueueMaterializer,
    "fork": ForkMaterializer,
    "shared_memory": SharedMemoryMaterializer,
    "spool": SpoolMaterializer,
}


def create_materializer(name: str, store: CheckpointStore, config=None,
                        **kwargs) -> Materializer:
    """Instantiate a materializer strategy by configuration name.

    When a :class:`~repro.config.FlorConfig` is passed, strategy-specific
    knobs (spool pool sizing, fork batch size) default to the configured
    values; explicit ``kwargs`` still win.
    """
    try:
        factory = MATERIALIZER_NAMES[name]
    except KeyError as exc:
        raise RecordError(
            f"unknown materializer {name!r}; known: "
            f"{sorted(MATERIALIZER_NAMES)}") from exc
    if config is not None:
        if name == "spool":
            kwargs.setdefault("workers", config.spool_workers)
            kwargs.setdefault("queue_size", config.spool_queue_size)
            kwargs.setdefault("batch_size", config.manifest_batch_size)
        elif name == "fork":
            kwargs.setdefault("batch_objects", config.fork_batch_size)
    return factory(store, **kwargs)

"""Data-parallel record: K workers, one shared Flor home, one logical job.

The fleet-scale shape of the paper's headline scenario: a data-parallel
training job runs as ``world_size`` recorder processes, each training on
its own shard of the dataset and recording **shard-local** state (its model
replica, its shard losses) into the *same* Flor home.  Every worker is an
ordinary Flor run — own run directory, own manifest, own record log —
identified as ``<job_id>@<rank>`` (:func:`~repro.utils.naming.worker_run_id`),
so nothing in the storage layer is distributed-aware: what the workers share
is exactly what PR 5 already shares per home, the content-addressed object
store and its GC, now exercised by concurrent *writers* instead of one
writer racing GC.  The catalog's merged view
(:meth:`~repro.query.catalog.RunCatalog.job`) groups the worker runs back
into one logical job for queries and drift diffs.

Entry points:

* :func:`build_distributed_training_script` — source text of one worker's
  shard-local training script (what each recorder process executes);
* :func:`record_worker` — record one worker's script under its worker run
  id (runs in the calling process; the per-process unit tests and the
  fault-injection battery drive this directly);
* :func:`run_distributed_record` — the driver: run ``world_size``
  recorder processes (a :class:`~repro.workers.WorkerPool`) against one
  shared home and collect per-worker results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..config import FlorConfig, get_config
from ..exceptions import WorkerDied, WorkloadError
from ..utils.naming import new_run_id, worker_run_id
from ..workers import WorkerPool
from .registry import get_workload

__all__ = ["DistributedWorkerResult", "DistributedRecordResult",
           "build_distributed_training_script", "record_worker",
           "run_distributed_record"]


_DISTRIBUTED_SCRIPT_TEMPLATE = '''\
"""Miniature {name} data-parallel worker {rank}/{world_size} ({task})."""
import numpy as np
from repro import api as flor
from repro import torchlike as tl
from repro.workloads.training import dataset_for, make_training_setup

RANK = {rank}
WORLD_SIZE = {world_size}

setup = make_training_setup({name!r}, seed={seed})
net = setup.net
optimizer = setup.optimizer
scheduler = setup.scheduler
criterion = setup.criterion


class _Shard:
    """Rank-strided view of the shared dataset (mirrors DistributedSampler)."""

    def __init__(self, dataset, rank, world):
        self.dataset = dataset
        self.indices = list(range(rank, len(dataset), world))

    def __getitem__(self, index):
        return self.dataset[self.indices[index]]

    def __len__(self):
        return len(self.indices)


shard = _Shard(dataset_for(setup.spec, seed={seed}), RANK, WORLD_SIZE)
trainloader = tl.DataLoader(shard, batch_size=setup.spec.mini_batch_size,
                            shuffle=True, seed={seed} + RANK)

for epoch in range({epochs}):
    trainloader.set_epoch(epoch)
    for inputs, targets in trainloader:
        logits = net({forward})
        loss = criterion(logits, targets)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
    scheduler.step()
    flor.log("shard_loss", loss.item())
    flor.log("shard_examples", len(shard))
'''


def build_distributed_training_script(workload_name: str, rank: int,
                                      world_size: int,
                                      epochs: int | None = None,
                                      seed: int = 0) -> str:
    """Source text of worker ``rank``'s shard-local training script.

    Every worker trains its own model replica on a rank-strided shard of
    the shared synthetic dataset; the model seed is shared (all replicas
    initialize identically — the data-parallel convention) while the
    shuffle seed is rank-offset so shards see independent batch orders.
    """
    if world_size < 1:
        raise WorkloadError(f"world_size must be >= 1, got {world_size}")
    if not 0 <= rank < world_size:
        raise WorkloadError(
            f"rank {rank} out of range for world_size {world_size}")
    spec = get_workload(workload_name)
    wrap_inputs = spec.name.lower() in ("cifr", "rsnt", "imgn", "jasp")
    forward = "tl.Tensor(inputs)" if wrap_inputs else "inputs"
    return _DISTRIBUTED_SCRIPT_TEMPLATE.format(
        name=spec.name, task=spec.task, rank=rank, world_size=world_size,
        seed=seed, forward=forward,
        epochs=epochs if epochs is not None else spec.mini_epochs)


@dataclass
class DistributedWorkerResult:
    """One worker's record outcome, as reported back through the pool."""

    rank: int
    run_id: str
    wall_seconds: float = 0.0
    checkpoint_count: int = 0
    logged_iterations: int = 0
    error: str | None = None

    @property
    def succeeded(self) -> bool:
        return self.error is None


@dataclass
class DistributedRecordResult:
    """Outcome of one data-parallel record job (K worker runs, one home)."""

    job_id: str
    world_size: int
    workers: list[DistributedWorkerResult] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def run_ids(self) -> list[str]:
        return [worker.run_id for worker in self.workers]

    @property
    def succeeded(self) -> bool:
        return all(worker.succeeded for worker in self.workers)


def record_worker(job_id: str, rank: int, world_size: int,
                  workload_name: str = "cifr", epochs: int | None = None,
                  seed: int = 0,
                  config: FlorConfig | None = None
                  ) -> DistributedWorkerResult:
    """Record one worker's shard-local run under ``<job_id>@<rank>``.

    Runs in the calling process — this is both the subprocess entry of
    :func:`run_distributed_record` and the unit the concurrency battery
    drives (and kills) directly.
    """
    from ..record.recorder import record_source

    config = config or get_config()
    run_id = worker_run_id(job_id, rank)
    start = time.perf_counter()
    try:
        source = build_distributed_training_script(
            workload_name, rank, world_size, epochs=epochs, seed=seed)
        recorded = record_source(source, name=workload_name, config=config,
                                 run_id=run_id)
    except Exception as exc:  # surfaced per worker, like WorkerResult.error
        return DistributedWorkerResult(rank=rank, run_id=run_id,
                                       wall_seconds=time.perf_counter() - start,
                                       error=f"{type(exc).__name__}: {exc}")
    return DistributedWorkerResult(
        rank=rank,
        run_id=run_id,
        wall_seconds=time.perf_counter() - start,
        checkpoint_count=recorded.checkpoint_count,
        logged_iterations=len({r.iteration for r in recorded.log_records
                               if r.iteration is not None}),
    )


def run_distributed_record(workload_name: str = "cifr", world_size: int = 2,
                           epochs: int | None = None, seed: int = 0,
                           job_name: str | None = None,
                           config: FlorConfig | None = None
                           ) -> DistributedRecordResult:
    """Record one data-parallel job: ``world_size`` processes, one home.

    Workers are real OS processes (the shared-home writer race is only
    real across processes); each records its shard-local run under
    ``<job_id>@<rank>``.  In-memory backends cannot span processes, so a
    ``memory``-backend config records its workers sequentially in this
    process instead — same runs, same shared (process-local) object store,
    no concurrency.  Worker failures are reported per worker, not raised:
    the surviving workers' runs are still valid, queryable Flor runs.
    """
    if world_size < 1:
        raise WorkloadError(f"world_size must be >= 1, got {world_size}")
    config = config or get_config()
    job_id = new_run_id(job_name or f"{workload_name}-ddp")
    result = DistributedRecordResult(job_id=job_id, world_size=world_size)
    start = time.perf_counter()

    args = [(job_id, rank, world_size, workload_name, epochs, seed, config)
            for rank in range(world_size)]
    if world_size == 1 or config.storage_backend == "memory":
        result.workers = [record_worker(*arg) for arg in args]
    else:
        with WorkerPool(world_size) as pool:
            futures = [pool.submit(record_worker, *arg) for arg in args]
            for rank, future in enumerate(futures):
                try:
                    worker = pool.result(future,
                                         f"record of rank {rank} of {job_id}")
                except WorkerDied as died:
                    worker = DistributedWorkerResult(
                        rank=rank, run_id=worker_run_id(job_id, rank),
                        error=str(died))
                result.workers.append(worker)
    result.wall_seconds = time.perf_counter() - start
    return result

"""Process-sharded training over subtree ownership.

The paper's strong-scaling results come from distributed-memory runs where
every MPI rank owns a subtree of the cluster tree, ranks are launched once
and per-rank factors stay resident across solves.  This package is the
shared-memory-machine reproduction of that architecture with
``multiprocessing`` — true process-level parallelism past the GIL:

* :mod:`repro.distributed.plan` — :class:`ShardPlan`, the bitwise
  deterministic cut of the cluster tree into ``P`` contiguous subtree
  shards (plus :func:`resolve_shards` / ``REPRO_SHARDS``);
* :mod:`repro.distributed.comm` — shared-memory numpy transport
  (:class:`SharedArray`, :class:`BlockChannel`): only tiny handles ride
  the queues, payloads are never pickled;
* :mod:`repro.distributed.grid` — :class:`WorkerGrid`, the persistent,
  context-managed process grid: one worker per shard, spawned once and
  reused warm across arbitrarily many fit / solve rounds (hyper-parameter
  sweeps respawn nothing);
* :mod:`repro.distributed.worker` — shard worker processes building their
  local HSS / H-matrix pieces and partial ULV factors with the existing
  level-parallel builders; spawn-time state in :class:`WorkerConfig`,
  per-fit state in :class:`FitSpec`;
* :mod:`repro.distributed.coordinator` — :class:`Coordinator`, which
  merges the top separator levels (the low-rank inter-shard coupling) into
  a small capacitance system and drives the distributed factor / solve
  (multi-RHS in one round trip) over a grid;
* :mod:`repro.distributed.factors` — :class:`ShardedFactors` /
  :class:`ShardedULVSolver`: per-shard ULV factors shipped back from the
  workers, persisted in version-2 model artifacts and re-solvable
  in-process without any worker grid;
* :mod:`repro.distributed.solver` — :class:`DistributedSolver`, the
  drop-in ``KernelSystemSolver`` wired into
  :class:`repro.krr.KernelRidgeClassifier` / :class:`repro.krr.KRRPipeline`
  through their ``shards=`` knob.

Serving a model cut at the same shard boundaries is
:class:`repro.serving.ShardedPredictionEngine`, which picks up the
:class:`ShardPlan` a sharded-trained (or reloaded) model carries.

See ``docs/architecture.md`` for the data-flow picture and
``docs/api.md`` for the public API reference.
"""

from .comm import (ArraySpec, BlockChannel, DistributedError, SharedArray,
                   WorkerCrashedError, WorkerTimeoutError)
from .coordinator import Coordinator
from .factors import ShardedFactors, ShardedULVSolver
from .grid import WorkerGrid
from .plan import ShardPlan, resolve_shards
from .solver import DistributedSolver
from .worker import FitSpec, WorkerConfig

__all__ = [
    "ArraySpec",
    "BlockChannel",
    "Coordinator",
    "DistributedError",
    "DistributedSolver",
    "FitSpec",
    "ShardPlan",
    "SharedArray",
    "ShardedFactors",
    "ShardedULVSolver",
    "WorkerConfig",
    "WorkerCrashedError",
    "WorkerGrid",
    "WorkerTimeoutError",
    "resolve_shards",
]

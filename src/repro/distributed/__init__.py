"""Process-sharded training over subtree ownership.

The paper's strong-scaling results come from distributed-memory runs where
every MPI rank owns a subtree of the cluster tree and ranks are launched
once.  This package is the shared-memory-machine reproduction of that
architecture with ``multiprocessing`` — true process-level parallelism
past the GIL — for the build, the part of a fit that is worth it.

The factorization is block-diagonal ULV solves plus one Woodbury
capacitance correction, written once as a *shard kernel* and a *coupling
system*, both in the calling process; the worker processes only build:

* :mod:`repro.distributed.plan` — :class:`ShardPlan`, the bitwise
  deterministic cut of the cluster tree into ``P`` contiguous subtree
  shards (plus :func:`resolve_shards` / ``REPRO_SHARDS``);
* :mod:`repro.distributed.grid` — :class:`WorkerGrid`, the persistent
  process grid: one worker per shard, spawned once and reused warm across
  arbitrarily many ``fit`` rounds, over the shared-memory numpy transport
  of :mod:`repro.distributed.comm` (:class:`SharedArray`,
  :class:`BlockChannel`: payloads are never pickled) and the one ``fit``
  command of :mod:`repro.distributed.worker` (:class:`WorkerConfig` at
  spawn, :class:`FitSpec` per fit): each worker compresses and factors its
  shard, ACA-compresses its coupling blocks and ships all of it back;
* :mod:`repro.distributed.shard` — :class:`ShardKernel`, one shard's
  local HSS / ULV factors and coupling columns with the steps the
  coupling system asks of it, rebuilt from a worker's reply or restored
  from an artifact;
* :mod:`repro.distributed.factors` — :class:`ShardedFactors`, the
  coupling state (and the algebra): the located coupling factors and the
  capacitance matrix of the top separator levels over the shard kernels;
  persisted as the ``dist.*`` artifact section;
* :mod:`repro.distributed.solver` — :class:`DistributedSolver`, the
  drop-in ``KernelSystemSolver`` behind every ``shards=`` knob: a ``fit``
  is one grid round plus the capacitance merge, and every later verb
  (``solve``, ``refit``, ``partial_fit``, saving) is the coupling system
  over the shard kernels — the λ-refit and the Woodbury solve — in the
  calling process, sending no grid message.  A sharded artifact restores
  onto the same class.

A sharded-trained (or reloaded) model is served like any other, by one
:class:`repro.serving.PredictionEngine` in the serving process.

See ``docs/architecture.md`` for the data-flow picture and
``docs/api.md`` for the public API reference.
"""

from .comm import (ArraySpec, BlockChannel, DistributedError, SharedArray,
                   WorkerCrashedError, WorkerTimeoutError)
from .factors import ShardedFactors
from .grid import WorkerGrid
from .plan import ShardPlan, resolve_shards
from .shard import ShardKernel
from .solver import DistributedSolver
from .worker import FitSpec, WorkerConfig

__all__ = [
    "ArraySpec",
    "BlockChannel",
    "DistributedError",
    "DistributedSolver",
    "FitSpec",
    "ShardKernel",
    "ShardPlan",
    "SharedArray",
    "ShardedFactors",
    "WorkerConfig",
    "WorkerCrashedError",
    "WorkerGrid",
    "WorkerTimeoutError",
    "resolve_shards",
]

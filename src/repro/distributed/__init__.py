"""Process-sharded training over subtree ownership.

The paper's strong-scaling results come from distributed-memory runs where
every MPI rank owns a subtree of the cluster tree, ranks are launched once
and per-rank factors stay resident across solves.  This package is the
shared-memory-machine reproduction of that architecture with
``multiprocessing`` — true process-level parallelism past the GIL.

The factorization is block-diagonal ULV solves plus one Woodbury
capacitance correction, written once as a *shard kernel* and a *coupling
system* that run over either of *two transports*:

* :mod:`repro.distributed.shard` — :class:`ShardKernel`, one shard's local
  HSS / ULV factors and coupling columns with its four steps (``refit``,
  ``couple``, ``solve``, ``correct``): the same class resident in a
  worker, shipped back by ``collect`` and restored from an artifact;
* :mod:`repro.distributed.factors` — :class:`ShardedFactors` /
  :class:`ShardedULVSolver`, the coupling system: the capacitance matrix
  of the top separator levels, the refit round and the Woodbury solve,
  against whichever transport holds the kernels; persisted as the
  ``dist.*`` artifact section;
* the transports — :class:`ShardList` (kernels in this process) and
  :mod:`repro.distributed.grid`'s :class:`WorkerGrid`, the persistent
  process grid: one worker per shard, spawned once and reused warm across
  arbitrarily many rounds, over the shared-memory numpy transport of
  :mod:`repro.distributed.comm` (:class:`SharedArray`,
  :class:`BlockChannel`: payloads are never pickled) and the command table
  of :mod:`repro.distributed.worker` (:class:`WorkerConfig` at spawn,
  :class:`FitSpec` per fit);
* :mod:`repro.distributed.plan` — :class:`ShardPlan`, the bitwise
  deterministic cut of the cluster tree into ``P`` contiguous subtree
  shards (plus :func:`resolve_shards` / ``REPRO_SHARDS``);
* :mod:`repro.distributed.coordinator` — :class:`Coordinator`, the ``fit``
  round that builds both halves in a grid, and the guard that keeps later
  rounds off a grid another fit has reused;
* :mod:`repro.distributed.solver` — :class:`DistributedSolver`, the
  drop-in ``KernelSystemSolver`` behind every ``shards=`` knob; its verbs
  run on whoever holds the fit's factors at that moment.

A sharded-trained (or reloaded) model is served like any other, by one
:class:`repro.serving.PredictionEngine` in the serving process.

See ``docs/architecture.md`` for the data-flow picture and
``docs/api.md`` for the public API reference.
"""

from .comm import (ArraySpec, BlockChannel, DistributedError, SharedArray,
                   WorkerCrashedError, WorkerTimeoutError)
from .coordinator import Coordinator
from .factors import ShardedFactors, ShardedULVSolver
from .grid import WorkerGrid
from .plan import ShardPlan, resolve_shards
from .shard import ShardKernel, ShardList
from .solver import DistributedSolver
from .worker import FitSpec, WorkerConfig

__all__ = [
    "ArraySpec",
    "BlockChannel",
    "Coordinator",
    "DistributedError",
    "DistributedSolver",
    "FitSpec",
    "ShardKernel",
    "ShardList",
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

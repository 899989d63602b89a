"""Shard worker process: the local build of one shard, and nothing else.

Each worker owns one contiguous shard of the permuted training set — a
subtree of the global cluster tree, exactly like a rank in the paper's MPI
runs.  Workers are spawned once per :class:`repro.distributed.WorkerGrid`
and stay alive across fits: only the *spawn-time* state (shard identity,
dataset, local tree — :class:`WorkerConfig`) is fixed at launch, while
everything per-fit (kernel, ridge shift, compression options, seeds —
:class:`FitSpec`) arrives with each ``fit`` command.  The worker

* attaches the full permuted dataset from shared memory (no copy of its
  own rows, no pickling),
* on every ``fit``, builds the local diagonal block's λ-free compression
  (optional H matrix + randomized HSS, via
  :func:`repro.hss.compress_kernel`) and its ULV factorization — the
  ridge shift is applied at factor time — with the same builders as
  the single-process path,
* ACA-compresses the inter-shard coupling blocks it owns (it sees the full
  dataset, so any pair it is assigned is computable locally), and
* ships the shard's ``hss.*`` / ``ulv.*`` sections and the pair factors
  back in the one ``fit`` reply.  It then keeps only the H-matrix block
  cluster tree, for the next (warm) fit: every later verb runs on the
  :class:`repro.distributed.ShardKernel` rebuilt in the calling process.

The command protocol is strictly synchronous (one request, one response),
which is what makes the creator-owns shared-memory lifetime rule of
:mod:`repro.distributed.comm` safe.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..clustering.tree import ClusterTree
from ..config import HMatrixOptions, HSSOptions
from ..hss.compressed import compress_kernel
from ..hss.ulv import ULVFactorization
from ..kernels.operator import KernelOperator
from ..lowrank.aca import aca_blocks
from ..obs import global_registry
from ..utils.timing import TimingLog
from .comm import ArraySpec, BlockChannel, SharedArray, WorkerTimeoutError


@dataclass(frozen=True)
class WorkerConfig:
    """Spawn-time configuration of one shard worker.

    Only what is fixed for the worker's whole lifetime lives here — shard
    identity and shard boundaries.  Everything per-fit travels in
    a :class:`FitSpec` with each ``fit`` command instead, which is what
    lets a :class:`repro.distributed.WorkerGrid` stay warm across fits.
    Array payloads (dataset, local tree) never ride here either; they
    travel through shared memory.

    Parameters
    ----------
    shard_id:
        This worker's shard index in ``[0, n_shards)``.
    boundaries:
        Permuted-position boundaries of all shards (length
        ``n_shards + 1``).
    owned_pairs:
        Pairs ``(s, t)`` whose inter-shard coupling block this worker
        ACA-compresses during ``fit``.
    """

    shard_id: int
    boundaries: Tuple[int, ...]
    owned_pairs: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class FitSpec:
    """Per-fit configuration shipped with every ``fit`` command.

    One grid serves many fits; this is the part that changes between them
    (a hyper-parameter sweep varies the kernel spec and ridge shift while
    the :class:`WorkerConfig` and the shared dataset stay fixed).

    Parameters
    ----------
    kernel_spec:
        Kernel description as produced by
        :func:`repro.serving.kernel_to_spec`.
    lam:
        Ridge shift of the training system.
    hss_options, hmatrix_options, use_hmatrix_sampling:
        Per-shard build options, matching :class:`repro.krr.HSSSolver`.
    seed:
        Base seed; each worker derives its sampling stream from
        ``(seed, shard_id)`` so runs are deterministic for a fixed plan.
    coupling_rel_tol:
        ACA tolerance of the inter-shard coupling blocks.
    coupling_max_rank:
        Optional rank cap of the coupling blocks.
    """

    kernel_spec: dict
    lam: float
    hss_options: HSSOptions
    hmatrix_options: HMatrixOptions
    use_hmatrix_sampling: bool
    seed: Optional[int]
    coupling_rel_tol: float
    coupling_max_rank: Optional[int]


class _ShardState:
    """What a worker holds between fits: its spawn-time data and the last
    fit's block cluster tree."""

    def __init__(self, config: WorkerConfig, X: np.ndarray,
                 tree: ClusterTree):
        self.config = config
        self.X = X                    # full permuted dataset (shared view)
        self.tree = tree              # local subtree, positions [0, size)
        #: H-matrix block cluster tree of the last fit, handed to the next
        #: one (the H matrix itself is a temporary of the compression)
        self.block_tree = None

    # ------------------------------------------------------------------ fit
    def fit(self, spec: FitSpec) -> Tuple[dict, Dict[str, np.ndarray]]:
        """Full local build: compression, ULV and owned coupling blocks.

        Returns the build report and the reply arrays: ``pair.{s}.{t}.U``
        / ``.V`` of every owned pair and the shard's ``hss.*`` / ``ulv.*``
        sections (the layouts of :func:`repro.serving.hss_to_arrays` /
        :func:`repro.serving.ulv_to_arrays`).  The factors themselves are
        not kept.

        The shard's dataset and local tree are fixed at spawn time, so
        the block cluster tree of a previous fit is handed back to the
        compression, which reuses it when its recorded options still
        match this ``spec`` — a warm-grid bandwidth move then skips the
        geometry pass.  The sampling stream is re-derived from
        ``(seed, shard_id)`` every time, so a warm fit is bitwise
        identical to a cold one on this grid.
        """
        cfg = self.config
        from ..serving.serialize import (hss_to_arrays, kernel_from_spec,
                                         ulv_to_arrays)
        kernel = kernel_from_spec(spec.kernel_spec)
        X_local = self.X[cfg.boundaries[cfg.shard_id]:
                         cfg.boundaries[cfg.shard_id + 1]]
        log = TimingLog()
        rng = np.random.default_rng(
            [cfg.shard_id] if spec.seed is None
            else [spec.seed, cfg.shard_id])
        # λ-free compression of the local diagonal block: the shift is
        # applied at ULV-factor time, so a λ-only refit of the collected
        # shard reuses this compression and redoes only the factorization.
        compressed = compress_kernel(
            X_local, self.tree, kernel,
            hss_options=spec.hss_options,
            hmatrix_options=spec.hmatrix_options,
            use_hmatrix_sampling=spec.use_hmatrix_sampling,
            seed=rng, timing=log, block_tree=self.block_tree)
        self.block_tree = compressed.block_tree
        ulv = ULVFactorization.factor(compressed.hss, lam=spec.lam,
                                      timing=log)
        arrays = hss_to_arrays(compressed.hss, prefix="hss.")
        arrays.update(ulv_to_arrays(ulv, prefix="ulv."))
        with log.phase("coupling_aca"):
            # All owned inter-shard blocks in one wavefront: the worker sees
            # the full dataset, so any pair it is assigned is computable
            # locally.
            bounds = cfg.boundaries
            results = aca_blocks(
                KernelOperator(self.X, kernel),
                [(bounds[s], bounds[s + 1]) for s, _ in cfg.owned_pairs],
                [(bounds[t], bounds[t + 1]) for _, t in cfg.owned_pairs],
                rel_tol=spec.coupling_rel_tol,
                max_rank=spec.coupling_max_rank)
            for (s, t), result in zip(cfg.owned_pairs, results):
                arrays[f"pair.{s}.{t}.U"] = result.lowrank.U
                arrays[f"pair.{s}.{t}.V"] = result.lowrank.V

        build = compressed.report
        info = {
            "timings": dict(log.phases),
            "hss_memory_mb": build.hss_memory_mb,
            "hmatrix_memory_mb": build.hmatrix_memory_mb,
            "max_rank": build.max_rank,
            "random_vectors": build.random_vectors,
        }
        return info, arrays


#: The command protocol: ``command -> (reply tag, handler)``.  A handler
#: maps ``(shard state, payload)`` to the reply's ``(payload, arrays)`` —
#: arrays ride through shared memory, never pickle.
_COMMANDS = {
    "fit": ("fitted", _ShardState.fit),
}


def worker_main(config: WorkerConfig, x_spec: ArraySpec,
                tree_spec: ArraySpec, tree_root: int,
                request_queue, response_queue) -> None:
    """Entry point of one shard worker process.

    Runs the synchronous command loop until a ``stop`` message (or a
    ``_crash`` test hook).  Any exception inside a command is reported back
    as an ``error`` message with the formatted traceback; on the other
    side, :meth:`repro.distributed.WorkerGrid.round` treats that reply as
    fatal and tears the whole grid down before re-raising (fail-fast —
    a half-fitted grid is never left serving), so a failed command costs
    the warm processes and the caller must build a fresh grid.

    Parameters
    ----------
    config:
        Spawn-time :class:`WorkerConfig` of this shard.
    x_spec, tree_spec:
        Shared-memory handles of the permuted dataset and the local
        cluster-tree node table.
    tree_root:
        Root node index of the local tree inside its table.
    request_queue, response_queue:
        The two ``multiprocessing`` queues of the command protocol.
    """
    request = BlockChannel(request_queue)
    response = BlockChannel(response_queue)
    x_shm = SharedArray.attach(x_spec)
    tree_shm = SharedArray.attach(tree_spec)
    parent = multiprocessing.parent_process()

    def recv_request():
        # Idle workers wait indefinitely for the next command (a warm grid
        # legitimately sits idle between fits); the only exit conditions
        # are a "stop" message or the parent process dying, which
        # orphaned workers detect via the parent handle.
        while True:
            try:
                return request.recv(timeout=60.0)
            except WorkerTimeoutError:
                if parent is not None and not parent.is_alive():
                    return ("stop", None, {})

    try:
        table = tree_shm.array  # local positions: the root covers [0, n_s)
        tree = ClusterTree.from_node_table(
            np.arange(table[tree_root, 1], dtype=np.intp), table, tree_root)
        state = _ShardState(config, x_shm.array, tree)
        while True:
            tag, payload, _ = recv_request()
            if tag == "stop":
                break
            if tag == "_crash":
                # Test hook for the fail-fast path: die without replying.
                os._exit(17)
            try:
                if tag not in _COMMANDS:
                    raise ValueError(f"unknown command {tag!r}")
                reply, handler = _COMMANDS[tag]
                out_payload, out_arrays = handler(state, payload)
                # The worker's *cumulative* telemetry rides with every
                # reply; the grid absorbs with replace semantics, so this
                # never double-counts.  Staged first, the reply itself is
                # in the snapshot: a grid's only reply is a fit's.
                spec = response.stage(out_arrays)
                out_payload["metrics"] = global_registry().local_snapshot()
                response.publish(reply, out_payload, spec)
            except Exception as exc:  # report, keep serving
                response.send("error", {
                    "error": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc()})
    finally:
        # "stop" sends no reply and the parent consumes every response
        # before issuing the next request, so the segments of the last
        # response are no longer mapped anywhere and can be destroyed.
        response.drain()
        x_shm.close()
        tree_shm.close()

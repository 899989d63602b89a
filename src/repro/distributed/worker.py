"""Shard worker process: local HSS/ULV build + partial distributed solves.

Each worker owns one contiguous shard of the permuted training set — a
subtree of the global cluster tree, exactly like a rank in the paper's MPI
runs.  Workers are spawned once per :class:`repro.distributed.WorkerGrid`
and stay resident across fits: only the *spawn-time* state (shard
identity, dataset, local tree — :class:`WorkerConfig`) is fixed at launch,
while everything per-fit (kernel, ridge shift, compression options, seeds
— :class:`FitSpec`) arrives with each ``fit`` command.  The worker

* attaches the full permuted dataset from shared memory (no copy of its
  own rows, no pickling),
* on every ``fit``, builds the local diagonal block's λ-free compression
  (optional H matrix + randomized HSS, via
  :func:`repro.hss.compress_kernel`) and its ULV factorization — the
  ridge shift is applied at factor time — with the **existing
  level-parallel builders** over its own
  :class:`repro.parallel.BlockExecutor`, replacing the factors of any
  previous fit,
* on ``refit``, keeps the resident λ-free compression and redoes only the
  local ULV at the new shift (zero recompressions — the cheap inner step
  of a λ sweep on a warm grid),
* ACA-compresses the inter-shard coupling blocks it owns (it sees the full
  dataset, so any pair it is assigned is computable locally),
* answers the coordinator's solve-phase requests: multi-RHS applications
  of its local inverse (``D_s^{-1}``), the small Gram pieces of the
  capacitance system, and the final low-rank correction, and
* on ``collect``, ships its local HSS generators and ULV factors back
  through shared memory so ``shards > 1`` models can be persisted with
  full re-solve capability (see :mod:`repro.distributed.factors`).

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

from ..clustering.tree import ClusterNode, ClusterTree
from ..config import HMatrixOptions, HSSOptions
from ..hss.compressed import CompressedKernel, compress_kernel
from ..hss.ulv import ULVFactorization
from ..kernels.operator import KernelOperator
from ..lowrank.aca import aca_blocks
from ..obs import global_registry
from ..parallel.executor import BlockExecutor
from ..utils.timing import TimingLog
from .comm import ArraySpec, BlockChannel, SharedArray, WorkerTimeoutError


@dataclass(frozen=True)
class WorkerConfig:
    """Spawn-time configuration of one shard worker.

    Only what is fixed for the worker's whole lifetime lives here — shard
    identity, grid shape and thread budget.  Everything per-fit travels in
    a :class:`FitSpec` with each ``fit`` command instead, which is what
    lets a :class:`repro.distributed.WorkerGrid` stay warm across fits.
    Array payloads (dataset, local tree) never ride here either; they
    travel through shared memory.

    Parameters
    ----------
    shard_id:
        This worker's shard index in ``[0, n_shards)``.
    n_shards:
        Total shard / worker-process count of the grid.
    boundaries:
        Permuted-position boundaries of all shards (length
        ``n_shards + 1``).
    workers:
        Worker *threads* inside this process (1 = serial BLAS tasks).
    owned_pairs:
        Pairs ``(s, t)`` whose inter-shard coupling block this worker
        ACA-compresses during ``fit``.
    """

    shard_id: int
    n_shards: int
    boundaries: Tuple[int, ...]
    workers: int
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


def _tree_from_table(table: np.ndarray, root: int) -> ClusterTree:
    """Rebuild a local :class:`ClusterTree` from its shipped node table."""
    nodes = [ClusterNode(start=int(r[0]), stop=int(r[1]), left=int(r[2]),
                         right=int(r[3]), parent=int(r[4]), level=int(r[5]))
             for r in table]
    n = nodes[root].stop
    return ClusterTree(np.arange(n, dtype=np.intp), nodes, root=root)


class _ShardState:
    """Everything a worker holds between commands."""

    def __init__(self, config: WorkerConfig, X: np.ndarray,
                 tree: ClusterTree):
        self.config = config
        self.X = X                    # full permuted dataset (shared view)
        self.tree = tree              # local subtree, positions [0, size)
        start, stop = (config.boundaries[config.shard_id],
                       config.boundaries[config.shard_id + 1])
        self.start, self.stop = int(start), int(stop)
        #: λ-free compression of the local diagonal block; kept resident
        #: between commands so a ``refit`` redoes only the local ULV
        self.compressed: Optional[CompressedKernel] = None
        self.ulv: Optional[ULVFactorization] = None
        self.executor: Optional[BlockExecutor] = None
        #: located coupling factors F_s (n_s x R_s) and H_s = D_s^{-1} F_s
        self.F: Optional[np.ndarray] = None
        self.H: Optional[np.ndarray] = None
        #: cached local solution of the last "solve" request
        self.z: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ fit
    def fit(self, spec: FitSpec) -> Tuple[dict, Dict[str, np.ndarray]]:
        """Full local build: compression, ULV and owned coupling blocks.

        The shard's dataset and local tree are fixed at spawn time, so
        the block cluster tree of a previous fit is handed back to the
        compression, which reuses it when its recorded options still
        match this ``spec`` — a warm-grid bandwidth move then skips the
        geometry pass.  The sampling stream is re-derived from
        ``(seed, shard_id)`` every time, so a warm fit is bitwise
        identical to a cold one on this grid.
        """
        cfg = self.config
        from ..serving.serialize import kernel_from_spec
        kernel = kernel_from_spec(spec.kernel_spec)
        X_local = self.X[self.start:self.stop]
        log = TimingLog()
        block_tree = None
        if self.compressed is not None:
            block_tree = getattr(self.compressed.hmatrix, "block_tree", None)

        # Refitting replaces all per-fit state; stale coupling factors of a
        # previous fit must not leak into the new capacitance system, and
        # the old ULV/HSS factors (the dominant memory) must be released
        # *before* the new build, not after, or a warm refit would
        # transiently hold two factorizations and OOM at sizes a cold fit
        # handles.
        self.F = self.H = self.z = None
        self.ulv = None
        self.compressed = None
        if self.executor is None:
            # One pool for the worker's lifetime: the thread count is
            # spawn-time-fixed, so warm refits reuse it instead of paying
            # shutdown+spawn churn per configuration.
            self.executor = BlockExecutor(workers=max(1, int(cfg.workers)))
        rng = np.random.default_rng(
            [cfg.shard_id] if spec.seed is None
            else [spec.seed, cfg.shard_id])
        # λ-free compression of the local diagonal block: the shift is
        # applied at ULV-factor time, so a later "refit" command reuses
        # this compression and redoes only the factorization.
        self.compressed = compress_kernel(
            X_local, self.tree, kernel,
            hss_options=spec.hss_options,
            hmatrix_options=spec.hmatrix_options,
            use_hmatrix_sampling=spec.use_hmatrix_sampling,
            seed=rng, timing=log, executor=self.executor,
            block_tree=block_tree)
        hss = self.compressed.hss
        stats_random_vectors = self.compressed.report.random_vectors
        hmatrix_memory_mb = self.compressed.report.hmatrix_memory_mb
        self.ulv = ULVFactorization.factor(self.compressed, lam=spec.lam,
                                           timing=log, executor=self.executor)

        arrays: Dict[str, np.ndarray] = {}
        coupling_ranks: Dict[Tuple[int, int], int] = {}
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
                coupling_ranks[(s, t)] = result.rank

        hss_stats = hss.statistics()
        info = {
            "timings": dict(log.phases),
            "hss_memory_mb": hss_stats.memory_mb,
            "hmatrix_memory_mb": hmatrix_memory_mb,
            "max_rank": hss_stats.max_rank,
            "random_vectors": stats_random_vectors,
            "coupling_ranks": coupling_ranks,
            "n_local": self.stop - self.start,
            "recompressed": True,
        }
        return info, arrays

    # ---------------------------------------------------------------- refit
    def refit(self, lam: float) -> dict:
        """Re-factor the local ULV at a new ridge shift (no recompression).

        The resident λ-free compression and the spawn-time thread pool are
        both reused; only the ``O(n_s r^2)`` local ULV elimination runs.
        The stale coupling/solve state is dropped — the coordinator
        re-runs the ``couple`` round against the new factors.

        Parameters
        ----------
        lam:
            The new ridge shift.

        Returns
        -------
        dict
            Per-shard refit report (timings, ``recompressed=False``).
        """
        if self.compressed is None:
            raise RuntimeError("worker received 'refit' before 'fit'")
        log = TimingLog()
        # Release the coupling/solve state before (not after) refactoring.
        # The previous ULV stays until the new one exists: its left
        # transforms are shared by reference, so the overlap is one
        # factorization plus the λ-dependent half of the next (right
        # transforms, triangular and reduced blocks), never two whole ones.
        self.F = self.H = self.z = None
        if self.ulv is not None and self.ulv.hss is self.compressed.hss:
            self.ulv = self.ulv.refactor(float(lam), timing=log,
                                         executor=self.executor)
        else:
            self.ulv = ULVFactorization.factor(
                self.compressed, lam=float(lam), timing=log,
                executor=self.executor)
        return {
            "timings": dict(log.phases),
            "recompressed": False,
            "n_local": self.stop - self.start,
        }

    # ------------------------------------------------------- solve protocol
    def couple(self, F: np.ndarray) -> np.ndarray:
        """Receive the located factors; return the local Gram piece."""
        if self.ulv is None:
            raise RuntimeError("worker received 'couple' before 'fit'")
        self.F = np.asarray(F, dtype=np.float64)
        if self.F.shape[1] == 0:
            self.H = np.zeros_like(self.F)
        else:
            self.H = self.ulv.solve(self.F)
        return self.F.T @ self.H

    def solve(self, y: np.ndarray) -> np.ndarray:
        """Apply the local inverse; return the capacitance right-hand side."""
        if self.ulv is None or self.F is None:
            raise RuntimeError("worker received 'solve' before 'couple'")
        self.z = self.ulv.solve(np.asarray(y, dtype=np.float64))
        return self.F.T @ self.z

    def correct(self, c: np.ndarray) -> np.ndarray:
        """Apply the low-rank correction; return the local solution block."""
        if self.z is None:
            raise RuntimeError("worker received 'correct' before 'solve'")
        w = self.z - self.H @ np.asarray(c, dtype=np.float64)
        self.z = None
        return w

    # ----------------------------------------------------------- ship-back
    def collect(self, sections=None) -> Dict[str, np.ndarray]:
        """Flatten the local HSS generators + ULV factors for persistence.

        The returned arrays use the same ``hss.* / ulv.*`` layout as
        :func:`repro.serving.hss_to_arrays` /
        :func:`repro.serving.ulv_to_arrays`, so the coordinator can embed
        them per-shard into a model artifact (see
        :mod:`repro.distributed.factors`).

        Parameters
        ----------
        sections:
            Optional subset of ``("hss", "ulv")``; ``None`` ships both.
            A λ-only refit re-collects just ``("ulv",)`` — the HSS
            generators are λ-free and identical to the previous collect,
            so re-shipping them would cost O(compression memory) per λ.
        """
        if self.ulv is None:
            raise RuntimeError("worker received 'collect' before 'fit'")
        from ..serving.serialize import hss_to_arrays, ulv_to_arrays
        wanted = ("hss", "ulv") if sections is None else tuple(sections)
        arrays: Dict[str, np.ndarray] = {}
        if "hss" in wanted:
            arrays.update(hss_to_arrays(self.ulv.hss, prefix="hss."))
        if "ulv" in wanted:
            arrays.update(ulv_to_arrays(self.ulv, prefix="ulv."))
        return arrays

    def close(self) -> None:
        if self.executor is not None:
            self.executor.shutdown()


def worker_main(config: WorkerConfig, x_spec: ArraySpec,
                tree_spec: ArraySpec, tree_root: int,
                request_queue, response_queue) -> None:
    """Entry point of one shard worker process.

    Runs the synchronous command loop until a ``stop`` message (or a
    ``_crash`` test hook).  Any exception inside a command is reported back
    as an ``error`` message with the formatted traceback; on the other
    side, :meth:`repro.distributed.WorkerGrid.recv` treats that reply as
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
    state: Optional[_ShardState] = None
    parent = multiprocessing.parent_process()

    def recv_request():
        # Idle workers wait indefinitely for the next command (a warm grid
        # legitimately sits idle between fits and solves); the only exit
        # conditions are a "stop" message or the coordinator process
        # dying, which orphaned workers detect via the parent handle.
        while True:
            try:
                return request.recv(timeout=60.0)
            except WorkerTimeoutError:
                if parent is not None and not parent.is_alive():
                    return ("stop", None, {})

    try:
        tree = _tree_from_table(np.asarray(tree_shm.array, dtype=np.int64),
                                tree_root)
        state = _ShardState(config, x_shm.array, tree)
        while True:
            tag, payload, arrays = recv_request()
            try:
                if tag == "fit":
                    info, out = state.fit(payload)
                    # Ship the worker's *cumulative* telemetry with every
                    # reply that carries a report; the coordinator absorbs
                    # with replace semantics, so this never double-counts.
                    info["metrics"] = global_registry().local_snapshot()
                    response.send("fitted", info, arrays=out)
                elif tag == "refit":
                    info = state.refit(payload)
                    info["metrics"] = global_registry().local_snapshot()
                    response.send("refitted", info)
                elif tag == "couple":
                    M = state.couple(arrays["F"])
                    response.send("coupled", arrays={"M": M})
                elif tag == "solve":
                    g = state.solve(arrays["y"])
                    response.send("partial", arrays={"g": g})
                elif tag == "correct":
                    w = state.correct(arrays["c"])
                    response.send("solved", arrays={"w": w})
                elif tag == "collect":
                    response.send(
                        "factors",
                        {"metrics": global_registry().local_snapshot()},
                        arrays=state.collect(payload))
                elif tag == "ping":
                    response.send("pong", payload)
                elif tag == "_crash":
                    # Test hook for the fail-fast path: die without replying.
                    os._exit(17)
                elif tag == "stop":
                    break
                else:
                    response.send("error", {
                        "error": f"unknown command {tag!r}", "traceback": ""})
            except Exception as exc:  # report, keep serving
                response.send("error", {
                    "error": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc()})
    finally:
        # "stop" sends no reply and the coordinator consumes every response
        # before issuing the next request, so the segments of the last
        # response are no longer mapped anywhere and can be destroyed.
        response.drain()
        if state is not None:
            state.close()
        x_shm.close()
        tree_shm.close()

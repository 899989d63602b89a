"""Coordinator: drives a worker grid through fit / solve rounds.

The distributed factorization follows the paper's rank-per-subtree model.
With the permuted kernel system ``M = K + lambda I`` cut into ``P``
contiguous shards, write

.. math::

    M = D + E,

where ``D = blockdiag(M_11, ..., M_PP)`` collects the diagonal (subtree)
blocks and ``E`` the inter-shard coupling.  Every worker compresses and
ULV-factors its own ``M_ss`` with the existing level-parallel builders
(that is the bulk of the work, fully parallel across processes), and the
coupling blocks ``M_st`` — the *top separator levels* of the global
hierarchy, low-rank by the same clustering argument that makes HSS work —
are ACA-compressed as ``U_st V_st^T``.

Stacking the coupling factors into ``E = P_f Q_f^T`` (each pair
contributes its ``U`` and ``V`` once on each side), the global solve is a
Woodbury correction around the block-diagonal solves:

.. math::

    M^{-1} y = z - H \\, C^{-1} Q_f^T z, \\qquad
    z = D^{-1} y, \\; H = D^{-1} P_f, \\; C = I + Q_f^T D^{-1} P_f.

``D^{-1}`` applications are embarrassingly parallel across shards (each is
a local multi-RHS ULV solve); only the small dense *capacitance* system
``C`` — whose dimension is the total coupling rank — is assembled and
LU-factored once on the coordinator.  That merge is the shared-memory
analogue of the paper's top-of-the-tree communication phase, and its cost
is independent of ``n``.

Process lifetime is owned by :class:`repro.distributed.WorkerGrid`, not by
the coordinator: a coordinator constructed the classic way (plan + data)
creates and owns a grid, while :meth:`Coordinator.on_grid` drives an
existing *warm* grid — repeated fits then spawn zero new processes, and
the grid outlives the coordinator.  Since worker processes are persistent,
everything per-fit (kernel, ridge shift, options) travels with the ``fit``
command as a :class:`repro.distributed.FitSpec`.

Accuracy: the distributed solve approximates the same system as the serial
HSS solver, with the coupling ACA tolerance playing the role of the HSS
compression tolerance for the top off-diagonal blocks.  Predictions of the
sharded and serial pipelines therefore agree to the compression tolerance
(see ``tests/test_distributed.py``, which pins a tight tolerance and
checks label-exact agreement).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.linalg

from ..config import HMatrixOptions, HSSOptions
from ..kernels.base import Kernel
from ..obs import global_registry
from .factors import ShardedFactors
from .grid import WorkerGrid
from .plan import ShardPlan
from .worker import FitSpec


class Coordinator:
    """Drives ``P`` shard worker processes through fit / solve.

    Parameters
    ----------
    plan:
        The :class:`repro.distributed.ShardPlan` cutting the cluster tree.
    X_permuted:
        Training points in the permuted ordering of ``plan.tree``; copied
        once into shared memory for all workers.
    kernel, lam:
        Kernel and ridge shift of the training system.
    hss_options, hmatrix_options, use_hmatrix_sampling, seed:
        Per-shard build options, matching :class:`repro.krr.HSSSolver`.
    worker_threads:
        ``BlockExecutor`` threads *inside* each worker process (default 1;
        the process grid is the primary parallel axis).  Ignored when an
        external ``grid`` is given (the grid's setting wins).
    coupling_rel_tol, coupling_max_rank:
        ACA tolerance / rank cap of the inter-shard coupling blocks;
        the tolerance defaults to ``hss_options.rel_tol``.
    response_timeout:
        Hard per-reply deadline in seconds.  A worker that neither answers
        nor dies within it fails the whole session (fail-fast, no hang).
        Ignored when an external ``grid`` is given.
    start_method:
        ``multiprocessing`` start method override (default ``spawn``, or
        the ``REPRO_SHARD_START_METHOD`` environment variable).  Ignored
        when an external ``grid`` is given.
    grid:
        Optional warm :class:`repro.distributed.WorkerGrid` to drive
        instead of spawning one.  The coordinator then does **not** own
        the processes: :meth:`shutdown` leaves them running (prefer
        :meth:`on_grid` over passing this directly).

    Raises
    ------
    ValueError
        If ``X_permuted`` does not cover exactly the ``plan.n`` points.
    """

    def __init__(self, plan: ShardPlan, X_permuted: np.ndarray,
                 kernel: Kernel, lam: float,
                 hss_options: Optional[HSSOptions] = None,
                 hmatrix_options: Optional[HMatrixOptions] = None,
                 use_hmatrix_sampling: bool = True,
                 seed: Optional[int] = 0,
                 worker_threads: int = 1,
                 coupling_rel_tol: Optional[float] = None,
                 coupling_max_rank: Optional[int] = None,
                 response_timeout: float = 900.0,
                 start_method: Optional[str] = None,
                 grid: Optional[WorkerGrid] = None):
        from ..serving.serialize import kernel_to_spec

        if grid is not None:
            self.grid = grid
            self._owns_grid = False
            self.plan = grid.plan
            self.X = grid.X
        else:
            self.plan = plan
            self.X = np.ascontiguousarray(X_permuted, dtype=np.float64)
            self.grid = WorkerGrid(plan, self.X,
                                   worker_threads=worker_threads,
                                   response_timeout=response_timeout,
                                   start_method=start_method)
            self._owns_grid = True
        self.kernel_spec = kernel_to_spec(kernel)
        self.lam = float(lam)
        self.hss_options = hss_options if hss_options is not None else HSSOptions()
        self.hmatrix_options = (hmatrix_options if hmatrix_options is not None
                                else HMatrixOptions())
        self.use_hmatrix_sampling = bool(use_hmatrix_sampling)
        self.seed = seed
        self.coupling_rel_tol = (float(coupling_rel_tol)
                                 if coupling_rel_tol is not None
                                 else self.hss_options.rel_tol)
        self.coupling_max_rank = coupling_max_rank

        self._fitted = False
        self._fit_generation = -1
        # Capacitance bookkeeping (see module docstring)
        self._cap_lu = None
        self._cap_C: Optional[np.ndarray] = None
        self._cap_rank = 0
        self._pg_idx: List[np.ndarray] = []
        self._qg_idx: List[np.ndarray] = []
        self._per_shard_F: List[np.ndarray] = []
        self.fit_info: Dict[str, object] = {}

    # --------------------------------------------------------------- factory
    @classmethod
    def on_grid(cls, grid: WorkerGrid, kernel: Kernel, lam: float,
                **options) -> "Coordinator":
        """A coordinator driving an existing (typically warm) grid.

        Parameters
        ----------
        grid:
            The :class:`repro.distributed.WorkerGrid` to drive; it is not
            shut down by this coordinator.
        kernel, lam:
            Kernel and ridge shift of this fit.
        **options:
            Per-fit options (``hss_options``, ``hmatrix_options``,
            ``use_hmatrix_sampling``, ``seed``, ``coupling_rel_tol``,
            ``coupling_max_rank``).

        Returns
        -------
        Coordinator
            Ready to :meth:`fit` without spawning any process.
        """
        return cls(grid.plan, grid.X, kernel, lam, grid=grid, **options)

    # ------------------------------------------------------------- lifecycle
    @property
    def running(self) -> bool:
        """``True`` while the underlying grid's workers are all alive."""
        return self.grid.running

    @property
    def current(self) -> bool:
        """Whether this coordinator's fit is the grid's resident state.

        ``False`` when unfitted, when the grid is down, or when another
        coordinator has since run its own fit on the same (shared) grid —
        the workers' resident factors then belong to that newer fit and
        no longer match this coordinator's capacitance state.
        """
        return (self._fitted and self.grid.running
                and self.grid.fit_generation == self._fit_generation)

    def start(self) -> "Coordinator":
        """Start the underlying grid (no-op when it is already running)."""
        self.grid.start()
        return self

    def shutdown(self, timeout: float = 5.0) -> None:
        """Drop fit state; stop the grid too if this coordinator owns it.

        Parameters
        ----------
        timeout:
            Worker grace period, forwarded to
            :meth:`repro.distributed.WorkerGrid.shutdown`.
        """
        if self._owns_grid:
            self.grid.shutdown(timeout=timeout)
        self._fitted = False

    def __enter__(self) -> "Coordinator":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -------------------------------------------------------------------- fit
    def fit(self) -> Dict[str, object]:
        """Distributed build: local HSS/ULV per shard + capacitance merge.

        Returns
        -------
        dict
            Aggregate fit report: per-phase timings (max over shards),
            memory, ranks and the coupling-rank map.
        """
        grid = self.grid.start()
        plan = self.plan
        spec = FitSpec(
            kernel_spec=self.kernel_spec,
            lam=self.lam,
            hss_options=self.hss_options,
            hmatrix_options=self.hmatrix_options,
            use_hmatrix_sampling=self.use_hmatrix_sampling,
            seed=(int(self.seed)
                  if isinstance(self.seed, (int, np.integer)) else None),
            coupling_rel_tol=self.coupling_rel_tol,
            coupling_max_rank=self.coupling_max_rank,
        )
        t0 = time.perf_counter()
        grid.broadcast("fit", payload=spec)
        self._fit_generation = grid.fit_generation
        infos: List[dict] = []
        factors: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}
        for shard in range(plan.n_shards):
            payload, arrays = grid.recv(shard, "fitted")
            self._absorb_metrics(shard, payload)
            infos.append(payload)
            for (s, t) in plan.owned_pairs(shard):
                factors[(s, t)] = (arrays[f"pair.{s}.{t}.U"],
                                   arrays[f"pair.{s}.{t}.V"])
        build_seconds = time.perf_counter() - t0

        # ---- capacitance bookkeeping --------------------------------------
        # Column groups: pair p = (s, t) contributes g1(p) (U lives in s on
        # the P side, V in t on the Q side) and g2(p) (the transpose block).
        t1 = time.perf_counter()
        pairs = plan.pairs()
        offsets: Dict[Tuple[int, int], int] = {}
        R = 0
        for p in pairs:
            offsets[p] = R
            R += 2 * factors[p][0].shape[1]
        self._cap_rank = R

        per_shard_F: List[np.ndarray] = []
        self._pg_idx, self._qg_idx = [], []
        for shard in range(plan.n_shards):
            start, stop = plan.shard_range(shard)
            blocks, pg, qg = [], [], []
            for p in pairs:
                s, t = p
                if shard not in (s, t):
                    continue
                U, V = factors[p]
                r = U.shape[1]
                g1 = np.arange(offsets[p], offsets[p] + r, dtype=np.intp)
                g2 = g1 + r
                if shard == s:
                    blocks.append(U)
                    pg.append(g1)
                    qg.append(g2)
                else:
                    blocks.append(V)
                    pg.append(g2)
                    qg.append(g1)
            F = (np.hstack(blocks) if blocks
                 else np.zeros((stop - start, 0)))
            per_shard_F.append(np.ascontiguousarray(F))
            self._pg_idx.append(np.concatenate(pg) if pg
                                else np.zeros(0, dtype=np.intp))
            self._qg_idx.append(np.concatenate(qg) if qg
                                else np.zeros(0, dtype=np.intp))
        self._per_shard_F = per_shard_F

        self._couple_round()
        merge_seconds = time.perf_counter() - t1
        self._fitted = True

        # ---- aggregate fit report -----------------------------------------
        timings: Dict[str, float] = {}
        for info in infos:
            for name, sec in (info.get("timings") or {}).items():
                timings[name] = max(timings.get(name, 0.0), float(sec))
        timings["coupling_merge"] = merge_seconds
        coupling_mb = sum((U.nbytes + V.nbytes) / 2.0 ** 20
                          for U, V in factors.values())
        self.fit_info = {
            "shards": plan.n_shards,
            "timings": timings,
            "build_seconds": build_seconds,
            "merge_seconds": merge_seconds,
            "hss_memory_mb": sum(i["hss_memory_mb"] for i in infos),
            "hmatrix_memory_mb": sum(i["hmatrix_memory_mb"] for i in infos),
            "coupling_memory_mb": coupling_mb + (self._cap_C.nbytes / 2.0 ** 20),
            "max_rank": max(i["max_rank"] for i in infos),
            "random_vectors": max(i["random_vectors"] for i in infos),
            "coupling_rank": R,
            "coupling_ranks": {p: factors[p][0].shape[1] for p in pairs},
        }
        return self.fit_info

    def _couple_round(self) -> None:
        """One ``couple`` protocol round: rebuild + LU the capacitance system.

        Broadcasts the located coupling factors (λ-free, unchanged across
        refits), collects every shard's Gram piece ``F_s^T D_s^{-1} F_s``
        against its *current* local factorization, and assembles
        ``C = I + Q_f^T D^{-1} P_f``.
        """
        grid = self.grid
        plan = self.plan
        R = self._cap_rank
        grid.broadcast("couple",
                       per_shard_arrays=[{"F": F} for F in self._per_shard_F])
        C = np.eye(R)
        for shard in range(plan.n_shards):
            _, arrays = grid.recv(shard, "coupled")
            M = arrays["M"]
            if M.size:
                C[np.ix_(self._qg_idx[shard], self._pg_idx[shard])] += M
        self._cap_C = C
        self._cap_lu = scipy.linalg.lu_factor(C) if R > 0 else None

    # ------------------------------------------------------------------ refit
    def refit(self, lam: float) -> Dict[str, object]:
        """λ-only distributed refit: local ULVs + capacitance, no rebuild.

        Every worker keeps its resident λ-free compression and redoes only
        the local ULV at the new shift; the coordinator then re-runs the
        ``couple`` round (the located coupling factors themselves are
        λ-free and reused) and re-factors the capacitance system.  No
        kernel is recompressed and no process is spawned — this is the
        warm-grid inner step of a regularization sweep.

        The refit advances the grid's fit generation (the workers'
        resident factors now belong to this refit), so any *other*
        coordinator sharing the grid becomes stale, exactly as with a
        full fit.

        Parameters
        ----------
        lam:
            The new ridge shift.

        Returns
        -------
        dict
            Aggregate refit report: per-phase timings (max over shards),
            the capacitance-merge time and ``recompressions`` (always 0).

        Raises
        ------
        RuntimeError
            If called before :meth:`fit`, or when this coordinator's fit
            is no longer the grid's resident state (see :attr:`current`).
        """
        if not self._fitted:
            raise RuntimeError("coordinator must fit() before refit()")
        self._check_current()
        grid = self.grid
        self.lam = float(lam)
        try:
            t0 = time.perf_counter()
            grid.broadcast("refit", payload=self.lam)
            self._fit_generation = grid.fit_generation
            infos: List[dict] = []
            for shard in range(self.plan.n_shards):
                payload, _ = grid.recv(shard, "refitted")
                self._absorb_metrics(shard, payload)
                infos.append(payload)
            refactor_seconds = time.perf_counter() - t0

            t1 = time.perf_counter()
            self._couple_round()
            merge_seconds = time.perf_counter() - t1
        except BaseException:
            # A half-refitted state (workers at the new λ, capacitance LU
            # still at the old one — or shards at mixed λ) must never
            # serve solves: the refit raised, so flip this coordinator to
            # unfitted rather than leave it claiming a consistent fit.
            self._fitted = False
            raise

        timings: Dict[str, float] = {}
        for info in infos:
            for name, sec in (info.get("timings") or {}).items():
                timings[name] = max(timings.get(name, 0.0), float(sec))
        timings["coupling_merge"] = merge_seconds
        refit_info = {
            "shards": self.plan.n_shards,
            "timings": timings,
            "refactor_seconds": refactor_seconds,
            "merge_seconds": merge_seconds,
            "recompressions": sum(
                1 for info in infos if info.get("recompressed", False)),
        }
        # Carry the sweep-invariant statistics of the original fit forward
        # so reports stay complete after a refit.
        for key in ("hss_memory_mb", "hmatrix_memory_mb",
                    "coupling_memory_mb", "max_rank", "random_vectors",
                    "coupling_rank", "coupling_ranks"):
            if key in self.fit_info:
                refit_info[key] = self.fit_info[key]
        self.fit_info = refit_info
        return refit_info

    # ------------------------------------------------------------------ solve
    def solve(self, y: np.ndarray) -> np.ndarray:
        """Distributed Woodbury solve for one or more right-hand sides.

        Parameters
        ----------
        y:
            Right-hand side(s) in the permuted ordering, shape ``(n,)`` or
            ``(n, k)`` — a multi-RHS solve (e.g. all ``K`` one-vs-all
            class targets) costs one protocol round trip, not ``k``.

        Returns
        -------
        numpy.ndarray
            Solution with the same shape as ``y``.

        Raises
        ------
        RuntimeError
            If called before :meth:`fit`, or after another coordinator's
            fit reused the shared grid (the workers' resident factors no
            longer belong to this fit; see :attr:`current`).
        ValueError
            On a row-count mismatch with the plan.
        """
        if not self._fitted:
            raise RuntimeError("coordinator must fit() before solve()")
        self._check_current()
        y = np.asarray(y, dtype=np.float64)
        single = y.ndim == 1
        Y = y[:, None] if single else y
        if Y.shape[0] != self.plan.n:
            raise ValueError(
                f"y has {Y.shape[0]} rows, expected {self.plan.n}")
        nrhs = Y.shape[1]
        plan = self.plan
        grid = self.grid

        slices = [Y[slice(*plan.shard_range(s))]
                  for s in range(plan.n_shards)]
        grid.broadcast("solve",
                       per_shard_arrays=[{"y": ys} for ys in slices])
        u = np.zeros((self._cap_rank, nrhs))
        for shard in range(plan.n_shards):
            _, arrays = grid.recv(shard, "partial")
            g = arrays["g"]
            if g.size:
                u[self._qg_idx[shard]] = g
        v = (scipy.linalg.lu_solve(self._cap_lu, u)
             if self._cap_lu is not None else u)
        grid.broadcast("correct", per_shard_arrays=[
            {"c": np.ascontiguousarray(v[self._pg_idx[shard]])}
            for shard in range(plan.n_shards)])
        W = np.empty((plan.n, nrhs))
        for shard in range(plan.n_shards):
            _, arrays = grid.recv(shard, "solved")
            start, stop = plan.shard_range(shard)
            W[start:stop] = arrays["w"]
        return W.ravel() if single else W

    # -------------------------------------------------------------- ship-back
    def collect_factors(self) -> ShardedFactors:
        """Ship every shard's HSS/ULV factors back for persistence.

        One ``collect`` round trip per worker: the local HSS generators
        and ULV factors travel through shared memory and are bundled with
        the coordinator's coupling state (located factors, capacitance
        matrix) into a :class:`repro.distributed.ShardedFactors` — the
        payload of the version-2 sharded artifact section, and the input
        of the in-process :class:`repro.distributed.ShardedULVSolver`.

        Returns
        -------
        ShardedFactors
            Everything needed to re-solve without worker processes.

        Raises
        ------
        RuntimeError
            If called before :meth:`fit`.
        """
        if not self._fitted:
            raise RuntimeError(
                "coordinator must fit() before collect_factors()")
        self._check_current()
        grid = self.grid
        grid.broadcast("collect")
        shard_arrays = []
        for shard in range(self.plan.n_shards):
            payload, arrays = grid.recv(shard, "factors")
            self._absorb_metrics(shard, payload)
            shard_arrays.append(arrays)
        return ShardedFactors(
            plan=self.plan,
            shard_arrays=shard_arrays,
            F=[np.asarray(F) for F in self._per_shard_F],
            pg_idx=list(self._pg_idx),
            qg_idx=list(self._qg_idx),
            C=np.asarray(self._cap_C))

    def refresh_factors(self, factors: ShardedFactors) -> ShardedFactors:
        """Update collected factors in place after a λ-only refit.

        Only the per-shard ULV payload and the capacitance matrix change
        across a refit — the HSS generators, located coupling factors and
        index groups are λ-free — so this ships one ``collect`` round of
        just the ``ulv.*`` section instead of the full compression.

        Parameters
        ----------
        factors:
            The :class:`repro.distributed.ShardedFactors` collected from
            an earlier fit of *this* coordinator's grid state.

        Returns
        -------
        ShardedFactors
            The same object, with its ``ulv.*`` arrays and ``C`` replaced
            by the current (refitted) state.

        Raises
        ------
        RuntimeError
            If called before :meth:`fit` or on a stale coordinator.
        """
        if not self._fitted:
            raise RuntimeError(
                "coordinator must fit() before refresh_factors()")
        self._check_current()
        grid = self.grid
        grid.broadcast("collect", payload=("ulv",))
        # Gather every shard's payload before touching ``factors``: a
        # worker failure mid-round then leaves the collected factors
        # untouched instead of half-refreshed at mixed λ.
        collected = []
        for shard in range(self.plan.n_shards):
            payload, arrays = grid.recv(shard, "factors")
            self._absorb_metrics(shard, payload)
            collected.append(arrays)
        for shard, arrays in enumerate(collected):
            local = factors.shard_arrays[shard]
            for key in [k for k in local if k.startswith("ulv.")]:
                del local[key]
            local.update(arrays)
        factors.C = np.asarray(self._cap_C)
        return factors

    def _absorb_metrics(self, shard: int, payload) -> None:
        """Fold a worker's shipped telemetry snapshot into the registry.

        Workers attach their *cumulative* local snapshot to every
        ``fitted`` / ``refitted`` / ``factors`` reply;
        :meth:`repro.obs.MetricsRegistry.absorb` keeps only the latest
        snapshot per shard key, so repeated rounds never double-count.
        The snapshot is popped off the payload so reports stay compact.
        """
        if isinstance(payload, dict):
            snap = payload.pop("metrics", None)
            if snap is not None:
                global_registry().absorb(str(shard), snap)

    def _check_current(self) -> None:
        """Refuse protocol rounds against factors of a newer fit."""
        if self.grid.fit_generation != self._fit_generation:
            raise RuntimeError(
                "stale coordinator: another fit has since reused this "
                "worker grid, so the workers' resident factors no longer "
                "match this coordinator's capacitance state; refit, or "
                "use the factors collected at fit time")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "running" if self.running else "stopped"
        owns = "owned" if self._owns_grid else "external"
        return (f"Coordinator({state}, shards={self.plan.n_shards}, "
                f"n={self.plan.n}, grid={owns})")

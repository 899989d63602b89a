"""`DistributedSolver`: the process-sharded drop-in HSS training solver.

Implements the :class:`repro.krr.solvers.KernelSystemSolver` interface on
top of a :class:`repro.distributed.Coordinator`, so the existing
estimators gain process-level sharding through the ordinary
``solver`` slot.  ``fit`` cuts the cluster tree with a
:class:`repro.distributed.ShardPlan` and runs the distributed build over a
:class:`repro.distributed.WorkerGrid` — **reusing** a live grid whenever
the plan and dataset match (warm fit: zero new processes), whether that
grid was spawned by a previous ``fit`` of this solver or passed in
explicitly for a hyper-parameter sweep.  A bandwidth move
(``refit_kernel``) is exactly such a warm ``fit`` on the retained tree:
each worker reuses its resident block cluster tree and redoes the
kernel-dependent numerics and coupling blocks.  ``refit`` and ``solve``
run on whoever holds the fit's factors at that moment: the coordinator
(one protocol round per step, multi-RHS in one round trip) while its fit is
the grid's resident state, the same coupling system over the shard kernels
collected at fit time once the grid is closed or reused — so trained models
keep full re-solve capability with no worker processes, and persist that
way (see :mod:`repro.distributed.factors`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..config import HMatrixOptions, HSSOptions
from ..krr.solvers import KernelSystemSolver
from .coordinator import Coordinator
from .factors import ShardedFactors
from .grid import WorkerGrid
from .plan import ShardPlan, resolve_shards


class DistributedSolver(KernelSystemSolver):
    """Process-sharded HSS solver (the paper's rank-per-subtree model).

    Parameters
    ----------
    shards:
        Number of worker processes / subtree shards.  ``None`` defers to
        the ``REPRO_SHARDS`` environment variable (1 when unset), ``0``
        means one shard per visible core — see
        :func:`repro.distributed.resolve_shards`.
    hss_options, hmatrix_options, use_hmatrix_sampling, seed:
        Per-shard build options (same meaning as on
        :class:`repro.krr.HSSSolver`); each shard seeds its random sample
        from ``(seed, shard_id)``, so runs are deterministic for a fixed
        plan.
    coupling_rel_tol, coupling_max_rank:
        ACA tolerance / rank cap of the inter-shard coupling blocks
        (tolerance defaults to ``hss_options.rel_tol``); this is the knob
        that bounds the sharded-vs-serial deviation.
    cut_level:
        Optional explicit tree level for the shard cut.
    response_timeout, start_method:
        Forwarded to :class:`repro.distributed.WorkerGrid` when the solver
        spawns its own grid.
    grid:
        Optional external :class:`repro.distributed.WorkerGrid` to train
        on.  The solver never shuts an external grid down — pass one to
        amortize process startup across many fits (sweeps, one-vs-all
        refits).  Its plan and dataset must match every ``fit``.
    collect_factors:
        If ``True`` (default), ``fit`` ships the per-shard ULV factors
        back into this process, enabling solves after ``close()`` and
        full-fidelity persistence of ``shards > 1`` models.  Disable to
        skip the ship-back cost when only the weight vector matters.

    Raises
    ------
    ValueError
        If an explicit ``grid`` is incompatible with a ``fit``'s shard
        plan or dataset.
    """

    name = "distributed"

    def __init__(self,
                 shards: Optional[int] = None,
                 hss_options: Optional[HSSOptions] = None,
                 hmatrix_options: Optional[HMatrixOptions] = None,
                 use_hmatrix_sampling: bool = True,
                 seed=0,
                 coupling_rel_tol: Optional[float] = None,
                 coupling_max_rank: Optional[int] = None,
                 cut_level: Optional[int] = None,
                 response_timeout: float = 900.0,
                 start_method: Optional[str] = None,
                 grid: Optional[WorkerGrid] = None,
                 collect_factors: bool = True):
        super().__init__()
        self.shards = shards
        self.hss_options = hss_options if hss_options is not None else HSSOptions()
        self.hmatrix_options = (hmatrix_options if hmatrix_options is not None
                                else HMatrixOptions())
        self.use_hmatrix_sampling = bool(use_hmatrix_sampling)
        self.seed = seed
        self.coupling_rel_tol = coupling_rel_tol
        self.coupling_max_rank = coupling_max_rank
        self.cut_level = cut_level
        self.response_timeout = float(response_timeout)
        self.start_method = start_method
        self.grid = grid                       # external, never owned
        self.collect_factors = bool(collect_factors)
        self._owned_grid: Optional[WorkerGrid] = None
        self.plan_: Optional[ShardPlan] = None
        self.coordinator_: Optional[Coordinator] = None
        #: collected per-shard factors of the last fit (``None`` when
        #: ``collect_factors=False``); powers post-close solves + saving
        self.factors_: Optional[ShardedFactors] = None
        #: whether the last fit reused a live grid (zero process spawns)
        self.warm_start_: bool = False
        #: full distributed compressions performed (λ-only refits add none)
        self.compression_count = 0

    # ------------------------------------------------------------------- grid
    def _resolve_grid(self, plan: ShardPlan,
                      X_permuted: np.ndarray) -> WorkerGrid:
        """The grid to fit on: external > warm owned > freshly spawned."""
        if self.grid is not None:
            if not self.grid.compatible_with(plan, X_permuted):
                raise ValueError(
                    "the provided WorkerGrid is incompatible with this fit "
                    "(different shard plan, cluster tree or dataset); build "
                    "the grid with the same data, clustering, leaf size, "
                    "seed and shard count as the estimator")
            self.warm_start_ = self.grid.running
            return self.grid
        owned = self._owned_grid
        if (owned is not None and owned.running
                and owned.compatible_with(plan, X_permuted)):
            self.warm_start_ = True
            return owned
        if owned is not None:
            owned.shutdown()
        self.warm_start_ = False
        self._owned_grid = WorkerGrid(
            plan, X_permuted,
            response_timeout=self.response_timeout,
            start_method=self.start_method)
        return self._owned_grid

    # ------------------------------------------------------------------- fit
    def _fit_impl(self, X_permuted, tree, kernel, lam) -> None:
        if tree is None:
            raise ValueError(
                "DistributedSolver requires the cluster tree of the reordering")
        n_shards = resolve_shards(self.shards)
        plan = ShardPlan.from_tree(tree, n_shards, cut_level=self.cut_level)
        grid = self._resolve_grid(plan, X_permuted)
        self.plan_ = grid.plan
        self.factors_ = None
        self.coordinator_ = Coordinator.on_grid(
            grid, kernel, lam,
            hss_options=self.hss_options,
            hmatrix_options=self.hmatrix_options,
            use_hmatrix_sampling=self.use_hmatrix_sampling,
            seed=self.seed,
            coupling_rel_tol=self.coupling_rel_tol,
            coupling_max_rank=self.coupling_max_rank)
        try:
            info = self.coordinator_.fit()
            if self.collect_factors:
                self.factors_ = self.coordinator_.collect_factors()
        except BaseException:
            # A failed fit must not leave worker processes behind (the
            # grid's own fail-fast already tears crashed grids down; this
            # covers coordinator-side failures on an owned grid).
            if self._owned_grid is not None:
                self._owned_grid.shutdown()
            raise
        self.compression_count += 1
        # One coupling system serves every later verb, whoever holds the
        # factors then; its refit and solve phases land in this report.
        self.coordinator_.system.report = self.report
        self.report.shards = self.plan_.n_shards
        self.report.timings = dict(info["timings"])
        self.report.hss_memory_mb = float(info["hss_memory_mb"])
        self.report.hmatrix_memory_mb = float(info["hmatrix_memory_mb"])
        self.report.memory_mb = (float(info["hss_memory_mb"])
                                 + float(info["hmatrix_memory_mb"])
                                 + float(info["coupling_memory_mb"]))
        self.report.max_rank = int(info["max_rank"])
        self.report.random_vectors = int(info["random_vectors"])

    # --------------------------------------------------------- refit / solve
    def _resident(self):
        """Whoever holds *this* fit's factors right now.

        The coordinator while its fit is the grid's resident state (a
        later fit on a shared grid replaces the worker-resident factors;
        mixing them with this fit's capacitance state would be silently
        wrong), else the coupling system over the shard kernels collected
        at fit time.  Both answer ``refit(lam)`` and ``solve(y)`` alike.
        """
        coordinator = self.coordinator_
        if coordinator is not None and coordinator.current:
            return coordinator
        if self.factors_ is not None:
            return coordinator.system
        raise RuntimeError(
            "distributed workers are not running (or the shared grid was "
            "reused by a newer fit) and no factors were collected "
            "(collect_factors=False); a full fit is required before "
            "refit() or solve()")

    def _refit_impl(self, lam: float) -> None:
        holder = self._resident()
        try:
            holder.refit(lam)
        except BaseException:
            if holder is not self.coordinator_:
                # The in-process shards are at mixed λ; drop them so later
                # solves and saves fail loudly instead of using them.  (A
                # failed grid round leaves them whole at the previous λ.)
                self.factors_ = None
            raise

    def _solve_impl(self, y: np.ndarray) -> np.ndarray:
        return self._resident().solve(y)

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Shut down the owned worker grid (idempotent).

        An external grid passed at construction is left running — that is
        the warm-reuse contract.  With ``collect_factors=True`` (the
        default) the solver stays able to :meth:`solve` after close via
        the in-process factors; only with ``collect_factors=False`` does a
        closed solver require a refit.
        """
        if self._owned_grid is not None:
            self._owned_grid.shutdown()

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass

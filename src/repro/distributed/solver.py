"""`DistributedSolver`: the process-sharded HSS training solver.

Implements the :class:`repro.krr.solvers.KernelSystemSolver` interface, so
the existing estimators gain process-level sharding through the ordinary
``solver`` slot.  ``fit`` cuts the cluster tree with a
:class:`repro.distributed.ShardPlan` and runs one ``fit`` round over a
:class:`repro.distributed.WorkerGrid` — **reusing** a live grid whenever
the plan and dataset match (warm fit: zero new processes), whether that
grid was spawned by a previous ``fit`` of this solver or passed in
explicitly for a hyper-parameter sweep.  A bandwidth move
(``refit_kernel``) is exactly such a warm ``fit`` on the retained tree:
each worker reuses its block cluster tree and redoes the kernel-dependent
numerics and coupling blocks.

That round is all the workers do: each returns its shard's factors and
its owned coupling blocks.  The solver locates the coupling factors,
rebuilds the :class:`repro.distributed.ShardKernel` of every shard and
assembles the capacitance system in this process.  ``solve``, ``refit``,
``partial_fit`` and saving are the coupling system over those shard
kernels (see :mod:`repro.distributed.factors`) and send no grid message,
so a fitted solver keeps working after its grid is closed, reused by
another fit, or lost to a worker crash.  A sharded artifact restores onto
this class too, so a reloaded model re-fits through a grid of its own.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

import numpy as np
import scipy.linalg

from ..config import HMatrixOptions, HSSOptions
from ..krr.solvers import HSSSolver, KernelSystemSolver
from ..utils.timing import TimingLog
from .factors import ShardedFactors
from .grid import WorkerGrid
from .plan import ShardPlan, resolve_shards
from .shard import ShardKernel
from .worker import FitSpec


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

    Raises
    ------
    ValueError
        If an explicit ``grid`` is incompatible with a ``fit``'s shard
        plan or dataset.
    """

    name = "distributed"
    _recipe_options = HSSSolver._recipe_options + (
        "coupling_rel_tol", "coupling_max_rank", "cut_level")

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
                 grid: Optional[WorkerGrid] = None):
        super().__init__()
        #: the coupling state every verb runs on (``None`` until a fit or
        #: an artifact restore)
        self.factors: Optional[ShardedFactors] = None
        self.plan_: Optional[ShardPlan] = None
        self._cap_lu = None
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
        self._owned_grid: Optional[WorkerGrid] = None
        #: whether the last fit reused a live grid (zero process spawns)
        self.warm_start_: bool = False
        #: full distributed compressions performed (λ-only refits add none)
        self.compression_count = 0

    def recipe(self) -> Tuple[str, int, Dict[str, object]]:
        shards = (self.plan_.n_shards if self.plan_ is not None
                  else resolve_shards(self.shards))
        return "hss", shards, super().recipe()[2]

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
        from ..serving.serialize import kernel_to_spec

        if tree is None:
            raise ValueError(
                "DistributedSolver requires the cluster tree of the reordering")
        n_shards = resolve_shards(self.shards)
        plan = ShardPlan.from_tree(tree, n_shards, cut_level=self.cut_level)
        grid = self._resolve_grid(plan, X_permuted)
        plan = grid.plan
        seed = self.seed
        spec = FitSpec(
            kernel_spec=kernel_to_spec(kernel),
            lam=float(lam),
            hss_options=self.hss_options,
            hmatrix_options=self.hmatrix_options,
            use_hmatrix_sampling=self.use_hmatrix_sampling,
            seed=int(seed) if isinstance(seed, (int, np.integer)) else None,
            coupling_rel_tol=(float(self.coupling_rel_tol)
                              if self.coupling_rel_tol is not None
                              else self.hss_options.rel_tol),
            coupling_max_rank=self.coupling_max_rank)
        try:
            replies = grid.start().round("fit", "fitted", payload=spec)
            pairs: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}
            for shard, (_, arrays) in enumerate(replies):
                for (s, t) in plan.owned_pairs(shard):
                    pairs[(s, t)] = (arrays[f"pair.{s}.{t}.U"],
                                     arrays[f"pair.{s}.{t}.V"])
            # The merge of the top separator levels: locate the coupling
            # factors, then the first couple round against the fresh ULVs.
            t0 = time.perf_counter()
            factors = ShardedFactors.locate(plan, pairs)
            factors.shards = [
                ShardKernel.from_arrays({**arrays, "F": F},
                                        plan.subtree(shard), lam=spec.lam)
                for shard, ((_, arrays), F)
                in enumerate(zip(replies, factors.F))]
            factors.C = factors.capacitance()
            # Until here a failure leaves the previous fit's factors
            # answering every verb.
            self._adopt(factors)
        except BaseException:
            # A failed fit must not leave worker processes behind (the
            # grid's own fail-fast already tears crashed grids down; this
            # covers failures on this side of an owned grid).
            if self._owned_grid is not None:
                self._owned_grid.shutdown()
            raise
        timings: Dict[str, float] = {"coupling_merge": time.perf_counter() - t0}
        infos = [info for info, _ in replies]
        self.compression_count += 1
        for info in infos:  # the slowest shard's, phase by phase
            for name, sec in info["timings"].items():
                timings[name] = max(timings.get(name, 0.0), float(sec))
        coupling_mb = (factors.C.nbytes + sum(
            U.nbytes + V.nbytes for U, V in pairs.values())) / 2.0 ** 20
        report = self.report
        report.timings = timings
        report.hss_memory_mb = float(sum(i["hss_memory_mb"] for i in infos))
        report.hmatrix_memory_mb = float(
            sum(i["hmatrix_memory_mb"] for i in infos))
        report.memory_mb = (report.hss_memory_mb + report.hmatrix_memory_mb
                            + coupling_mb)
        report.max_rank = int(max(i["max_rank"] for i in infos))
        report.random_vectors = int(max(i["random_vectors"] for i in infos))

    # ----------------------------------------------------------- capacitance
    def _adopt(self, factors: ShardedFactors) -> None:
        """Solve with ``factors`` from now on, LU-factoring its ``C``.

        Nothing is replaced until the LU exists, so a failure here leaves
        the previous factors answering.
        """
        C = factors.C
        self._cap_lu = (scipy.linalg.lu_factor(C)
                        if C is not None and C.shape[0] else None)
        self.factors, self.plan_ = factors, factors.plan
        self.report.shards = factors.plan.n_shards

    # ----------------------------------------------------------------- verbs
    def _refit_impl(self, lam: float) -> None:
        """λ-only refit: every local ULV at the new shift, then the
        capacitance system.  ``report.timings`` holds the round's
        wall-clock ``factorization`` and ``coupling_merge``.

        A failure part-way leaves the shards at mixed λ: the solver is
        then unfitted, so it neither solves nor saves from that state.
        """
        try:
            t0 = time.perf_counter()
            for shard in self.factors.shards:
                shard.refit(lam)
            t1 = time.perf_counter()
            self.factors.C = self.factors.capacitance()
            self._adopt(self.factors)
        except BaseException:
            self._fitted = False
            raise
        self.report.timings = {"factorization": t1 - t0,
                               "coupling_merge": time.perf_counter() - t1}

    def _solve_impl(self, y: np.ndarray) -> np.ndarray:
        """``M^{-1} y = z - H C^{-1} Q_f^T z`` with ``z = D^{-1} y``.

        ``y`` holds the right-hand side(s) in the permuted ordering, shape
        ``(n,)`` or ``(n, k)``; all ``k`` columns cost one multi-RHS solve
        per shard, not ``k``.  Returns the solution in the shape of ``y``;
        a row-count mismatch with the plan raises :class:`ValueError`.
        """
        factors = self.factors
        plan = factors.plan
        y = np.asarray(y, dtype=np.float64)
        if y.shape[0] != plan.n:
            raise ValueError(f"y has {y.shape[0]} rows, expected {plan.n}")
        ranges = [slice(*plan.shard_range(s)) for s in range(plan.n_shards)]
        log = TimingLog()
        with log.phase("solve"):
            u = np.zeros((factors.coupling_rank,) + y.shape[1:])
            Z = []
            for shard, r, qg in zip(factors.shards, ranges, factors.qg_idx):
                z, g = shard.solve(y[r])
                Z.append(z)
                if g.size:
                    u[qg] = g
            v = (scipy.linalg.lu_solve(self._cap_lu, u)
                 if self._cap_lu is not None else u)
            W = np.empty(y.shape)
            for shard, r, pg, z in zip(factors.shards, ranges,
                                       factors.pg_idx, Z):
                W[r] = shard.correct(z, np.ascontiguousarray(v[pg]))
        self.report.add_timings(log)
        return W

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Shut down the owned worker grid (idempotent).

        An external grid passed at construction is left running — that is
        the warm-reuse contract.  A closed solver still solves, refits and
        saves: none of those needs a worker.
        """
        if self._owned_grid is not None:
            self._owned_grid.shutdown()

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.factors is None:
            return f"{type(self).__name__}(unfitted)"
        return (f"{type(self).__name__}(shards={self.factors.plan.n_shards}, "
                f"n={self.factors.plan.n}, "
                f"coupling_rank={self.factors.coupling_rank})")

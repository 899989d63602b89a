"""Coordinator: drives a worker grid through fit / solve rounds.

The distributed factorization follows the paper's rank-per-subtree model.
With the permuted kernel system ``M = K + lambda I`` cut into ``P``
contiguous shards, write

.. math::

    M = D + E,

where ``D = blockdiag(M_11, ..., M_PP)`` collects the diagonal (subtree)
blocks and ``E`` the inter-shard coupling.  Every worker compresses and
ULV-factors its own ``M_ss`` with the single-process builders
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

The algebra is written once — :class:`repro.distributed.ShardKernel` per
shard, :class:`repro.distributed.ShardedULVSolver` for the coupling — and
the coordinator only runs the ``fit`` round that builds both halves in a
:class:`repro.distributed.WorkerGrid`, guards every later round against a
grid another fit has since reused, and aggregates reports.  The grid owns
the processes and outlives the coordinator (repeated fits spawn nothing);
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

import dataclasses
import time
from typing import Dict, Optional, Tuple

import numpy as np

from ..config import HMatrixOptions, HSSOptions
from ..kernels.base import Kernel
from .factors import ShardedFactors, ShardedULVSolver
from .grid import WorkerGrid
from .shard import ShardKernel, ShardList
from .worker import FitSpec


class Coordinator:
    """Drives the shard workers of a grid through fit / refit / solve.

    Parameters
    ----------
    kernel, lam:
        Kernel and ridge shift of the training system.
    hss_options, hmatrix_options, use_hmatrix_sampling, seed:
        Per-shard build options, matching :class:`repro.krr.HSSSolver`.
    coupling_rel_tol, coupling_max_rank:
        ACA tolerance / rank cap of the inter-shard coupling blocks;
        the tolerance defaults to ``hss_options.rel_tol``.
    grid:
        The :class:`repro.distributed.WorkerGrid` to drive (its plan and
        shared dataset define the system).  The coordinator does **not**
        own the processes; prefer :meth:`on_grid` over passing this
        directly.
    """

    def __init__(self, kernel: Kernel, lam: float,
                 hss_options: Optional[HSSOptions] = None,
                 hmatrix_options: Optional[HMatrixOptions] = None,
                 use_hmatrix_sampling: bool = True,
                 seed: Optional[int] = 0,
                 coupling_rel_tol: Optional[float] = None,
                 coupling_max_rank: Optional[int] = None,
                 *, grid: WorkerGrid):
        from ..serving.serialize import kernel_to_spec

        hss_options = hss_options if hss_options is not None else HSSOptions()
        self.grid = grid
        self.plan = grid.plan
        #: what every ``fit`` command carries to the workers
        self.spec = FitSpec(
            kernel_spec=kernel_to_spec(kernel),
            lam=float(lam),
            hss_options=hss_options,
            hmatrix_options=(hmatrix_options if hmatrix_options is not None
                             else HMatrixOptions()),
            use_hmatrix_sampling=bool(use_hmatrix_sampling),
            seed=int(seed) if isinstance(seed, (int, np.integer)) else None,
            coupling_rel_tol=(float(coupling_rel_tol)
                              if coupling_rel_tol is not None
                              else hss_options.rel_tol),
            coupling_max_rank=coupling_max_rank)
        self._fitted = False
        self._fit_generation = -1
        #: the coupling system of the last fit (``None`` before it)
        self.system: Optional[ShardedULVSolver] = None
        self.fit_info: Dict[str, object] = {}

    # --------------------------------------------------------------- factory
    @classmethod
    def on_grid(cls, grid: WorkerGrid, kernel: Kernel, lam: float,
                **options) -> "Coordinator":
        """A coordinator driving an existing (typically warm) grid.

        The constructor with the grid first: ``**options`` are its per-fit
        options (``hss_options``, ``hmatrix_options``,
        ``use_hmatrix_sampling``, ``seed``, ``coupling_rel_tol``,
        ``coupling_max_rank``).  The grid is not shut down by the
        coordinator, and :meth:`fit` spawns no process on a running one.
        """
        return cls(kernel, lam, grid=grid, **options)

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

    def check_workers(self) -> None:
        """Tear the grid down if this fit is resident on it and one of its
        workers has died (:meth:`WorkerGrid.check_workers`).

        Raises
        ------
        WorkerCrashedError
            When a worker holding this fit's factors is dead.
        """
        if self._fitted and self.grid.fit_generation == self._fit_generation:
            self.grid.check_workers()

    def _check_current(self, verb: str) -> None:
        """Refuse protocol rounds before a fit or against a newer fit's factors."""
        if not self._fitted:
            raise RuntimeError(f"coordinator must fit() before {verb}()")
        if self.grid.fit_generation != self._fit_generation:
            raise RuntimeError(
                "stale coordinator: another fit has since reused this "
                "worker grid, so the workers' resident factors no longer "
                "match this coordinator's capacitance state; refit, or "
                "use the factors collected at fit time")

    # -------------------------------------------------------------------- fit
    def fit(self) -> Dict[str, object]:
        """Distributed build: local HSS/ULV per shard + capacitance merge.

        Returns
        -------
        dict
            Aggregate fit report: per-phase timings (max over shards),
            memory and ranks.
        """
        grid = self.grid.start()
        self._fitted = False
        replies = grid.round("fit", "fitted", payload=self.spec)
        self._fit_generation = grid.fit_generation
        infos = [info for info, _ in replies]
        pairs: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}
        for shard, (_, arrays) in enumerate(replies):
            for (s, t) in self.plan.owned_pairs(shard):
                pairs[(s, t)] = (arrays[f"pair.{s}.{t}.U"],
                                 arrays[f"pair.{s}.{t}.V"])

        # The merge of the top separator levels: locate the coupling
        # factors, then the first couple round against the fresh ULVs.
        t0 = time.perf_counter()
        self.system = ShardedULVSolver(ShardedFactors.locate(self.plan, pairs))
        self.system.couple(grid)
        self._fitted = True

        timings: Dict[str, float] = {"coupling_merge": time.perf_counter() - t0}
        for info in infos:  # the slowest shard's, phase by phase
            for name, sec in info["timings"].items():
                timings[name] = max(timings.get(name, 0.0), float(sec))
        coupling_bytes = self.system.factors.C.nbytes + sum(
            U.nbytes + V.nbytes for U, V in pairs.values())
        self.fit_info = {
            "timings": timings,
            "hss_memory_mb": sum(i["hss_memory_mb"] for i in infos),
            "hmatrix_memory_mb": sum(i["hmatrix_memory_mb"] for i in infos),
            "coupling_memory_mb": coupling_bytes / 2.0 ** 20,
            "max_rank": max(i["max_rank"] for i in infos),
            "random_vectors": max(i["random_vectors"] for i in infos),
        }
        return self.fit_info

    # ------------------------------------------------------------------ refit
    def refit(self, lam: float) -> Dict[str, object]:
        """λ-only distributed refit: local ULVs + capacitance, no rebuild.

        :meth:`ShardedULVSolver.refit_round` over the grid: every worker
        keeps its resident λ-free compression and redoes only the local
        ULV at the new shift, then the couple round is re-run.  No kernel
        is recompressed and no process is spawned — the warm-grid inner
        step of a regularization sweep.  Shard kernels collected into this
        process are brought along (:meth:`refresh_factors`).

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
            The fit report with the refit's ``timings`` (wall-clock
            ``factorization`` round and ``coupling_merge``) and
            ``recompressions`` (always 0).

        Raises
        ------
        RuntimeError
            If called before :meth:`fit`, or when this coordinator's fit
            is no longer the grid's resident state (see :attr:`current`).
        """
        self._check_current("refit")
        lam = float(lam)
        system = self.system
        C_before = system.factors.C
        try:
            infos = system.refit_round(lam, self.grid)
            self._fit_generation = self.grid.fit_generation
            if system.factors.shards:
                self.refresh_factors()
        except BaseException:
            # Workers at the new λ against a capacitance LU at the old one
            # — or shards at mixed λ — must never serve solves: this
            # coordinator is unfitted from here on.  Whatever was collected
            # into this process is still whole at the previous λ, so its
            # capacitance matrix goes back.
            self._fitted = False
            system.set_capacitance(C_before)
            raise
        self.spec = dataclasses.replace(self.spec, lam=lam)

        # The sweep-invariant statistics of the original fit carry forward,
        # so reports stay complete after a refit.
        self.fit_info = {
            **self.fit_info, "timings": dict(system.report.timings),
            "recompressions": sum(
                1 for info in infos if info.get("recompressed", False))}
        return self.fit_info

    # ------------------------------------------------------------------ solve
    def solve(self, y: np.ndarray) -> np.ndarray:
        """Distributed Woodbury solve for one or more right-hand sides.

        :meth:`ShardedULVSolver.woodbury` over the grid: all ``k`` columns
        of ``y`` (``(n,)`` or ``(n, k)``, permuted ordering — e.g. every
        one-vs-all class target) cost one protocol round trip, not ``k``.

        Raises
        ------
        RuntimeError
            If called before :meth:`fit`, or after another coordinator's
            fit reused the shared grid (the workers' resident factors no
            longer belong to this fit; see :attr:`current`).
        ValueError
            On a row-count mismatch with the plan.
        """
        self._check_current("solve")
        return self.system.woodbury(y, self.grid)

    # -------------------------------------------------------------- ship-back
    def collect_factors(self) -> ShardedFactors:
        """Ship every shard's HSS/ULV factors back into this process.

        One ``collect`` round trip per worker: the local HSS generators
        and ULV factors travel through shared memory and become the
        :class:`repro.distributed.ShardKernel` objects of the coupling
        system's :class:`repro.distributed.ShardedFactors` — the payload
        of the sharded artifact section, and what the system solves over
        once the grid is gone.

        Returns
        -------
        ShardedFactors
            Everything needed to re-solve without worker processes.

        Raises
        ------
        RuntimeError
            If called before :meth:`fit` or on a stale coordinator.
        """
        self._check_current("collect_factors")
        factors = self.system.factors
        replies = self.grid.round("collect", "factors")
        factors.shards = ShardList(
            ShardKernel.from_arrays({**arrays, "F": factors.F[shard]},
                                    self.plan.subtree(shard))
            for shard, (_, arrays) in enumerate(replies))
        return factors

    def refresh_factors(self) -> ShardedFactors:
        """Bring the collected shard kernels along after a λ-only refit.

        Only the per-shard ULV factors and the capacitance matrix change
        across a refit — the HSS generators, located coupling factors and
        index groups are λ-free — so this ships one ``collect`` round of
        just the ``ulv.*`` section instead of the full compression.

        Returns
        -------
        ShardedFactors
            The coupling system's factors, their shard kernels now at the
            workers' current (refitted) state.

        Raises
        ------
        RuntimeError
            If called before :meth:`fit` or on a stale coordinator.
        """
        self._check_current("refresh_factors")
        factors = self.system.factors
        # Gather every shard's payload before touching a kernel: a worker
        # failure mid-round then leaves the collected shards untouched
        # instead of half-refreshed at mixed λ.
        replies = self.grid.round("collect", "factors", payload=("ulv",))
        for shard, (_, arrays) in zip(factors.shards, replies):
            shard.reload_ulv(arrays)
        return factors

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "running" if self.running else "stopped"
        return (f"Coordinator({state}, shards={self.plan.n_shards}, "
                f"n={self.plan.n})")

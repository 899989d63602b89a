"""The coupling system: capacitance bookkeeping and the Woodbury solve, once.

The distributed factorization is block-diagonal ULV solves plus one
Woodbury capacitance correction (:mod:`repro.distributed.coordinator` has
the algebra).  The per-shard half is the
:class:`repro.distributed.ShardKernel`; this module is the other half:
:class:`ShardedFactors`, the coupling state that round-trips through
:mod:`repro.serving.serialize` as the ``dist.*`` artifact section (see
``docs/serving.md``), and :class:`ShardedULVSolver`, the coupling system
over it — written against a *shard backend* of four calls (``refit``,
``couple``, ``solve``, ``correct``; one entry per shard in, one out), so it
runs unchanged over either transport: :class:`repro.distributed.ShardList`
(kernels in this process) or :class:`repro.distributed.WorkerGrid`
(kernels resident in the workers, one protocol round per call).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.linalg

from ..clustering.tree import ClusterTree
from ..krr.solvers import KernelSystemSolver
from ..utils.timing import TimingLog
from .plan import ShardPlan
from .shard import ShardKernel, ShardList


@dataclass
class ShardedFactors:
    """Everything needed to re-solve a distributed factorization locally.

    Located by :meth:`locate` at fit time, filled with shard kernels by
    :meth:`repro.distributed.Coordinator.collect_factors`, consumed by
    :class:`ShardedULVSolver` and by the ``dist.*`` section of model
    artifacts.

    Parameters
    ----------
    plan:
        The shard plan of the fit (defines every shard's index range and
        local subtree).
    F:
        Per shard, the located coupling factors ``F_s`` (``n_s x R_s``)
        stacked in pair order.
    pg_idx, qg_idx:
        Per shard, the capacitance row groups its columns occupy on the
        ``P`` and ``Q`` side of the Woodbury identity.
    C:
        The assembled capacitance matrix ``I + Q_f^T D^{-1} P_f``
        (``R x R``; ``R`` is the total coupling rank), ``None`` until the
        first couple round.
    shards:
        The per-shard kernels held in this process (empty while the
        factors live only in a worker grid).
    hss_lam_free:
        Whether the per-shard HSS generators are λ-free (the ridge shift
        lives only in the ULV factors).  ``True`` for everything collected
        by the current version; ``False`` for legacy version-2 artifacts
        that baked the shift into the compression — those remain fully
        solvable but cannot be re-factored at a new λ.
    """

    plan: ShardPlan
    F: List[np.ndarray]
    pg_idx: List[np.ndarray]
    qg_idx: List[np.ndarray]
    C: Optional[np.ndarray] = None
    shards: ShardList = field(default_factory=ShardList)
    hss_lam_free: bool = True

    @classmethod
    def locate(cls, plan: ShardPlan,
               pairs: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]]
               ) -> "ShardedFactors":
        """Lay the pair factors ``{(s, t): (U, V)}`` out as ``E = P_f Q_f^T``.

        Pair ``p = (s, t)`` with ``M_st ~ U V^T`` contributes two column
        groups of width ``r_p``: ``g1(p)`` (``U`` lives in shard ``s`` on
        the ``P`` side, ``V`` in ``t`` on the ``Q`` side) and ``g2(p)``
        (the transposed block).  ``C`` is not assembled yet and no shard
        kernel is held.
        """
        offsets: Dict[Tuple[int, int], int] = {}
        R = 0
        for p in plan.pairs():
            offsets[p] = R
            R += 2 * pairs[p][0].shape[1]
        F, pg_idx, qg_idx = [], [], []
        for shard in range(plan.n_shards):
            blocks, pg, qg = [np.zeros((plan.shard_size(shard), 0))], [], []
            for p in plan.pairs():
                if shard not in p:
                    continue
                U, V = pairs[p]
                g1 = np.arange(offsets[p], offsets[p] + U.shape[1],
                               dtype=np.intp)
                g2 = g1 + U.shape[1]
                if shard == p[0]:
                    blocks.append(U)
                    pg.append(g1)
                    qg.append(g2)
                else:
                    blocks.append(V)
                    pg.append(g2)
                    qg.append(g1)
            empty = [np.zeros(0, dtype=np.intp)]
            F.append(np.ascontiguousarray(np.hstack(blocks)))
            pg_idx.append(np.concatenate(empty + pg))
            qg_idx.append(np.concatenate(empty + qg))
        return cls(plan=plan, F=F, pg_idx=pg_idx, qg_idx=qg_idx)

    # ------------------------------------------------------------------ size
    @property
    def coupling_rank(self) -> int:
        """Total coupling rank ``R`` (dimension of the capacitance system)."""
        return int(sum(pg.size for pg in self.pg_idx))

    # --------------------------------------------------------- serialization
    def to_arrays(self, prefix: str = "dist.") -> Dict[str, np.ndarray]:
        """Flatten into artifact arrays (the ``dist.*`` schema section).

        Parameters
        ----------
        prefix:
            Key prefix; the default is what model artifacts use.

        Returns
        -------
        dict
            ``{prefix}plan.*`` (the shard cut), ``{prefix}C``,
            ``{prefix}lam_free`` and, per shard ``s``: ``{prefix}{s}.F``,
            ``{prefix}{s}.pg``, ``{prefix}{s}.qg``, ``{prefix}{s}.hss.*``,
            ``{prefix}{s}.ulv.*``.
        """
        out: Dict[str, np.ndarray] = {}
        out.update(self.plan.to_arrays(prefix=f"{prefix}plan."))
        out[f"{prefix}C"] = np.ascontiguousarray(self.C, dtype=np.float64)
        out[f"{prefix}lam_free"] = np.array(
            [1 if self.hss_lam_free else 0], dtype=np.int64)
        for s, shard in enumerate(self.shards):
            local = shard.to_arrays(("F", "hss", "ulv"))
            local["pg"] = np.asarray(self.pg_idx[s], dtype=np.int64)
            local["qg"] = np.asarray(self.qg_idx[s], dtype=np.int64)
            out.update({f"{prefix}{s}.{key}": a for key, a in local.items()})
        return out

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray], tree: ClusterTree,
                    prefix: str = "dist.", lam: Optional[float] = None
                    ) -> "ShardedFactors":
        """Rebuild from :meth:`to_arrays` output.

        Parameters
        ----------
        arrays:
            Flat array dict (typically a whole artifact payload; unrelated
            keys are ignored).
        tree:
            The *global* cluster tree the shard plan cuts (stored
            separately in the artifact via
            :func:`repro.serving.tree_to_arrays`).
        prefix:
            Key prefix used at save time.
        lam:
            ``None`` restores every shard's ULV factors bitwise.  Given,
            the stored factors are not read (artifacts of schema versions
            1-5 hold the general ULV): every shard's HSS matrix is
            factored cold at ``lam`` — at 0 when the generators have the
            shift baked in — and ``C`` is left for a couple round.

        Returns
        -------
        ShardedFactors
            The factors and their shard kernels.

        Raises
        ------
        KeyError
            If a required section is missing (the serializer wraps this
            into :class:`repro.serving.ArtifactError`).
        repro.serving.ArtifactError
            If a shard's HSS / ULV payload is inconsistent with its
            subtree.
        """
        plan = ShardPlan.from_arrays(arrays, tree, prefix=f"{prefix}plan.")
        C = np.asarray(arrays[f"{prefix}C"], dtype=np.float64)
        # Artifacts written before the compress-once/refit-many split have
        # no marker; their shard HSS carries the shift baked in.
        marker = arrays.get(f"{prefix}lam_free")
        hss_lam_free = bool(marker is not None and int(np.asarray(marker)[0]))
        if lam is not None:
            C, lam = None, lam if hss_lam_free else 0.0
        pg, qg, shards = [], [], ShardList()
        for s in range(plan.n_shards):
            shard_prefix = f"{prefix}{s}."
            local = {key[len(shard_prefix):]: a for key, a in arrays.items()
                     if key.startswith(shard_prefix)}
            pg.append(np.asarray(local["pg"], dtype=np.intp))
            qg.append(np.asarray(local["qg"], dtype=np.intp))
            if "F" not in local:
                raise KeyError(f"{shard_prefix}F")
            shards.append(ShardKernel.from_arrays(local, plan.subtree(s),
                                                  lam=lam))
        return cls(plan=plan, F=[shard.F for shard in shards], pg_idx=pg,
                   qg_idx=qg, C=C, shards=shards, hss_lam_free=hss_lam_free)


class ShardedULVSolver(KernelSystemSolver):
    """The coupling system: Woodbury solver over per-shard ULV factors.

    Owns what no single shard does — the capacitance matrix
    ``C = I + Q_f^T D^{-1} P_f`` and its LU — and drives the per-shard
    steps through a shard backend.  Over the kernels of ``factors.shards``
    it is the drop-in :class:`repro.krr.solvers.KernelSystemSolver` a
    sharded artifact restores to, serving ``solve()`` for new right-hand
    sides without any worker process;
    :class:`repro.distributed.Coordinator` drives the very same object
    over a :class:`repro.distributed.WorkerGrid`, so the live and the
    in-process solves are one computation.

    Parameters
    ----------
    factors:
        The coupling state (from :meth:`ShardedFactors.locate` during a
        fit, or :meth:`ShardedFactors.from_arrays`).  While its ``C`` is
        not assembled, run :meth:`couple` before solving.

    Notes
    -----
    The solver is *restored*, not fitted: calling :meth:`fit` raises.  A
    λ-only ``refit(lam)`` *is* supported for artifacts whose per-shard
    compression is λ-free (anything saved by the current version): zero
    recompressions, zero worker processes.
    """

    name = "sharded"

    def __init__(self, factors: ShardedFactors):
        super().__init__()
        self.factors = factors
        self.plan_ = factors.plan
        self._cap_lu = None
        if factors.C is not None:
            self.set_capacitance(factors.C)
        self._fitted = True
        self.report.shards = factors.plan.n_shards

    def _fit_impl(self, X_permuted, tree, kernel, lam) -> None:
        raise RuntimeError(
            "ShardedULVSolver is restored from persisted factors and cannot "
            "be fitted from data; train through "
            "repro.distributed.DistributedSolver instead (lambda-only "
            "refit() is supported)")

    # Refuse up front: the base fit() would first drop the report and any
    # streamed corrections of the restored state.  This covers
    # refit_kernel() too, which is a fit on the retained context.
    fit = _fit_impl

    # ----------------------------------------------------------- capacitance
    def set_capacitance(self, C: np.ndarray) -> None:
        """Adopt ``C`` (``I + Q_f^T D^{-1} P_f`` at the shards' current
        factorizations) as the capacitance matrix and LU-factor it."""
        self.factors.C = C
        self._cap_lu = scipy.linalg.lu_factor(C) if C.shape[0] else None

    def couple(self, backend) -> None:
        """One couple round: reassemble and re-factor the capacitance system.

        Hands every shard of ``backend`` its located factors (λ-free,
        unchanged across refits), collects the Gram pieces
        ``F_s^T D_s^{-1} F_s`` against the shards' *current*
        factorizations and assembles ``C``.  The state changes only once
        every shard has answered.
        """
        factors = self.factors
        C = np.eye(factors.coupling_rank)
        pieces = backend.couple(factors.F)
        for qg, pg, M in zip(factors.qg_idx, factors.pg_idx, pieces):
            if M.size:
                C[np.ix_(qg, pg)] += M
        self.set_capacitance(C)

    # ----------------------------------------------------------------- verbs
    def refit_round(self, lam: float, backend) -> List[dict]:
        """λ-only refit on ``backend``: every local ULV at the new shift,
        then the capacitance system.  Returns the per-shard reports;
        ``report.timings`` holds the round's wall-clock ``factorization``
        and ``coupling_merge``."""
        t0 = time.perf_counter()
        infos = backend.refit(lam)
        t1 = time.perf_counter()
        self.couple(backend)
        self.report.timings = {"factorization": t1 - t0,
                               "coupling_merge": time.perf_counter() - t1}
        return infos

    def woodbury(self, y: np.ndarray, backend) -> np.ndarray:
        """``M^{-1} y = z - H C^{-1} Q_f^T z`` with ``z = D^{-1} y``.

        ``y`` holds the right-hand side(s) in the permuted ordering, shape
        ``(n,)`` or ``(n, k)``; all ``k`` columns cost one pass over
        ``backend`` (on a grid: two protocol rounds), not ``k``.  Returns
        the solution in the shape of ``y``; a row-count mismatch with the
        plan raises :class:`ValueError`.
        """
        factors = self.factors
        plan = factors.plan
        y = np.asarray(y, dtype=np.float64)
        single = y.ndim == 1
        Y = y[:, None] if single else y
        if Y.shape[0] != plan.n:
            raise ValueError(f"y has {Y.shape[0]} rows, expected {plan.n}")
        ranges = [slice(*plan.shard_range(s)) for s in range(plan.n_shards)]
        log = TimingLog()
        with log.phase("solve"):
            u = np.zeros((factors.coupling_rank, Y.shape[1]))
            for qg, g in zip(factors.qg_idx,
                             backend.solve([Y[r] for r in ranges])):
                if g.size:
                    u[qg] = g
            v = (scipy.linalg.lu_solve(self._cap_lu, u)
                 if self._cap_lu is not None else u)
            W = np.empty(Y.shape)
            blocks = backend.correct(
                [np.ascontiguousarray(v[pg]) for pg in factors.pg_idx])
            for r, w in zip(ranges, blocks):
                W[r] = w
        self.report.add_timings(log)
        return W.ravel() if single else W

    def _refit_impl(self, lam: float) -> None:
        if not self.factors.hss_lam_free:
            raise RuntimeError(
                "this sharded artifact predates the compress-once/"
                "refit-many split: its per-shard HSS generators have the "
                "ridge shift baked in and cannot be re-factored at a new "
                "lambda; retrain with the current version")
        try:
            self.refit_round(lam, self.factors.shards)
        except BaseException:
            # A failure part-way leaves the in-process shards at mixed λ;
            # refuse to serve solves from that state instead of answering
            # wrongly.
            self._fitted = False
            raise

    def _solve_impl(self, y: np.ndarray) -> np.ndarray:
        return self.woodbury(y, self.factors.shards)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ShardedULVSolver(shards={self.factors.plan.n_shards}, "
                f"n={self.factors.plan.n}, "
                f"coupling_rank={self.factors.coupling_rank})")

"""The coupling system: capacitance bookkeeping and the Woodbury solve, once.

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

``D^{-1}`` applications are independent across shards (each is a local
multi-RHS ULV solve); only the small dense *capacitance* system ``C`` —
whose dimension is the total coupling rank — is assembled and LU-factored.
That merge is the shared-memory analogue of the paper's top-of-the-tree
communication phase, and its cost is independent of ``n``.

Accuracy: the distributed solve approximates the same system as the serial
HSS solver, with the coupling ACA tolerance playing the role of the HSS
compression tolerance for the top off-diagonal blocks.  Predictions of the
sharded and serial models therefore agree to the compression tolerance
(see ``tests/test_distributed.py``, which pins a tight tolerance and
checks label-exact agreement).

The per-shard half is the :class:`repro.distributed.ShardKernel`; this
module is the other half: :class:`ShardedFactors`, the coupling state that
round-trips through :mod:`repro.serving.serialize` as the ``dist.*``
artifact section (see ``docs/serving.md``), and :class:`ShardedULVSolver`,
the coupling system over it, which calls its shard kernels directly.
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
from .shard import ShardKernel


@dataclass
class ShardedFactors:
    """Everything needed to re-solve a distributed factorization locally.

    Located by :meth:`locate` at fit time, filled with the shard kernels
    the workers built (:class:`repro.distributed.DistributedSolver`),
    consumed by :class:`ShardedULVSolver` and by the ``dist.*`` section of
    model artifacts.

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
        The per-shard kernels, in shard order.
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
    shards: List[ShardKernel] = field(default_factory=list)
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

    def capacitance(self) -> np.ndarray:
        """Assemble ``C = I + Q_f^T D^{-1} P_f`` at the shards' current
        factorizations.

        Collects the Gram pieces ``F_s^T D_s^{-1} F_s`` of every shard
        (deriving its ``H``; the located factors are λ-free, unchanged
        across refits).  ``C`` itself is returned, not stored.
        """
        C = np.eye(self.coupling_rank)
        for shard, qg, pg in zip(self.shards, self.qg_idx, self.pg_idx):
            M = shard.couple()
            if M.size:
                C[np.ix_(qg, pg)] += M
        return C

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
            local = shard.to_arrays()
            local["pg"] = np.asarray(self.pg_idx[s], dtype=np.int64)
            local["qg"] = np.asarray(self.qg_idx[s], dtype=np.int64)
            out.update({f"{prefix}{s}.{key}": a for key, a in local.items()})
        return out

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray], tree: ClusterTree,
                    lam: float, prefix: str = "dist.",
                    refactor: bool = False) -> "ShardedFactors":
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
        lam:
            The model's ridge shift.  The shard ULVs are at ``lam`` — at 0
            when the generators have the shift baked in.
        prefix:
            Key prefix used at save time.
        refactor:
            ``False`` restores every shard's ULV factors bitwise.  ``True``
            does not read the stored factors (artifacts of schema versions
            1-5 hold the general ULV): every shard's HSS matrix is
            factored cold, and ``C`` is left for a couple round.

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
        lam = float(lam) if hss_lam_free else 0.0
        if refactor:
            C = None
        pg, qg, shards = [], [], []
        for s in range(plan.n_shards):
            shard_prefix = f"{prefix}{s}."
            local = {key[len(shard_prefix):]: a for key, a in arrays.items()
                     if key.startswith(shard_prefix)}
            pg.append(np.asarray(local["pg"], dtype=np.intp))
            qg.append(np.asarray(local["qg"], dtype=np.intp))
            if "F" not in local:
                raise KeyError(f"{shard_prefix}F")
            shards.append(ShardKernel.from_arrays(
                local, plan.subtree(s), lam=lam, refactor=refactor))
        return cls(plan=plan, F=[shard.F for shard in shards], pg_idx=pg,
                   qg_idx=qg, C=C, shards=shards, hss_lam_free=hss_lam_free)


class ShardedULVSolver(KernelSystemSolver):
    """The coupling system: Woodbury solver over per-shard ULV factors.

    Owns what no single shard does — the capacitance matrix
    ``C = I + Q_f^T D^{-1} P_f`` and its LU — and drives the per-shard
    steps of the kernels in ``factors.shards``, all in this process.  It
    is the drop-in :class:`repro.krr.solvers.KernelSystemSolver` a sharded
    artifact restores to, and the base of
    :class:`repro.distributed.DistributedSolver`, whose ``fit`` builds the
    factors it then solves, refits and saves with.

    Parameters
    ----------
    factors:
        The coupling state with its shard kernels (from
        :meth:`ShardedFactors.from_arrays`).  While its ``C`` is not
        assembled, run :meth:`couple` before solving.

    Notes
    -----
    The solver is *restored*, not fitted: calling :meth:`fit` raises.  A
    λ-only ``refit(lam)`` *is* supported for artifacts whose per-shard
    compression is λ-free (anything saved by the current version): zero
    recompressions, zero worker processes.
    """

    name = "sharded"

    def __init__(self, factors: Optional[ShardedFactors] = None):
        super().__init__()
        #: the coupling state every verb runs on (``None`` until a
        #: :class:`repro.distributed.DistributedSolver` fit)
        self.factors: Optional[ShardedFactors] = None
        self.plan_: Optional[ShardPlan] = None
        self._cap_lu = None
        if factors is not None:
            self._adopt(factors)
            self._fitted = True

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

    def couple(self) -> None:
        """Reassemble and re-factor the capacitance system against the
        shards' current factorizations (:meth:`ShardedFactors.capacitance`)."""
        self.factors.C = self.factors.capacitance()
        self._adopt(self.factors)

    # ----------------------------------------------------------------- verbs
    def _refit_impl(self, lam: float) -> None:
        """λ-only refit: every local ULV at the new shift, then the
        capacitance system.  ``report.timings`` holds the round's
        wall-clock ``factorization`` and ``coupling_merge``.

        A failure part-way leaves the shards at mixed λ: the solver is
        then unfitted, so it neither solves nor saves from that state.
        """
        if not self.factors.hss_lam_free:
            raise RuntimeError(
                "this sharded artifact predates the compress-once/"
                "refit-many split: its per-shard HSS generators have the "
                "ridge shift baked in and cannot be re-factored at a new "
                "lambda; retrain with the current version")
        try:
            t0 = time.perf_counter()
            for shard in self.factors.shards:
                shard.refit(lam)
            t1 = time.perf_counter()
            self.couple()
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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.factors is None:
            return f"{type(self).__name__}(unfitted)"
        return (f"{type(self).__name__}(shards={self.factors.plan.n_shards}, "
                f"n={self.factors.plan.n}, "
                f"coupling_rank={self.factors.coupling_rank})")

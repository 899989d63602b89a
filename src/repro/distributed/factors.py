"""Collected per-shard factors: sharded persistence and in-process re-solve.

The distributed factorization lives inside the worker processes — per
shard, an HSS approximation of the diagonal block plus its ULV
factorization; on the coordinator, the located coupling factors and the
dense capacitance system (see :mod:`repro.distributed.coordinator` for the
math).  That was enough to train, but it made ``shards > 1`` models
*predict-only* once persisted: the archive carried no factorization, so a
reloaded model could not solve for new right-hand sides.

This module closes the loop.  After a distributed fit the coordinator
ships every worker's local factors back through shared memory (the
``collect`` command) and bundles them with its own coupling state into a
:class:`ShardedFactors` — a flat collection of NumPy arrays that
round-trips through :mod:`repro.serving.serialize` like every other
payload (schema version 2, ``dist.*`` section; see ``docs/serving.md``).
:class:`ShardedULVSolver` then rebuilds the full Woodbury solve
*in-process* from those arrays: per-shard multi-RHS ULV solves, the
capacitance correction, no worker processes required.  A ``shards=2``
model saved through :class:`repro.serving.ModelStore` therefore loads in a
fresh process with full re-solve capability, matching the serial solver
within the compression tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np
import scipy.linalg

from ..clustering.tree import ClusterTree
from ..krr.solvers import KernelSystemSolver
from ..utils.timing import TimingLog
from .plan import ShardPlan


@dataclass
class ShardedFactors:
    """Everything needed to re-solve a distributed factorization locally.

    Produced by :meth:`repro.distributed.Coordinator.collect_factors`
    after a distributed fit, consumed by :class:`ShardedULVSolver` and by
    the ``dist.*`` section of version-2 model artifacts.

    Parameters
    ----------
    plan:
        The shard plan of the fit (defines every shard's index range and
        local subtree).
    shard_arrays:
        One dict per shard holding its local HSS generators and ULV
        factors under ``hss.*`` / ``ulv.*`` keys (the layout of
        :func:`repro.serving.hss_to_arrays` /
        :func:`repro.serving.ulv_to_arrays`).
    F:
        Per shard, the located coupling factors ``F_s`` (``n_s x R_s``)
        stacked in pair order.
    pg_idx, qg_idx:
        Per shard, the capacitance row groups its columns occupy on the
        ``P`` and ``Q`` side of the Woodbury identity.
    C:
        The assembled capacitance matrix ``I + Q_f^T D^{-1} P_f``
        (``R x R``; ``R`` is the total coupling rank).
    hss_lam_free:
        Whether the per-shard HSS generators are λ-free (the ridge shift
        lives only in the ULV factors).  ``True`` for everything collected
        by the current version; ``False`` for legacy version-2 artifacts
        that baked the shift into the compression — those remain fully
        solvable but cannot be re-factored at a new λ.
    """

    plan: ShardPlan
    shard_arrays: List[Dict[str, np.ndarray]]
    F: List[np.ndarray]
    pg_idx: List[np.ndarray]
    qg_idx: List[np.ndarray]
    C: np.ndarray
    hss_lam_free: bool = True

    # ------------------------------------------------------------------ size
    @property
    def coupling_rank(self) -> int:
        """Total coupling rank ``R`` (dimension of the capacitance system)."""
        return int(self.C.shape[0])

    @property
    def nbytes(self) -> int:
        """Total payload bytes across all shards and the coupling state."""
        total = self.C.nbytes
        for s, arrays in enumerate(self.shard_arrays):
            total += sum(int(a.nbytes) for a in arrays.values())
            total += self.F[s].nbytes + self.pg_idx[s].nbytes \
                + self.qg_idx[s].nbytes
        return total

    # --------------------------------------------------------- serialization
    def to_arrays(self, prefix: str = "dist.") -> Dict[str, np.ndarray]:
        """Flatten into artifact arrays (the ``dist.*`` schema section).

        Parameters
        ----------
        prefix:
            Key prefix; the default is what version-2 model artifacts use.

        Returns
        -------
        dict
            ``{prefix}plan.*`` (the shard cut), ``{prefix}C`` and, per
            shard ``s``: ``{prefix}{s}.F``, ``{prefix}{s}.pg``,
            ``{prefix}{s}.qg``, ``{prefix}{s}.hss.*``,
            ``{prefix}{s}.ulv.*``.
        """
        out: Dict[str, np.ndarray] = {}
        out.update(self.plan.to_arrays(prefix=f"{prefix}plan."))
        out[f"{prefix}C"] = np.ascontiguousarray(self.C, dtype=np.float64)
        out[f"{prefix}lam_free"] = np.array(
            [1 if self.hss_lam_free else 0], dtype=np.int64)
        for s in range(self.plan.n_shards):
            out[f"{prefix}{s}.F"] = np.ascontiguousarray(
                self.F[s], dtype=np.float64)
            out[f"{prefix}{s}.pg"] = np.asarray(self.pg_idx[s],
                                                dtype=np.int64)
            out[f"{prefix}{s}.qg"] = np.asarray(self.qg_idx[s],
                                                dtype=np.int64)
            for key, a in self.shard_arrays[s].items():
                out[f"{prefix}{s}.{key}"] = a
        return out

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray], tree: ClusterTree,
                    prefix: str = "dist.") -> "ShardedFactors":
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

        Returns
        -------
        ShardedFactors
            The collected factors, restored bitwise.

        Raises
        ------
        KeyError
            If a required section is missing (the serializer wraps this
            into :class:`repro.serving.ArtifactError`).
        """
        plan = ShardPlan.from_arrays(arrays, tree, prefix=f"{prefix}plan.")
        C = np.asarray(arrays[f"{prefix}C"], dtype=np.float64)
        # Artifacts written before the compress-once/refit-many split have
        # no marker; their shard HSS carries the shift baked in.
        marker = arrays.get(f"{prefix}lam_free")
        hss_lam_free = bool(marker is not None and int(np.asarray(marker)[0]))
        shard_arrays: List[Dict[str, np.ndarray]] = []
        F: List[np.ndarray] = []
        pg: List[np.ndarray] = []
        qg: List[np.ndarray] = []
        for s in range(plan.n_shards):
            shard_prefix = f"{prefix}{s}."
            F.append(np.asarray(arrays[f"{shard_prefix}F"],
                                dtype=np.float64))
            pg.append(np.asarray(arrays[f"{shard_prefix}pg"], dtype=np.intp))
            qg.append(np.asarray(arrays[f"{shard_prefix}qg"], dtype=np.intp))
            local: Dict[str, np.ndarray] = {}
            for key, a in arrays.items():
                if key.startswith(shard_prefix):
                    rest = key[len(shard_prefix):]
                    if rest.startswith(("hss.", "ulv.")):
                        local[rest] = a
            shard_arrays.append(local)
        return cls(plan=plan, shard_arrays=shard_arrays, F=F,
                   pg_idx=pg, qg_idx=qg, C=C, hss_lam_free=hss_lam_free)


class ShardedULVSolver(KernelSystemSolver):
    """In-process Woodbury solver over collected per-shard ULV factors.

    The drop-in :class:`repro.krr.solvers.KernelSystemSolver` that a
    version-2 sharded artifact restores to: it performs exactly the
    distributed solve — per-shard ULV applications ``D_s^{-1}``, the
    capacitance correction — but serially in the calling process, so a
    reloaded ``shards > 1`` model can answer ``solve()`` for new
    right-hand sides without any worker processes.

    Parameters
    ----------
    factors:
        The collected factors of a distributed fit (from
        :meth:`repro.distributed.Coordinator.collect_factors` or
        :meth:`ShardedFactors.from_arrays`).

    Raises
    ------
    repro.serving.ArtifactError
        If a shard's HSS / ULV payload is inconsistent with its subtree.

    Notes
    -----
    The solver is *restored*, not fitted: calling :meth:`fit` raises.  A
    λ-only ``refit(lam)`` *is* supported (for artifacts whose per-shard
    compression is λ-free, i.e. anything saved by the current version):
    every local ULV is re-factored at the new shift and the capacitance
    system is reassembled in-process — the offline analogue of the
    coordinator's warm-grid refit round.  Numerically its solves reproduce
    the live distributed solves — the same ULV factors, the same
    capacitance LU — so predictions and re-solves agree with the original
    training session to floating-point roundoff.
    """

    name = "sharded"

    def __init__(self, factors: ShardedFactors):
        super().__init__()
        # Lazy import: serving.serialize imports the krr classifiers, which
        # must stay importable without pulling the distributed package in.
        from ..serving.serialize import hss_from_arrays, ulv_from_arrays

        self.factors = factors
        self.plan_ = factors.plan
        self._ulv = []
        for s in range(factors.plan.n_shards):
            subtree = factors.plan.subtree(s)
            hss = hss_from_arrays(factors.shard_arrays[s], subtree,
                                  prefix="hss.")
            self._ulv.append(ulv_from_arrays(factors.shard_arrays[s], hss,
                                             prefix="ulv."))
        R = factors.coupling_rank
        self._cap_lu = scipy.linalg.lu_factor(factors.C) if R > 0 else None
        # H_s = D_s^{-1} F_s, recomputed lazily on the first solve (cheap:
        # one multi-RHS ULV solve per shard) instead of persisted.
        self._H: List[Optional[np.ndarray]] = [None] * factors.plan.n_shards
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

    def _refit_impl(self, lam: float) -> None:
        # Offline λ-refit over the persisted λ-free per-shard compressions:
        # re-factor every local ULV at the new shift and reassemble the
        # capacitance system C = I + Q^T D^{-1} P in-process — the exact
        # computation the coordinator's refit round performs on a live
        # grid, with zero recompressions and zero worker processes.
        from ..serving.serialize import ulv_to_arrays

        factors = self.factors
        if not factors.hss_lam_free:
            raise RuntimeError(
                "this sharded artifact predates the compress-once/"
                "refit-many split: its per-shard HSS generators have the "
                "ridge shift baked in and cannot be re-factored at a new "
                "lambda; retrain with the current version")
        log = TimingLog()
        try:
            with log.phase("factorization"):
                R = factors.coupling_rank
                C = np.eye(R)
                for s in range(factors.plan.n_shards):
                    # same λ-free local compression, resident transforms
                    ulv = self._ulv[s] = self._ulv[s].refactor(lam)
                    F = factors.F[s]
                    H = np.zeros_like(F) if F.shape[1] == 0 else ulv.solve(F)
                    self._H[s] = H
                    if factors.qg_idx[s].size:
                        C[np.ix_(factors.qg_idx[s],
                                 factors.pg_idx[s])] += F.T @ H
                    # Keep the persisted payload in sync so a re-save after
                    # the refit stores the refitted factors.
                    factors.shard_arrays[s].update(
                        ulv_to_arrays(ulv, prefix="ulv."))
                factors.C = C
                self._cap_lu = scipy.linalg.lu_factor(C) if R > 0 else None
        except BaseException:
            # A failure mid-loop leaves shards at mixed λ; refuse to serve
            # solves from that state instead of answering wrongly.
            self._fitted = False
            raise
        self.report.timings = log.as_dict()

    def _shard_H(self, s: int) -> np.ndarray:
        H = self._H[s]
        if H is None:
            F = self.factors.F[s]
            H = np.zeros_like(F) if F.shape[1] == 0 else self._ulv[s].solve(F)
            self._H[s] = H
        return H

    def _solve_impl(self, y: np.ndarray) -> np.ndarray:
        factors = self.factors
        plan = factors.plan
        single = y.ndim == 1
        Y = y[:, None] if single else y
        if Y.shape[0] != plan.n:
            raise ValueError(f"y has {Y.shape[0]} rows, expected {plan.n}")
        nrhs = Y.shape[1]

        log = TimingLog()
        with log.phase("solve"):
            u = np.zeros((factors.coupling_rank, nrhs))
            z_blocks: List[np.ndarray] = []
            for s in range(plan.n_shards):
                start, stop = plan.shard_range(s)
                z = self._ulv[s].solve(Y[start:stop])
                z_blocks.append(z)
                if factors.qg_idx[s].size:
                    u[factors.qg_idx[s]] = factors.F[s].T @ z
            v = (scipy.linalg.lu_solve(self._cap_lu, u)
                 if self._cap_lu is not None else u)
            W = np.empty((plan.n, nrhs))
            for s in range(plan.n_shards):
                start, stop = plan.shard_range(s)
                c = np.ascontiguousarray(v[factors.pg_idx[s]])
                W[start:stop] = z_blocks[s] - self._shard_H(s) @ c
        for name, sec in log.as_dict().items():
            self.report.timings[name] = self.report.timings.get(name, 0.0) + sec
        return W.ravel() if single else W

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ShardedULVSolver(shards={self.factors.plan.n_shards}, "
                f"n={self.factors.plan.n}, "
                f"coupling_rank={self.factors.coupling_rank})")

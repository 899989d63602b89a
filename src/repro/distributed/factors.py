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
artifact section (see ``docs/serving.md``).  The coupling system over it —
the capacitance LU, the λ-refit and the Woodbury solve, calling the shard
kernels directly — is :class:`repro.distributed.DistributedSolver`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..clustering.tree import ClusterTree
from .plan import ShardPlan
from .shard import ShardKernel


@dataclass
class ShardedFactors:
    """Everything needed to re-solve a distributed factorization locally.

    Located by :meth:`locate` at fit time and filled with the shard
    kernels the workers built; :class:`repro.distributed.DistributedSolver`
    solves with it, and model artifacts persist it as their ``dist.*``
    section.

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
    """

    plan: ShardPlan
    F: List[np.ndarray]
    pg_idx: List[np.ndarray]
    qg_idx: List[np.ndarray]
    C: Optional[np.ndarray] = None
    shards: List[ShardKernel] = field(default_factory=list)

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
            ``{prefix}plan.*`` (the shard cut), ``{prefix}C`` and, per
            shard ``s``: ``{prefix}{s}.F``,
            ``{prefix}{s}.pg``, ``{prefix}{s}.qg``, ``{prefix}{s}.hss.*``,
            ``{prefix}{s}.ulv.*``.
        """
        out: Dict[str, np.ndarray] = {}
        out.update(self.plan.to_arrays(prefix=f"{prefix}plan."))
        out[f"{prefix}C"] = np.ascontiguousarray(self.C, dtype=np.float64)
        for s, shard in enumerate(self.shards):
            local = shard.to_arrays()
            local["pg"] = np.asarray(self.pg_idx[s], dtype=np.int64)
            local["qg"] = np.asarray(self.qg_idx[s], dtype=np.int64)
            out.update({f"{prefix}{s}.{key}": a for key, a in local.items()})
        return out

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray], tree: ClusterTree,
                    lam: float, prefix: str = "dist.") -> "ShardedFactors":
        """Rebuild from :meth:`to_arrays` output, bitwise.

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
            The model's ridge shift, the one the shard ULVs are at.
        prefix:
            Key prefix used at save time.

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
        pg, qg, shards = [], [], []
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
                   qg_idx=qg, C=C, shards=shards)

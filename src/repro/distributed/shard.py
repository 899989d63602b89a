"""The shard kernel: one shard's share of the distributed factorization.

What belongs to shard ``s`` alone (see :mod:`repro.distributed.factors`
for the algebra): the HSS approximation of its diagonal block, the ULV
factorization ``D_s^{-1}`` of it, its rows ``F_s`` of the located coupling
factors and ``H_s = D_s^{-1} F_s``.  :class:`ShardKernel` is that state plus
the steps the coupling system asks of it.  A worker builds a shard's arrays
in its ``fit`` round and ships them back; the kernel itself only ever lives
in the process that solves with it, collected from a fit or restored from a
``shards > 1`` artifact.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..clustering.tree import ClusterTree
from ..hss.ulv import ULVFactorization


class ShardKernel:
    """Local factors and coupling columns of one shard.

    Parameters
    ----------
    ulv:
        ULV factorization of the shard's diagonal block (it carries the
        λ-free HSS generators it factors as ``ulv.hss``).
    F:
        Located coupling factors ``F_s`` (``n_s x R_s``).
    """

    def __init__(self, ulv: ULVFactorization, F: np.ndarray):
        self.ulv = ulv
        self.F = np.asarray(F, dtype=np.float64)
        #: ``H_s = D_s^{-1} F_s`` (derived by :meth:`couple`)
        self.H: Optional[np.ndarray] = None

    def refit(self, lam: float) -> None:
        """Re-factor the local ULV at shift ``lam`` (no recompression).

        The previous factorization stays until the new one exists: its
        λ-free transforms are shared by reference, so the overlap is one
        factorization plus the λ-dependent half of the next, never two
        whole ones.  ``H`` belongs to the old shift and is dropped (the
        coupling system re-runs :meth:`couple`).
        """
        self.H = None
        self.ulv = self.ulv.refactor(float(lam))

    def couple(self) -> np.ndarray:
        """Derive ``H`` at the current factorization; return the Gram piece
        ``F^T D_s^{-1} F`` of the capacitance system."""
        F = self.F
        self.H = np.zeros_like(F) if F.shape[1] == 0 else self.ulv.solve(F)
        return F.T @ self.H

    def solve(self, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Apply the local inverse to the shard's rows ``y``; return the
        local solution ``z`` and the capacitance right-hand side ``F^T z``."""
        z = self.ulv.solve(np.asarray(y, dtype=np.float64))
        return z, self.F.T @ z

    def correct(self, z: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Apply the low-rank correction for the shard's rows ``c`` of the
        capacitance solution; return the local solution block ``z - H c``."""
        if self.H is None:
            # restored from arrays: the capacitance matrix came with them,
            # H did not (one multi-RHS local solve, on first use)
            self.couple()
        return z - self.H @ np.asarray(c, dtype=np.float64)

    # --------------------------------------------------------------- arrays
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Flatten the shard for persistence: ``F`` plus the layouts of
        :func:`repro.serving.hss_to_arrays` (``hss.*``) and
        :func:`repro.serving.ulv_to_arrays` (``ulv.*``)."""
        from ..serving.serialize import hss_to_arrays, ulv_to_arrays
        arrays = {"F": np.ascontiguousarray(self.F, dtype=np.float64)}
        arrays.update(hss_to_arrays(self.ulv.hss, prefix="hss."))
        arrays.update(ulv_to_arrays(self.ulv, prefix="ulv."))
        return arrays

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray],
                    subtree: ClusterTree, lam: float,
                    refactor: bool = False) -> "ShardKernel":
        """Rebuild a shard from its ``F`` / ``hss.*`` / ``ulv.*`` arrays, bitwise.

        ``subtree`` is its local cluster tree
        (:meth:`repro.distributed.ShardPlan.subtree`) and ``lam`` the shift
        the ULV factors are at; a payload inconsistent with the subtree
        raises :class:`repro.serving.ArtifactError`.  With ``refactor``
        the ``ulv.*`` section is not read and the HSS matrix is factored
        cold at ``lam`` instead.  ``H`` is derived on first use.
        """
        from ..serving.serialize import hss_from_arrays, ulv_from_arrays
        hss = hss_from_arrays(arrays, subtree, prefix="hss.")
        ulv = (ULVFactorization.factor(hss, lam=lam) if refactor
               else ulv_from_arrays(arrays, hss, prefix="ulv.", lam=lam))
        return cls(ulv, arrays["F"])

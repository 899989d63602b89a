"""The shard kernel: one shard's share of the distributed factorization.

What belongs to shard ``s`` alone (see :mod:`repro.distributed.coordinator`
for the algebra): the HSS approximation of its diagonal block, the ULV
factorization ``D_s^{-1}`` of it, its rows ``F_s`` of the located coupling
factors and ``H_s = D_s^{-1} F_s``.  :class:`ShardKernel` is that state plus
the four steps the coupling system asks of it, and it is the same class
wherever a shard lives: resident in a worker process, shipped back by
``collect``, or restored from a ``shards > 1`` artifact.  :class:`ShardList`
is the in-process transport: the four calls over a list of kernels.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..clustering.tree import ClusterTree
from ..hss.ulv import ULVFactorization
from ..utils.timing import TimingLog


class ShardKernel:
    """Local factors and coupling columns of one shard.

    Parameters
    ----------
    ulv:
        ULV factorization of the shard's diagonal block (it carries the
        λ-free HSS generators it factors as ``ulv.hss``).
    F:
        Located coupling factors ``F_s`` (``n_s x R_s``), or ``None``
        until the first :meth:`couple`.
    """

    def __init__(self, ulv: Optional[ULVFactorization] = None,
                 F: Optional[np.ndarray] = None):
        self.ulv = ulv
        self.F = F
        #: ``H_s = D_s^{-1} F_s`` (derived by :meth:`couple`)
        self.H: Optional[np.ndarray] = None
        #: local solution of the last :meth:`solve`, kept for :meth:`correct`
        self.z: Optional[np.ndarray] = None

    def _factors(self, command: str) -> ULVFactorization:
        if self.ulv is None:
            raise RuntimeError(f"shard received {command!r} before 'fit'")
        return self.ulv

    def refit(self, lam: float) -> dict:
        """Re-factor the local ULV at shift ``lam`` (no recompression).

        The previous factorization stays until the new one exists: its
        λ-free transforms are shared by reference, so the overlap is one
        factorization plus the λ-dependent half of the next, never two
        whole ones.  ``H`` belongs to the old shift and is dropped (the
        coupling system re-runs :meth:`couple`).  Returns the shard's
        report: ``timings`` and ``recompressed=False``.
        """
        ulv = self._factors("refit")
        log = TimingLog()
        self.H = self.z = None
        self.ulv = ulv.refactor(float(lam), timing=log)
        return {"timings": dict(log.phases), "recompressed": False}

    def couple(self, F: Optional[np.ndarray] = None) -> np.ndarray:
        """Take the located factors ``F`` (``None``: keep the ones held);
        return the Gram piece ``F^T D_s^{-1} F`` of the capacitance system."""
        ulv = self._factors("couple")
        if F is not None:
            self.F = np.asarray(F, dtype=np.float64)
        F = self.F
        self.H = np.zeros_like(F) if F.shape[1] == 0 else ulv.solve(F)
        return F.T @ self.H

    def solve(self, y: np.ndarray) -> np.ndarray:
        """Apply the local inverse to the shard's rows ``y``; return the
        capacitance right-hand side ``F^T z`` (``z`` stays for :meth:`correct`)."""
        if self.F is None:
            raise RuntimeError("shard received 'solve' before 'couple'")
        self.z = self._factors("solve").solve(np.asarray(y, dtype=np.float64))
        return self.F.T @ self.z

    def correct(self, c: np.ndarray) -> np.ndarray:
        """Apply the low-rank correction for the shard's rows ``c`` of the
        capacitance solution; return the local solution block ``z - H c``."""
        if self.z is None:
            raise RuntimeError("shard received 'correct' before 'solve'")
        if self.H is None:
            # restored from arrays: the capacitance matrix came with them,
            # H did not (one multi-RHS local solve, on first use)
            self.couple()
        w = self.z - self.H @ np.asarray(c, dtype=np.float64)
        self.z = None
        return w

    # --------------------------------------------------------------- arrays
    def to_arrays(self, sections: Optional[Sequence[str]] = None
                  ) -> Dict[str, np.ndarray]:
        """Flatten the shard for shipping or persistence.

        ``sections`` is a subset of ``("F", "hss", "ulv")``; ``None`` means
        ``("hss", "ulv")``, what a ``collect`` ships (the coordinator
        located ``F`` itself).  A λ-only refit re-collects just ``("ulv",)``
        — the HSS generators are λ-free, so re-shipping them would cost
        O(compression memory) per λ.  The layouts are those of
        :func:`repro.serving.hss_to_arrays` / :func:`repro.serving.ulv_to_arrays`.
        """
        from ..serving.serialize import hss_to_arrays, ulv_to_arrays
        ulv = self._factors("collect")
        wanted = ("hss", "ulv") if sections is None else tuple(sections)
        arrays: Dict[str, np.ndarray] = {}
        if "F" in wanted:
            arrays["F"] = np.ascontiguousarray(self.F, dtype=np.float64)
        if "hss" in wanted:
            arrays.update(hss_to_arrays(ulv.hss, prefix="hss."))
        if "ulv" in wanted:
            arrays.update(ulv_to_arrays(ulv, prefix="ulv."))
        return arrays

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray],
                    subtree: ClusterTree) -> "ShardKernel":
        """Rebuild a shard from :meth:`to_arrays` output, bitwise.

        ``arrays`` holds the shard's ``hss.*`` / ``ulv.*`` sections (and
        ``F`` when it was stored with them), ``subtree`` is its local
        cluster tree (:meth:`repro.distributed.ShardPlan.subtree`); a
        payload inconsistent with the subtree raises
        :class:`repro.serving.ArtifactError`.  ``H`` is derived on first use.
        """
        from ..serving.serialize import hss_from_arrays, ulv_from_arrays
        hss = hss_from_arrays(arrays, subtree, prefix="hss.")
        F = arrays.get("F")
        return cls(ulv_from_arrays(arrays, hss, prefix="ulv."),
                   None if F is None else np.asarray(F, dtype=np.float64))

    def reload_ulv(self, arrays: Dict[str, np.ndarray]) -> None:
        """Replace the ULV factors by the ``("ulv",)`` section shipped after
        a λ-only refit of the shard this one mirrors (same HSS generators)."""
        from ..serving.serialize import ulv_from_arrays
        self.ulv = ulv_from_arrays(arrays, self.ulv.hss, prefix="ulv.")
        self.H = self.z = None


class ShardList(List[ShardKernel]):
    """In-process shard backend: the four calls over a list of kernels,
    one entry per shard in and out, in shard order — what
    :class:`repro.distributed.WorkerGrid` answers with a protocol round each."""

    def refit(self, lam: float) -> List[dict]:
        """:meth:`ShardKernel.refit` on every shard."""
        return [shard.refit(lam) for shard in self]

    def couple(self, F: Sequence[np.ndarray]) -> List[np.ndarray]:
        """:meth:`ShardKernel.couple` on every shard."""
        return [shard.couple(f) for shard, f in zip(self, F)]

    def solve(self, y: Sequence[np.ndarray]) -> List[np.ndarray]:
        """:meth:`ShardKernel.solve` on every shard."""
        return [shard.solve(b) for shard, b in zip(self, y)]

    def correct(self, c: Sequence[np.ndarray]) -> List[np.ndarray]:
        """:meth:`ShardKernel.correct` on every shard."""
        return [shard.correct(v) for shard, v in zip(self, c)]

"""The compressed H matrix: leaf blocks, matvec, memory statistics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..lowrank.lowrank_matrix import LowRank
from ..utils.bytes import megabytes
from .block_tree import BlockClusterTree


@dataclass
class HBlock:
    """One leaf block of the H matrix.

    Exactly one of ``dense`` / ``lowrank`` is set, matching the
    admissibility flag of the corresponding block-cluster-tree node.
    ``mirror_of`` is the id of the partner leaf whose arrays this block
    shares as their transpose (see :meth:`mirror`), ``None`` for a block
    that owns its arrays.
    """

    block_id: int
    row_slice: slice
    col_slice: slice
    dense: Optional[np.ndarray] = None
    lowrank: Optional[LowRank] = None
    mirror_of: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.dense is None) == (self.lowrank is None):
            raise ValueError("exactly one of dense / lowrank must be provided")

    @property
    def shape(self) -> tuple:
        return (self.row_slice.stop - self.row_slice.start,
                self.col_slice.stop - self.col_slice.start)

    @property
    def rank(self) -> int:
        """Rank of the stored representation (full min-dim for dense blocks)."""
        if self.lowrank is not None:
            return self.lowrank.rank
        return min(self.shape)

    @property
    def nbytes(self) -> int:
        if self.dense is not None:
            return int(self.dense.nbytes)
        return self.lowrank.nbytes

    def mirror(self, block_id: int) -> "HBlock":
        """The transpose of this block as leaf ``block_id``, sharing its arrays.

        A dense mirror is the view ``dense.T``; a low-rank one swaps the
        factors, ``LowRank(V, U)``, without the copy of
        :meth:`LowRank.transpose`.
        """
        if self.dense is not None:
            return HBlock(block_id, self.col_slice, self.row_slice,
                          dense=self.dense.T, mirror_of=self.block_id)
        return HBlock(block_id, self.col_slice, self.row_slice,
                      lowrank=LowRank(self.lowrank.V, self.lowrank.U),
                      mirror_of=self.block_id)

    def product(self, x: np.ndarray) -> np.ndarray:
        """``block @ x[cols]`` (multi-rhs aware), returned for accumulation."""
        xs = x[self.col_slice]
        if self.dense is not None:
            return self.dense @ xs
        return self.lowrank.U @ (self.lowrank.V.T @ xs)

    def matvec_into(self, x: np.ndarray, out: np.ndarray) -> None:
        """Accumulate ``block @ x[cols]`` into ``out[rows]`` (multi-rhs aware)."""
        out[self.row_slice] += self.product(x)


@dataclass
class HMatrixStatistics:
    """Memory / rank summary of an H matrix (Figure 7a's "H" series)."""

    n: int
    total_bytes: int
    max_rank: int
    dense_blocks: int
    admissible_blocks: int

    @property
    def memory_mb(self) -> float:
        return megabytes(self.total_bytes)


class HMatrix:
    """A kernel matrix compressed in the H format (strong admissibility).

    Parameters
    ----------
    block_tree, blocks:
        The block partition and its leaf blocks.
    """

    def __init__(self, block_tree: BlockClusterTree, blocks: List[HBlock]):
        self.block_tree = block_tree
        self.blocks = blocks
        self._n = block_tree.tree.n

    @property
    def shape(self) -> tuple:
        return (self._n, self._n)

    @property
    def n(self) -> int:
        return self._n

    @property
    def dtype(self):
        return np.dtype(np.float64)

    # --------------------------------------------------------------- products
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Compute ``A_perm @ x`` by summing leaf-block contributions."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        X = x[:, None] if single else x
        if X.shape[0] != self._n:
            raise ValueError(f"x has {X.shape[0]} rows, expected {self._n}")
        # one block sweep, accumulating contributions in block-list order
        out = np.zeros_like(X)
        for blk in self.blocks:
            blk.matvec_into(X, out)
        return out.ravel() if single else out

    def matmat(self, V: np.ndarray) -> np.ndarray:
        """Blocked product ``A_perm @ V`` (same leaf sweep, multiple columns)."""
        return self.matvec(V)

    def to_dense(self) -> np.ndarray:
        """Materialise the full matrix (testing / small problems only)."""
        A = np.zeros((self._n, self._n))
        for blk in self.blocks:
            if blk.dense is not None:
                A[blk.row_slice, blk.col_slice] = blk.dense
            else:
                A[blk.row_slice, blk.col_slice] = blk.lowrank.to_dense()
        return A

    # ------------------------------------------------------------ statistics
    @property
    def nbytes(self) -> int:
        """Bytes of the stored arrays: a mirrored block shares its partner's."""
        return sum(blk.nbytes for blk in self.blocks if blk.mirror_of is None)

    @property
    def max_rank(self) -> int:
        """Largest rank among the admissible (low-rank) blocks."""
        ranks = [b.rank for b in self.blocks if b.lowrank is not None]
        return max(ranks) if ranks else 0

    def statistics(self) -> HMatrixStatistics:
        return HMatrixStatistics(
            n=self._n,
            total_bytes=self.nbytes,
            max_rank=self.max_rank,
            dense_blocks=sum(1 for b in self.blocks if b.dense is not None),
            admissible_blocks=sum(1 for b in self.blocks if b.lowrank is not None),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"HMatrix(n={self._n}, blocks={len(self.blocks)}, "
                f"max_rank={self.max_rank}, "
                f"memory={megabytes(self.nbytes):.2f} MB)")

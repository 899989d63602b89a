"""Deterministic HSS construction from an explicit dense matrix.

This is the reference builder: it walks the cluster tree bottom-up and
compresses the off-diagonal block row of every node with an interpolative
decomposition, enforcing the nested-basis property by only compressing the
*skeleton* rows of the children at internal nodes.  Kernel matrices are
symmetric, so the row bases and skeletons serve the columns too and the
only coupling block stored is ``B12`` (see :mod:`repro.hss.generators`).

A node's compression only reads the matrix and the children's skeletons,
which belong to deeper levels, so the walk goes level by level, deepest
level first.

It touches every matrix entry, so it costs ``O(n^2 r)`` and is meant for
testing, for modest problem sizes and as the ground truth against which the
randomized (partially matrix-free) builder of
:mod:`repro.hss.build_random` is verified.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..clustering.tree import ClusterTree
from ..config import HSSOptions
from ..lowrank.interpolative import row_id
from ..utils.validation import check_square
from .generators import HSSNodeData
from .hss_matrix import HSSMatrix


def _complement(n: int, start: int, stop: int) -> np.ndarray:
    """Indices of ``{0..n-1}`` outside the contiguous range ``[start, stop)``."""
    return np.concatenate([np.arange(0, start, dtype=np.intp),
                           np.arange(stop, n, dtype=np.intp)])


def _compress_rows(data: HSSNodeData, hankel_row: np.ndarray,
                   rows: np.ndarray, opts: HSSOptions
                   ) -> Tuple[HSSNodeData, np.ndarray]:
    """Row-ID ``hankel_row``; the basis serves the columns too (``A = A^T``).
    Returns the node and the skeleton rows it selected."""
    rid = row_id(hankel_row, rel_tol=opts.rel_tol, max_rank=opts.max_rank)
    data.U = rid.interp
    return data, rows[rid.skeleton]


def build_hss_from_dense(
    A: np.ndarray,
    tree: ClusterTree,
    options: Optional[HSSOptions] = None,
) -> HSSMatrix:
    """Compress a dense (already permuted) matrix into HSS form.

    Parameters
    ----------
    A:
        Dense symmetric matrix in the *permuted* ordering defined by
        ``tree`` (i.e. ``A = A_original[perm][:, perm]``).
    tree:
        Cluster tree defining the HSS partition.
    options:
        Compression options; ``rel_tol`` controls the ID truncation,
        ``max_rank`` caps the ranks.

    Returns
    -------
    HSSMatrix

    Raises
    ------
    ValueError
        If ``A`` is not symmetric (to ``1e-12`` absolute).
    """
    A = check_square(A, "A")
    opts = options if options is not None else HSSOptions()
    n = A.shape[0]
    if tree.n != n:
        raise ValueError(f"tree covers {tree.n} points but A has dimension {n}")
    if not np.allclose(A, A.T, atol=1e-12):
        raise ValueError("A must be symmetric: the HSS builders compress "
                         "kernel matrices, whose column bases are the row ones")

    node_data: List[Optional[HSSNodeData]] = [None] * tree.n_nodes
    #: per node, the global rows its row ID selected (the root selects none)
    skeletons: List[Optional[np.ndarray]] = [None] * tree.n_nodes

    def process_node(node_id: int) -> Tuple[HSSNodeData, np.ndarray]:
        nd = tree.node(node_id)
        data = HSSNodeData()
        comp = _complement(n, nd.start, nd.stop)

        if nd.is_leaf:
            rows = np.arange(nd.start, nd.stop, dtype=np.intp)
            data.D = A[np.ix_(rows, rows)].copy()
            if node_id == tree.root:
                # Degenerate single-node tree: the matrix is one dense block.
                data.U = np.zeros((nd.size, 0))
                return data, rows[:0]
            # Row Hankel block A(I_i, I_i^c): select representative rows.
            return _compress_rows(data, A[np.ix_(rows, comp)], rows, opts)

        # ----- internal node
        k1, k2 = skeletons[nd.left], skeletons[nd.right]
        data.B12 = A[np.ix_(k1, k2)].copy()

        if node_id == tree.root:
            return data, np.zeros(0, dtype=np.intp)

        merged_rows = np.concatenate([k1, k2])
        return _compress_rows(data, A[np.ix_(merged_rows, comp)], merged_rows,
                              opts)

    for level_nodes in reversed(tree.levels()):
        for node_id in level_nodes:
            node_data[node_id], skeletons[node_id] = process_node(node_id)

    return HSSMatrix(tree, node_data)

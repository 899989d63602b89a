"""Deterministic HSS construction from an explicit dense matrix.

This is the reference builder: it walks the cluster tree bottom-up and
compresses the off-diagonal block row of every node with an interpolative
decomposition, enforcing the nested-basis property by only compressing the
*skeleton* rows of the children at internal nodes.  Kernel matrices are
symmetric, so the column bases and skeletons are the row ones.

A node's compression only reads the matrix and the children's skeletons,
which belong to deeper levels, so the walk goes level by level, deepest
level first.

It touches every matrix entry, so it costs ``O(n^2 r)`` and is meant for
testing, for modest problem sizes and as the ground truth against which the
randomized (partially matrix-free) builder of
:mod:`repro.hss.build_random` is verified.
"""

from __future__ import annotations

from typing import List, Optional

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
                   rows: np.ndarray, opts: HSSOptions) -> HSSNodeData:
    """Row-ID ``hankel_row``; the column basis is the row one (``A = A^T``)."""
    rid = row_id(hankel_row, rel_tol=opts.rel_tol, max_rank=opts.max_rank)
    data.U = rid.interp
    data.V = rid.interp.copy()
    data.row_skeleton = rows[rid.skeleton]
    data.col_skeleton = data.row_skeleton.copy()
    return data


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

    def process_node(node_id: int) -> HSSNodeData:
        nd = tree.node(node_id)
        data = HSSNodeData()
        comp = _complement(n, nd.start, nd.stop)

        if nd.is_leaf:
            rows = np.arange(nd.start, nd.stop, dtype=np.intp)
            data.D = A[np.ix_(rows, rows)].copy()
            if node_id == tree.root:
                # Degenerate single-node tree: the matrix is one dense block.
                data.U = np.zeros((nd.size, 0))
                data.V = np.zeros((nd.size, 0))
                data.row_skeleton = rows[:0]
                data.col_skeleton = rows[:0]
                return data
            # Row Hankel block A(I_i, I_i^c): select representative rows.
            return _compress_rows(data, A[np.ix_(rows, comp)], rows, opts)

        # ----- internal node
        c1, c2 = nd.left, nd.right
        d1, d2 = node_data[c1], node_data[c2]
        data.B12 = A[np.ix_(d1.row_skeleton, d2.col_skeleton)].copy()
        data.B21 = A[np.ix_(d2.row_skeleton, d1.col_skeleton)].copy()

        if node_id == tree.root:
            data.row_skeleton = np.zeros(0, dtype=np.intp)
            data.col_skeleton = np.zeros(0, dtype=np.intp)
            return data

        merged_rows = np.concatenate([d1.row_skeleton, d2.row_skeleton])
        return _compress_rows(data, A[np.ix_(merged_rows, comp)], merged_rows,
                              opts)

    for level_nodes in reversed(tree.levels()):
        for node_id in level_nodes:
            node_data[node_id] = process_node(node_id)

    return HSSMatrix(tree, node_data)

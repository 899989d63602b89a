"""Agglomerative (bottom-up) clustering reference ordering.

The paper experimented with agglomerative / hierarchical clusterings and
found them "very good at reducing memory and ranks of the HSS structure"
but non-competitive overall because of "very unbalanced class sizes, or
lack of parallelism (O(n^2) scaling, requiring to construct and store the
complete distance matrix)" (Section 4.3).

This module provides that reference point: an average-linkage agglomerative
clustering (via :mod:`scipy.cluster.hierarchy`), converted into a
:class:`ClusterTree` by cutting the dendrogram top-down until clusters reach
the requested leaf size.  It is intentionally O(n^2) in time and memory and
should only be used on modest problem sizes.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..utils.validation import check_array_2d
from .tree import ClusterNode, ClusterTree


def agglomerative_tree(X: np.ndarray, leaf_size: int = 16,
                       linkage: str = "average") -> ClusterTree:
    """Build a cluster tree from an agglomerative clustering dendrogram.

    Parameters
    ----------
    X:
        Data points ``(n, d)``.  The full condensed distance matrix is
        formed, so ``n`` should stay in the low thousands.
    leaf_size:
        Dendrogram descent stops when a cluster has at most this many points.
    linkage:
        Any linkage criterion understood by
        :func:`scipy.cluster.hierarchy.linkage` (default ``"average"``).

    Returns
    -------
    ClusterTree
        The permutation is the dendrogram leaf order, so every dendrogram
        cluster is a contiguous range.
    """
    # Imported here, their only user: scipy.cluster and scipy.spatial (which
    # pull in scipy.special) are the dearest imports of the package.
    import scipy.cluster.hierarchy as sch
    import scipy.spatial.distance as ssd

    X = check_array_2d(X, "X")
    if leaf_size < 1:
        raise ValueError("leaf_size must be >= 1")
    n = X.shape[0]
    if n == 1:
        return ClusterTree(np.array([0], dtype=np.intp), [ClusterNode(0, 1)])

    condensed = ssd.pdist(X)
    Z = sch.linkage(condensed, method=linkage)
    # Dendrogram leaf order: points of any internal cluster are contiguous.
    perm = np.asarray(sch.leaves_list(Z), dtype=np.intp)
    inv = np.empty(n, dtype=np.intp)
    inv[perm] = np.arange(n, dtype=np.intp)

    # Member lists (positions in the permuted order) for every dendrogram node.
    # Node ids: 0..n-1 are singletons, n..2n-2 are merges in Z order.
    members: List[np.ndarray] = [np.array([inv[i]], dtype=np.intp) for i in range(n)]
    children = {}
    for k in range(Z.shape[0]):
        a, b = int(Z[k, 0]), int(Z[k, 1])
        node_id = n + k
        merged = np.sort(np.concatenate([members[a], members[b]]))
        members.append(merged)
        children[node_id] = (a, b)

    nodes: List[ClusterNode] = []

    def positions_range(node: int) -> tuple:
        pos = members[node]
        start, stop = int(pos[0]), int(pos[-1]) + 1
        if stop - start != pos.shape[0]:  # pragma: no cover - guaranteed by leaf order
            raise AssertionError("dendrogram cluster is not contiguous in leaf order")
        return start, stop

    def build(dendro_node: int, level: int) -> int:
        start, stop = positions_range(dendro_node)
        my_id = len(nodes)
        nodes.append(ClusterNode(start=start, stop=stop, level=level))
        size = stop - start
        if size > leaf_size and dendro_node in children:
            a, b = children[dendro_node]
            # Order the two children so the left child starts at ``start``.
            sa, _ = positions_range(a)
            first, second = (a, b) if sa == start else (b, a)
            left_id = build(first, level + 1)
            right_id = build(second, level + 1)
            nodes[my_id].left = left_id
            nodes[my_id].right = right_id
            nodes[left_id].parent = my_id
            nodes[right_id].parent = my_id
        return my_id

    import sys
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 2 * n + 100))
    try:
        root = build(2 * n - 2, 0)
    finally:
        sys.setrecursionlimit(old_limit)
    return ClusterTree(perm, nodes, root=root)

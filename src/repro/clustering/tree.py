"""The cluster tree: a binary tree of contiguous index ranges.

A :class:`ClusterTree` encodes simultaneously

* the permutation of the data points produced by the recursive clustering
  (``perm[new_position] = original_index``), and
* the hierarchical partition of ``{0, ..., n-1}`` (in the *permuted*
  ordering) into nested, contiguous index ranges.

The same tree is reused as the HSS partition tree (Figure 3 of the paper)
and as the cluster tree of the H-matrix block partition, which is what ties
"clustering quality" to "off-diagonal rank" in the first place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..utils.validation import check_array_2d


@dataclass
class ClusterNode:
    """A node of the cluster tree.

    Attributes
    ----------
    start, stop:
        Half-open range ``[start, stop)`` of positions in the permuted
        ordering covered by this node.
    left, right:
        Indices of the children in :attr:`ClusterTree.nodes`
        (``-1`` for leaves).
    parent:
        Index of the parent node (``-1`` for the root).
    level:
        Depth of the node (root at level 0).
    """

    start: int
    stop: int
    left: int = -1
    right: int = -1
    parent: int = -1
    level: int = 0

    @property
    def size(self) -> int:
        """Number of points covered by the node."""
        return self.stop - self.start

    @property
    def is_leaf(self) -> bool:
        return self.left < 0 and self.right < 0


class ClusterTree:
    """Binary tree of contiguous index ranges plus the inducing permutation.

    Parameters
    ----------
    perm:
        Permutation array: position ``i`` of the reordered dataset holds the
        original point ``perm[i]``.
    nodes:
        List of :class:`ClusterNode`; ``nodes[root]`` covers ``[0, n)``.
    root:
        Index of the root node (default 0).
    """

    def __init__(self, perm: np.ndarray, nodes: Sequence[ClusterNode], root: int = 0):
        self.perm = np.asarray(perm, dtype=np.intp)
        self.nodes: List[ClusterNode] = list(nodes)
        self.root = int(root)
        self._validate()

    # ------------------------------------------------------------ validation
    def _validate(self) -> None:
        n = self.perm.shape[0]
        seen = np.zeros(n, dtype=bool)
        seen[self.perm] = True
        if not seen.all():
            raise ValueError("perm is not a permutation")
        if not self.nodes:
            raise ValueError("tree must have at least one node")
        root = self.nodes[self.root]
        if root.start != 0 or root.stop != n:
            raise ValueError(
                f"root must cover [0, {n}), got [{root.start}, {root.stop})")
        for i, node in enumerate(self.nodes):
            if node.stop < node.start:
                raise ValueError(f"node {i} has negative size")
            if (node.left < 0) != (node.right < 0):
                raise ValueError(f"node {i} must have zero or two children")
            if not node.is_leaf:
                lc, rc = self.nodes[node.left], self.nodes[node.right]
                if lc.start != node.start or rc.stop != node.stop or lc.stop != rc.start:
                    raise ValueError(
                        f"children of node {i} do not partition [{node.start}, {node.stop})")

    # ------------------------------------------------------------- node table
    def node_table(self) -> np.ndarray:
        """The nodes as one ``(n_nodes, 6)`` int64 table.

        Returns
        -------
        numpy.ndarray
            Rows of ``(start, stop, left, right, parent, level)`` — the
            ``tree.nodes`` array of a model artifact and the wire format
            shard workers receive their local tree in.
        """
        return np.array(
            [[nd.start, nd.stop, nd.left, nd.right, nd.parent, nd.level]
             for nd in self.nodes], dtype=np.int64)

    @classmethod
    def from_node_table(cls, perm: np.ndarray, table: np.ndarray,
                        root: int = 0) -> "ClusterTree":
        """Rebuild a tree from its permutation and :meth:`node_table`.

        Parameters
        ----------
        perm:
            Permutation array of the tree.
        table:
            ``(n_nodes, 6)`` integer table as written by :meth:`node_table`.
        root:
            Index of the root node.

        Returns
        -------
        ClusterTree
            The validated tree.
        """
        # columns are in ClusterNode's field order
        nodes = [ClusterNode(*row)
                 for row in np.asarray(table, dtype=np.int64).tolist()]
        return cls(perm, nodes, root=root)

    # -------------------------------------------------------------- accessors
    @property
    def n(self) -> int:
        """Number of points."""
        return self.perm.shape[0]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def inverse_perm(self) -> np.ndarray:
        """Inverse permutation: ``inverse_perm[original_index] = new_position``."""
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(self.n, dtype=np.intp)
        return inv

    def node(self, i: int) -> ClusterNode:
        return self.nodes[i]

    def indices(self, i: int) -> np.ndarray:
        """Positions (in the permuted ordering) covered by node ``i``."""
        nd = self.nodes[i]
        return np.arange(nd.start, nd.stop, dtype=np.intp)

    def original_indices(self, i: int) -> np.ndarray:
        """Original dataset indices of the points covered by node ``i``."""
        nd = self.nodes[i]
        return self.perm[nd.start:nd.stop]

    def depth(self) -> int:
        """Maximum node level."""
        return max(nd.level for nd in self.nodes)

    # ------------------------------------------------------------- traversals
    def leaves(self) -> List[int]:
        """Leaf node indices ordered by their position range."""
        ls = [i for i, nd in enumerate(self.nodes) if nd.is_leaf]
        ls.sort(key=lambda i: self.nodes[i].start)
        return ls

    def postorder(self) -> Iterator[int]:
        """Post-order traversal (children before parents), as in Figure 3."""
        stack: List[Tuple[int, bool]] = [(self.root, False)]
        while stack:
            node_id, expanded = stack.pop()
            nd = self.nodes[node_id]
            if nd.is_leaf or expanded:
                yield node_id
            else:
                stack.append((node_id, True))
                stack.append((nd.right, False))
                stack.append((nd.left, False))

    def levels(self) -> List[List[int]]:
        """Node indices grouped by level, root level first."""
        out: List[List[int]] = [[] for _ in range(self.depth() + 1)]
        for i, nd in enumerate(self.nodes):
            out[nd.level].append(i)
        return out

    def leaf_sizes(self) -> np.ndarray:
        """Sizes of all leaves (diagonal block sizes of the HSS partition)."""
        return np.array([self.nodes[i].size for i in self.leaves()], dtype=np.intp)

    # ------------------------------------------------------------------ apply
    def apply_permutation(self, X: np.ndarray) -> np.ndarray:
        """Reorder the rows of ``X`` according to the tree's permutation."""
        X = np.asarray(X)
        if X.shape[0] != self.n:
            raise ValueError(
                f"X has {X.shape[0]} rows but the tree covers {self.n} points")
        return X[self.perm]

    def permute_vector(self, y: np.ndarray) -> np.ndarray:
        """Reorder a label / target vector consistently with the data."""
        y = np.asarray(y)
        if y.shape[0] != self.n:
            raise ValueError(
                f"y has length {y.shape[0]} but the tree covers {self.n} points")
        return y[self.perm]

    def unpermute_vector(self, y: np.ndarray) -> np.ndarray:
        """Map a vector in the permuted ordering back to the original order."""
        y = np.asarray(y)
        if y.shape[0] != self.n:
            raise ValueError(
                f"y has length {y.shape[0]} but the tree covers {self.n} points")
        out = np.empty_like(y)
        out[self.perm] = y
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ClusterTree(n={self.n}, nodes={self.n_nodes}, "
                f"leaves={len(self.leaves())}, depth={self.depth()})")


#: A splitter receives the data points of a cluster (in original coordinates)
#: and an RNG and returns a boolean mask selecting the *first* child cluster.
SplitFn = Callable[[np.ndarray, np.random.Generator], np.ndarray]


def tree_from_splitter(
    X: np.ndarray,
    splitter: SplitFn,
    leaf_size: int = 16,
    rng: Optional[np.random.Generator] = None,
    min_split_fraction: float = 0.0,
) -> ClusterTree:
    """Build a cluster tree by recursive top-down splitting.

    Parameters
    ----------
    X:
        Data points ``(n, d)`` in their *original* order.
    splitter:
        Callable returning a boolean mask of the first child for a subset of
        points.  A degenerate mask (all ``True`` / all ``False``) falls back
        to an equal split so recursion always terminates.
    leaf_size:
        Clusters of at most this size are not split further (16 in the
        paper's HSS experiments).
    rng:
        Random generator forwarded to the splitter.
    min_split_fraction:
        If one side receives fewer than ``min_split_fraction * size`` points
        the split also falls back to an equal split; used to guard against
        pathological unbalanced trees.

    Returns
    -------
    ClusterTree
    """
    X = check_array_2d(X, "X")
    if leaf_size < 1:
        raise ValueError("leaf_size must be >= 1")
    rng = rng if rng is not None else np.random.default_rng()
    n = X.shape[0]

    perm = np.empty(n, dtype=np.intp)
    nodes: List[ClusterNode] = []

    # Work stack of (original indices of this cluster, parent node id,
    # is_left_child, level, start offset in permuted order).
    # We build iteratively to avoid recursion-depth limits on large n.
    root_id = 0
    nodes.append(ClusterNode(start=0, stop=n, level=0))
    stack: List[Tuple[np.ndarray, int]] = [(np.arange(n, dtype=np.intp), root_id)]

    while stack:
        idx, node_id = stack.pop()
        node = nodes[node_id]
        size = idx.shape[0]
        if size <= leaf_size:
            perm[node.start:node.stop] = idx
            continue

        mask = np.asarray(splitter(X[idx], rng), dtype=bool)
        if mask.shape[0] != size:
            raise ValueError(
                f"splitter returned a mask of length {mask.shape[0]} for a "
                f"cluster of size {size}")
        n_left = int(mask.sum())
        min_side = int(np.floor(min_split_fraction * size))
        if n_left == 0 or n_left == size or n_left < min_side or (size - n_left) < min_side:
            # Degenerate split: fall back to an equal (natural) split so that
            # the recursion always makes progress.
            mask = np.zeros(size, dtype=bool)
            mask[: size // 2] = True
            n_left = size // 2

        left_idx = idx[mask]
        right_idx = idx[~mask]

        left_id = len(nodes)
        nodes.append(ClusterNode(start=node.start, stop=node.start + n_left,
                                 parent=node_id, level=node.level + 1))
        right_id = len(nodes)
        nodes.append(ClusterNode(start=node.start + n_left, stop=node.stop,
                                 parent=node_id, level=node.level + 1))
        node.left = left_id
        node.right = right_id

        stack.append((right_idx, right_id))
        stack.append((left_idx, left_id))

    return ClusterTree(perm, nodes, root=root_id)

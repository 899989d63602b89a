"""Block cluster tree with strong admissibility.

The H-matrix partition is a quad-tree over pairs of cluster-tree nodes
``(s, t)``: a pair is either

* **admissible** — the clusters are well separated
  (``min(diam(s), diam(t)) <= eta * dist(s, t)``) and the block
  ``A(I_s, I_t)`` is stored as a low-rank factorization,
* **a dense leaf** — the block is small (either cluster is a leaf of the
  cluster tree or the block is below the leaf-size threshold) and stored
  densely,
* **subdivided** — otherwise it is split into the four children pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..clustering.tree import ClusterTree
from .bbox import BoundingBox, ClusterGeometry


def strong_admissibility(box_s: BoundingBox, box_t: BoundingBox, eta: float) -> bool:
    """Textbook strong admissibility on bounding boxes.

    ``min(diam(s), diam(t)) <= eta * dist(s, t)``; blocks touching
    (distance zero) are never admissible.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    dist = box_s.distance(box_t)
    if dist <= 0.0:
        return False
    return min(box_s.diameter, box_t.diameter) <= eta * dist


def centroid_admissibility(geom_s: ClusterGeometry, geom_t: ClusterGeometry,
                           eta: float) -> bool:
    """Centroid / RMS-radius admissibility for high-dimensional data.

    ``dist(centroid_s, centroid_t) >= eta * (radius_s + radius_t)`` with the
    RMS radius of each cluster.  Axis-aligned boxes of distinct clusters in
    high dimension almost always overlap (their distance is zero) even when
    the clusters are far apart, so the textbook criterion admits nothing;
    the centroid criterion is the standard practical fallback (the paper's
    prototype uses a comparable "hybrid" selection of well separated
    sub-blocks) and the subsequent ACA still controls the actual error.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    dist = geom_s.centroid_distance(geom_t)
    return dist >= eta * (geom_s.radius + geom_t.radius)


@dataclass
class BlockNode:
    """One node of the block cluster tree (a pair of cluster-tree nodes)."""

    row_node: int
    col_node: int
    admissible: bool = False
    is_leaf: bool = False
    children: List[int] = field(default_factory=list)
    level: int = 0


class BlockClusterTree:
    """The hierarchy of row-cluster x column-cluster blocks.

    Parameters
    ----------
    tree:
        The (single) cluster tree used for both rows and columns — kernel
        matrices are square and symmetrically permuted.
    geometries:
        Per-node :class:`repro.hmatrix.bbox.ClusterGeometry` (see
        :func:`repro.hmatrix.cluster_geometries`).
    eta:
        Admissibility parameter (see the two criteria above).
    leaf_size:
        Blocks whose row and column clusters are both at most this size are
        stored densely even if not admissible.
    criterion:
        ``"centroid"`` (default; suited to high-dimensional kernel data) or
        ``"box"`` (textbook bounding-box strong admissibility).
    """

    def __init__(self, tree: ClusterTree, geometries: Dict[int, ClusterGeometry],
                 eta: float = 1.5, leaf_size: int = 64,
                 criterion: str = "centroid"):
        if eta <= 0:
            raise ValueError("eta must be positive")
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        if criterion not in ("centroid", "box"):
            raise ValueError("criterion must be 'centroid' or 'box'")
        self.tree = tree
        self.geometries = geometries
        self.eta = float(eta)
        self.leaf_size = int(leaf_size)
        self.criterion = criterion
        self.blocks: List[BlockNode] = []
        self._build()

    def _admissible(self, s: int, t: int) -> bool:
        gs, gt = self.geometries[s], self.geometries[t]
        if self.criterion == "box":
            return strong_admissibility(gs.box, gt.box, self.eta)
        return centroid_admissibility(gs, gt, self.eta)

    def _build(self) -> None:
        tree = self.tree
        root = tree.root
        self.blocks.append(BlockNode(row_node=root, col_node=root, level=0))
        # Work stack of (block_id, row cluster node, column cluster node).
        stack: List[Tuple[int, int, int]] = [(0, root, root)]
        while stack:
            block_id, s, t = stack.pop()
            block = self.blocks[block_id]
            ns, nt = tree.node(s), tree.node(t)
            if s != t and self._admissible(s, t):
                block.admissible = True
                block.is_leaf = True
                continue
            small = ns.size <= self.leaf_size and nt.size <= self.leaf_size
            if small or (ns.is_leaf and nt.is_leaf):
                block.admissible = False
                block.is_leaf = True
                continue
            # Subdivide whichever sides still have children; when only one
            # cluster is a leaf the other side is split alone, so inadmissible
            # leaf x large pairings never become huge dense blocks.
            s_children = (s,) if ns.is_leaf else (ns.left, ns.right)
            t_children = (t,) if nt.is_leaf else (nt.left, nt.right)
            for s_child in s_children:
                for t_child in t_children:
                    child_id = len(self.blocks)
                    self.blocks.append(BlockNode(row_node=s_child, col_node=t_child,
                                                 level=block.level + 1))
                    block.children.append(child_id)
                    stack.append((child_id, s_child, t_child))

    # --------------------------------------------------------------- queries
    def leaves(self) -> List[int]:
        """Indices of leaf blocks (dense or admissible)."""
        return [i for i, b in enumerate(self.blocks) if b.is_leaf]

    def admissible_leaves(self) -> List[int]:
        return [i for i, b in enumerate(self.blocks) if b.is_leaf and b.admissible]

    def dense_leaves(self) -> List[int]:
        return [i for i, b in enumerate(self.blocks) if b.is_leaf and not b.admissible]

    def mirror_partners(self) -> Dict[int, int]:
        """``{leaf: partner}`` for every leaf below the diagonal.

        A leaf ``(s, t)`` whose row cluster starts after its column
        cluster in the permuted order is paired with the leaf ``(t, s)``;
        the partition is symmetric, so that leaf exists and is of the
        same kind.  The H-matrix build computes the partners and mirrors
        the keys.  Clusters of a block are equal or disjoint, so the
        diagonal leaves are exactly the ones paired with themselves and
        never appear here.
        """
        leaf_of = {(b.row_node, b.col_node): i
                   for i, b in enumerate(self.blocks) if b.is_leaf}
        node = self.tree.node
        return {i: leaf_of[t, s] for (s, t), i in leaf_of.items()
                if node(s).start > node(t).start}

    def block_ranges(self, block_id: int) -> Tuple[slice, slice]:
        """Row and column index ranges (permuted ordering) of a block."""
        b = self.blocks[block_id]
        rn, cn = self.tree.node(b.row_node), self.tree.node(b.col_node)
        return slice(rn.start, rn.stop), slice(cn.start, cn.stop)

    def coverage_check(self) -> bool:
        """Verify the leaves tile the whole matrix exactly once.

        Returns ``True`` when every matrix entry is covered by exactly one
        leaf block; used by the test-suite as a structural invariant.
        """
        n = self.tree.n
        # Accumulate covered areas rather than building an n x n boolean
        # matrix so the check also runs for larger n; leaves never overlap by
        # construction (each block is subdivided into disjoint children).
        total = 0
        for i in self.leaves():
            rows, cols = self.block_ranges(i)
            total += (rows.stop - rows.start) * (cols.stop - cols.start)
        return total == n * n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"BlockClusterTree(blocks={len(self.blocks)}, "
                f"admissible={len(self.admissible_leaves())}, "
                f"dense={len(self.dense_leaves())})")

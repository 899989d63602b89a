"""H matrices with strong admissibility.

Contrary to HSS (weak admissibility: *every* off-diagonal block is low
rank), the H format only compresses blocks whose clusters are well
separated geometrically (Section 3.2 of the paper).  That keeps the ranks
of compressed blocks small even for high-dimensional kernels, so H
construction and mat-vec are quasi-linear — but H inversion is expensive,
which is why the paper uses the H matrix *only* to accelerate the sampling
phase of the HSS construction, not as a solver.

Public pieces:

* :class:`BlockClusterTree` — the hierarchy of (row cluster, column
  cluster) pairs with the strong admissibility condition
  ``min(diam(s), diam(t)) <= eta * dist(s, t)``,
* :class:`HMatrix` — ACA-compressed admissible blocks + dense inadmissible
  leaves, with fast matvec and memory statistics,
* :func:`build_hmatrix` — construction from a symmetric kernel operator;
  each leaf below the diagonal is its partner's transpose, sharing its
  arrays,
* :class:`HMatrixSampler` — adapter exposing the H matrix through the
  sampling interface expected by :func:`repro.hss.build_hss_randomized`.
"""

from .bbox import (BoundingBox, ClusterGeometry, cluster_bounding_boxes,
                   cluster_geometries)
from .block_tree import (BlockClusterTree, BlockNode, centroid_admissibility,
                         strong_admissibility)
from .hmatrix import HMatrix, HBlock
from .build import build_hmatrix
from .sampler import HMatrixSampler

__all__ = [
    "BoundingBox",
    "ClusterGeometry",
    "cluster_bounding_boxes",
    "cluster_geometries",
    "BlockClusterTree",
    "BlockNode",
    "strong_admissibility",
    "centroid_admissibility",
    "HMatrix",
    "HBlock",
    "build_hmatrix",
    "HMatrixSampler",
]

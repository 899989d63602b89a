"""Hierarchically Semi-Separable (HSS) matrices.

This package reimplements the STRUMPACK-style HSS tool-chain used by the
paper:

* :class:`HSSMatrix` — the compressed representation (Section 3.1):
  recursive 2x2 partition driven by a cluster tree, dense leaf diagonal
  blocks ``D_i``, nested bases ``U_i`` and coupling blocks ``B_ij`` such
  that every off-diagonal block is ``U_i B_ij U_j^T``.  The paper's
  general format also has column bases ``V_i`` and a second coupling
  block ``B_ji``; every matrix compressed here is a symmetric kernel
  matrix, where those are ``U_i`` and ``B_ij^T``, so they are not stored
  (:class:`HSSNodeData` holds ``D``, ``U``, ``B12`` and one skeleton).
* :func:`build_hss_from_dense` — deterministic construction from an
  explicit matrix (reference implementation, used in tests and for modest
  problem sizes).
* :func:`build_hss_randomized` — the partially matrix-free construction
  with adaptive randomized sampling (Martinsson 2011, as in STRUMPACK):
  needs only a black-box mat-mat product and element extraction.
* :class:`ULVFactorization` — the ULV factorization and solve
  (Chandrasekaran, Gu & Pals 2006), in the symmetric variant of Xia,
  Chandrasekaran, Gu & Li (2010): one orthogonal congruence per node,
  with separate factor / solve phases as
  timed in the paper's Table 4.  The ridge shift ``+ lam I`` is applied at
  factorization time (``ULVFactorization.factor(hss, lam)``), to copies of
  the leaf diagonals, never to the compression: the ULV is the one place
  λ goes.
* :class:`CompressedKernel` / :func:`compress_kernel` — the λ-free
  compression stage (H matrix + HSS of the unshifted kernel), built once
  per ``(dataset, kernel, tree)`` and re-factored cheaply per λ.  The H
  matrix only drives the sampling and is released with the build; the
  result keeps the HSS matrix, the H-matrix block cluster tree and the
  build report.
* :class:`HSSStatistics` — memory (MB) and maximum off-diagonal rank, the
  paper's primary performance metrics.
* :class:`StreamingULVSolver` / :class:`DriftBudget` — streaming row
  insertion/deletion as Woodbury corrections around the factored system,
  with drift thresholds (and :func:`should_recompress`, the policy on
  top of them) deciding when to recompress from scratch.
"""

from .generators import HSSNodeData
from .hss_matrix import HSSMatrix
from .build_dense import build_hss_from_dense
from .build_random import build_hss_randomized, SamplingStats
from .compressed import (CompressedKernel, CompressionReport,
                         compress_kernel)
from .ulv import ULVFactorization
from .memory import HSSStatistics
from .streaming import DriftBudget, StreamingULVSolver, should_recompress

__all__ = [
    "DriftBudget",
    "StreamingULVSolver",
    "should_recompress",
    "HSSNodeData",
    "HSSMatrix",
    "build_hss_from_dense",
    "build_hss_randomized",
    "SamplingStats",
    "CompressedKernel",
    "CompressionReport",
    "compress_kernel",
    "ULVFactorization",
    "HSSStatistics",
]

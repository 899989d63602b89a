"""Operation-count estimates for the HSS / H algorithm phases.

The distributed cost model is driven by *measured structure*: given an
actual compressed :class:`repro.hss.HSSMatrix` (ranks and block sizes per
node) it derives the floating point work of each phase — sampling, HSS
compression, ULV factorization, solve — and, per tree level, the data
volumes that must cross the network when the tree is distributed over many
processes.  Constant factors follow the standard dense-kernel counts
(``2mnk`` for a GEMM of that shape, ``2mn^2`` for a QR of a tall matrix).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np


def _gemm_flops(m: int, n: int, k: int) -> float:
    """Flops of a dense matrix product (m x k) @ (k x n)."""
    return 2.0 * m * n * k


def _qr_flops(m: int, n: int) -> float:
    """Flops of a Householder QR of an m x n matrix (m >= n)."""
    m, n = max(m, n), min(m, n)
    return 2.0 * m * n * n - (2.0 / 3.0) * n ** 3


@dataclass
class HSSWorkEstimate:
    """Per-phase flop counts and per-level volumes of one HSS matrix."""

    #: total flops of the randomized compression (IDs + local GEMMs),
    #: excluding the sampling product itself
    compression_flops: float = 0.0
    #: total flops of the ULV factorization
    factorization_flops: float = 0.0
    #: total flops of one ULV solve (single right-hand side)
    solve_flops: float = 0.0
    #: flops of one exact (dense) sampling sweep  A @ R
    dense_sampling_flops: float = 0.0
    #: flops of one H-matrix accelerated sampling sweep
    hmatrix_sampling_flops: float = 0.0
    #: per-level total flops of the factorization (level 0 = root)
    factorization_flops_per_level: Dict[int, float] = field(default_factory=dict)
    #: per-level number of tree nodes
    nodes_per_level: Dict[int, int] = field(default_factory=dict)
    #: per-level bytes exchanged between children and parents
    communication_bytes_per_level: Dict[int, float] = field(default_factory=dict)

    @property
    def total_flops(self) -> float:
        return (self.compression_flops + self.factorization_flops +
                self.solve_flops + self.dense_sampling_flops)


def estimate_hss_work(hss, n_random: int = 64) -> HSSWorkEstimate:
    """Estimate phase flop counts for a compressed HSS matrix.

    Parameters
    ----------
    hss:
        A built :class:`repro.hss.HSSMatrix`.
    n_random:
        Number of random vectors of the sampling sweep (STRUMPACK's ``d``);
        used for the sampling and compression estimates.

    Returns
    -------
    HSSWorkEstimate
    """
    est = HSSWorkEstimate()
    tree = hss.tree
    n = tree.n
    est.dense_sampling_flops = _gemm_flops(n, n_random, n)

    for node_id, data in enumerate(hss.node_data):
        nd = tree.node(node_id)
        level = nd.level
        est.nodes_per_level[level] = est.nodes_per_level.get(level, 0) + 1

        ru = data.rank
        if nd.is_leaf:
            n_loc = nd.size
        else:
            n_loc = hss.node_data[nd.left].rank + hss.node_data[nd.right].rank

        # --- compression: row ID of the (n_loc x n_random) local sample
        est.compression_flops += _qr_flops(n_random, n_loc) + _gemm_flops(
            n_loc, n_random, max(ru, 1))

        # --- ULV factorization at this node: QR of U (n_loc x ru), LQ of the
        # eliminated rows ((n_loc - ru) x n_loc), update of D and V.
        elim = max(n_loc - ru, 0)
        est_factor = (_qr_flops(n_loc, max(ru, 1)) +
                      _qr_flops(n_loc, max(elim, 1)) +
                      _gemm_flops(n_loc, n_loc, n_loc) +
                      _gemm_flops(n_loc, max(ru, 1), n_loc))
        est.factorization_flops += est_factor
        est.factorization_flops_per_level[level] = (
            est.factorization_flops_per_level.get(level, 0.0) + est_factor)

        # --- solve: triangular solves + small GEMVs
        est.solve_flops += 2.0 * n_loc * n_loc + 4.0 * n_loc * max(ru, 1)

        # --- communication: the reduced block a child ships to its parent is
        # (ru x ru) for D-hat plus (ru x ru) for V-hat plus the rhs slice.
        comm_bytes = 8.0 * (2 * ru * ru + ru)
        est.communication_bytes_per_level[level] = (
            est.communication_bytes_per_level.get(level, 0.0) + comm_bytes)

    return est


def estimate_sampling_work(n: int, n_random: int, hmatrix=None) -> Dict[str, float]:
    """Flops of one sampling sweep with and without the H matrix.

    Parameters
    ----------
    n:
        Matrix dimension.
    n_random:
        Number of random vectors.
    hmatrix:
        Optional built :class:`repro.hmatrix.HMatrix`; when given, the
        H-accelerated sweep cost is derived from its actual block structure
        (every leaf, mirrored ones included: the sweep applies them all).

    Returns
    -------
    dict
        ``{"dense": flops, "hmatrix": flops}``.
    """
    dense = _gemm_flops(n, n_random, n)
    if hmatrix is None:
        return {"dense": dense, "hmatrix": dense}
    h_flops = 0.0
    for blk in hmatrix.blocks:
        m, k = blk.shape
        if blk.dense is not None:
            h_flops += _gemm_flops(m, n_random, k)
        else:
            r = blk.lowrank.rank
            h_flops += _gemm_flops(r, n_random, k) + _gemm_flops(m, n_random, r)
    return {"dense": dense, "hmatrix": h_flops}


def estimate_hmatrix_work(hmatrix) -> float:
    """Flops of the H-matrix construction (ACA on admissible blocks).

    ACA of an ``m x k`` block at rank ``r`` touches ``r`` rows and columns
    and performs ``O(r^2 (m + k))`` update work; dense blocks cost their
    assembly (one kernel evaluation per entry, charged as ~10 flops each
    for the Gaussian kernel's exp).  Only the computed leaves are charged:
    a mirrored leaf is the transpose of its partner and costs nothing.
    """
    total = 0.0
    for blk in hmatrix.blocks:
        if blk.mirror_of is not None:
            continue
        m, k = blk.shape
        if blk.dense is not None:
            total += 10.0 * m * k
        else:
            r = max(blk.lowrank.rank, 1)
            total += 10.0 * r * (m + k) + 2.0 * r * r * (m + k)
    return total

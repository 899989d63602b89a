"""Memory and rank statistics of an HSS matrix.

These are the paper's headline performance metrics (Section 4.2):

* **Memory (MB)** — the sum of the memory used by all the individual
  smaller matrices in the HSS structure: ``D_i, U_i, V_i, B_ij, B_ji``;
* **Maximum rank** — the largest rank encountered in any of the
  off-diagonal blocks of the HSS structure.

We additionally record the compression ratio against the dense matrix and
the per-level rank profile, which the asymptotic-complexity experiments
(Figure 7) and the ablation benchmarks use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..utils.bytes import dense_matrix_bytes, megabytes


@dataclass
class HSSStatistics:
    """Summary statistics of a compressed HSS matrix."""

    n: int
    total_bytes: int
    max_rank: int
    leaf_count: int
    level_count: int
    rank_per_level: Dict[int, int] = field(default_factory=dict)
    bytes_diagonal: int = 0
    bytes_bases: int = 0
    bytes_coupling: int = 0

    @property
    def memory_mb(self) -> float:
        """Total memory in MB (the unit of the paper's Table 2)."""
        return megabytes(self.total_bytes)

    @property
    def dense_bytes(self) -> int:
        """Bytes an uncompressed dense matrix of the same size would use."""
        return dense_matrix_bytes(self.n)

    @property
    def compression_ratio(self) -> float:
        """Dense bytes divided by compressed bytes (larger is better)."""
        if self.total_bytes == 0:
            return float("inf")
        return self.dense_bytes / self.total_bytes

    @classmethod
    def from_hss(cls, hss) -> "HSSStatistics":
        """Compute the statistics of an :class:`repro.hss.HSSMatrix`."""
        tree = hss.tree
        bytes_diag = 0
        bytes_bases = 0
        bytes_coupling = 0
        rank_per_level: Dict[int, int] = {}
        for node_id, data in enumerate(hss.node_data):
            nd = tree.node(node_id)
            if data.D is not None:
                bytes_diag += data.D.nbytes
            for gen in (data.U, data.V):
                if gen is not None:
                    bytes_bases += gen.nbytes
            for gen in (data.B12, data.B21):
                if gen is not None:
                    bytes_coupling += gen.nbytes
            level = nd.level
            rank_per_level[level] = max(rank_per_level.get(level, 0), data.rank)
        total = bytes_diag + bytes_bases + bytes_coupling
        return cls(
            n=hss.n,
            total_bytes=total,
            max_rank=max(rank_per_level.values(), default=0),
            leaf_count=len(tree.leaves()),
            level_count=tree.depth() + 1,
            rank_per_level=rank_per_level,
            bytes_diagonal=bytes_diag,
            bytes_bases=bytes_bases,
            bytes_coupling=bytes_coupling,
        )

    def summary(self) -> str:
        """Multi-line human readable summary."""
        lines = [
            f"HSS matrix of dimension {self.n}",
            f"  memory            : {self.memory_mb:.3f} MB",
            f"  dense equivalent  : {megabytes(self.dense_bytes):.3f} MB",
            f"  compression ratio : {self.compression_ratio:.1f}x",
            f"  maximum rank      : {self.max_rank}",
            f"  leaves / levels   : {self.leaf_count} / {self.level_count}",
        ]
        return "\n".join(lines)

"""Figure 5: HSS memory versus the Gaussian bandwidth h (GAS10K).

The paper sweeps ``h`` over roughly [0.6, 20] on the GAS10K dataset with
``lambda = 4`` and plots the HSS memory for the four orderings.  Expected
shape: memory is largest at small-to-intermediate ``h`` (where the kernel
matrix is closest to identity-like / high rank), falls as ``h`` grows, and
the orderings separate consistently (2MN lowest, natural highest) across
the entire sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..config import HSSOptions
from ..clustering.api import cluster
from ..datasets import gas_like, standardize
from ..diagnostics.report import Table
from ..hss.compressed import compress_kernel
from ..kernels.gaussian import GaussianKernel


@dataclass
class Fig5Result:
    """Memory (MB) per ordering and bandwidth."""

    n: int
    lam: float
    h_values: Sequence[float]
    memory_mb: Dict[str, Dict[float, float]] = field(default_factory=dict)
    max_rank: Dict[str, Dict[float, int]] = field(default_factory=dict)

    def table(self) -> Table:
        table = Table(title=f"Figure 5 — HSS memory (MB) vs h, GAS-like n={self.n}, "
                            f"lambda={self.lam}")
        for ordering, per_h in self.memory_mb.items():
            row: Dict[str, object] = {"ordering": ordering}
            for h in self.h_values:
                row[f"h={h}"] = round(per_h[float(h)], 3)
            table.rows.append(row)
        return table


def run_fig5_memory_vs_h(
    n: int = 2048,
    h_values: Sequence[float] = (0.6, 1.0, 2.0, 4.0, 8.0, 16.0),
    orderings: Sequence[str] = ("natural", "kd", "pca", "two_means"),
    lam: float = 4.0,
    hss_options: Optional[HSSOptions] = None,
    seed: int = 0,
) -> Fig5Result:
    """Sweep h and record the HSS memory for every ordering.

    Only the compression is run (no classification) — memory is a property
    of the compressed kernel matrix alone, matching what Figure 5 plots.
    It is the λ-free, H-sampled :func:`repro.hss.compress_kernel` that
    training runs; ``lam`` only labels the table.
    """
    X, _ = gas_like(n, seed=seed)
    X = standardize(X)
    result = Fig5Result(n=n, lam=lam, h_values=list(h_values))
    for ordering in orderings:
        clustering = cluster(X, method=ordering, leaf_size=16, seed=seed)
        result.memory_mb[ordering] = {}
        result.max_rank[ordering] = {}
        for h in h_values:
            report = compress_kernel(clustering.X, clustering.tree,
                                     GaussianKernel(h=float(h)),
                                     hss_options=hss_options, seed=seed).report
            result.memory_mb[ordering][float(h)] = report.hss_memory_mb
            result.max_rank[ordering][float(h)] = report.max_rank
    return result

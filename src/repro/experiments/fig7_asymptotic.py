"""Figure 7: asymptotic complexity of memory and time versus N (SUSY).

Figure 7a plots the memory of the compressed matrix (both H and HSS
formats) against N and compares with the O(N) reference line; Figure 7b
plots the HSS factorization and solve times against N.  The expected shape
is quasi-linear growth (the paper notes the rank — and therefore the
constant — grows with the data dimension, so the curves sit slightly above
O(N) for high-dimensional data).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..config import HMatrixOptions, HSSOptions
from ..clustering.api import cluster
from ..datasets import susy_like, standardize
from ..diagnostics.report import Table
from ..hss.compressed import compress_kernel
from ..hss.ulv import ULVFactorization
from ..kernels.gaussian import GaussianKernel
from ..utils.bytes import megabytes
from ..utils.timing import TimingLog


@dataclass
class Fig7Point:
    """Measurements at one problem size N."""

    n: int
    hss_memory_mb: float
    hmatrix_memory_mb: float
    dense_memory_mb: float
    factorization_time: float
    solve_time: float
    max_rank: int


@dataclass
class Fig7Result:
    h: float
    lam: float
    points: List[Fig7Point] = field(default_factory=list)

    def table(self) -> Table:
        table = Table(title=f"Figure 7 — asymptotic memory and time vs N "
                            f"(SUSY-like, h={self.h}, lambda={self.lam})")
        for pt in self.points:
            table.add_row(
                N=pt.n,
                hss_memory_mb=round(pt.hss_memory_mb, 3),
                hmatrix_memory_mb=round(pt.hmatrix_memory_mb, 3),
                dense_memory_mb=round(pt.dense_memory_mb, 1),
                factorization_s=round(pt.factorization_time, 4),
                solve_s=round(pt.solve_time, 5),
                max_rank=pt.max_rank,
            )
        return table

    def growth_exponent(self, field_name: str = "hss_memory_mb") -> float:
        """Least-squares slope of log(quantity) against log(N).

        An exponent close to 1 confirms the quasi-linear behaviour of
        Figure 7; the dense matrix would give exponent 2 for memory and 3
        for factorization time.
        """
        ns = np.array([pt.n for pt in self.points], dtype=np.float64)
        vals = np.array([getattr(pt, field_name) for pt in self.points],
                        dtype=np.float64)
        mask = vals > 0
        if mask.sum() < 2:
            return float("nan")
        slope, _ = np.polyfit(np.log(ns[mask]), np.log(vals[mask]), 1)
        return float(slope)


def run_fig7_asymptotic(
    sizes: Sequence[int] = (512, 1024, 2048, 4096),
    h: float = 1.0,
    lam: float = 4.0,
    hss_options: Optional[HSSOptions] = None,
    hmatrix_options: Optional[HMatrixOptions] = None,
    n_rhs: int = 1,
    seed: int = 0,
) -> Fig7Result:
    """Sweep N and measure compressed memory plus factor/solve wall time.

    Every point is the training path of :class:`repro.krr.HSSSolver`: the
    λ-free, H-sampled :func:`repro.hss.compress_kernel`, then the ULV of
    ``K + lam I``.
    """
    result = Fig7Result(h=h, lam=lam)
    rng = np.random.default_rng(seed)
    for n in sizes:
        X, _ = susy_like(int(n), seed=seed)
        X = standardize(X)
        clustering = cluster(X, method="two_means", leaf_size=16,
                             seed=seed)
        compressed = compress_kernel(
            clustering.X, clustering.tree, GaussianKernel(h=h),
            hss_options=hss_options, hmatrix_options=hmatrix_options,
            seed=seed)
        hss, report = compressed.hss, compressed.report
        log = TimingLog()
        factorization = ULVFactorization.factor(hss, lam=lam, timing=log)
        b = rng.standard_normal((hss.n, n_rhs)) if n_rhs > 1 else rng.standard_normal(hss.n)
        t0 = time.perf_counter()
        factorization.solve(b)
        solve_time = time.perf_counter() - t0
        result.points.append(Fig7Point(
            n=int(n),
            hss_memory_mb=report.hss_memory_mb,
            hmatrix_memory_mb=report.hmatrix_memory_mb,
            dense_memory_mb=megabytes(8.0 * n * n),
            factorization_time=log.get("factorization"),
            solve_time=solve_time,
            max_rank=report.max_rank,
        ))
    return result

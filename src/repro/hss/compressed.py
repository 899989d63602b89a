"""λ-free kernel compression: build once, factor at many ridge shifts.

The KRR training system is ``K + lam I``, but everything expensive about
its hierarchical approximation — the H-matrix assembly that accelerates
the randomized sampling, and the HSS compression itself — depends only on
the *kernel* ``K`` (the shift touches nothing but the dense leaf
diagonals).  Historically the stack baked ``lam`` into the operator at
compression time, so a regularization sweep recompressed an identical
kernel once per λ.

:func:`compress_kernel` builds the λ-free representation exactly once per
``(dataset, kernel, tree)`` and returns a :class:`CompressedKernel`: the
HSS matrix of ``K`` (no shift), the block cluster tree of the auxiliary H
matrix (when used), and a :class:`CompressionReport` with the build
timings / memory / rank statistics.  The H matrix itself, its kernel
operator and its sampler are temporaries of the build, released before
:func:`compress_kernel` returns.  :meth:`repro.hss.ULVFactorization.factor`
then applies any ``lam`` at factorization time, so a λ sweep costs one
compression plus one ``O(n r^2)`` ULV per λ instead of one full build per
λ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..clustering.tree import ClusterTree
from ..config import HMatrixOptions, HSSOptions
from ..hmatrix.block_tree import BlockClusterTree
from ..kernels.base import Kernel
from ..kernels.operator import KernelOperator
from ..obs import global_registry
from ..obs.tracing import trace
from ..utils.bytes import megabytes
from ..utils.timing import TimingLog
from .build_random import build_hss_randomized
from .hss_matrix import HSSMatrix

#: Column-tile size of the exact kernel operator's sampling ``matmat``
#: (only exercised when H-matrix sampling is off), chosen so a tile row
#: fits in cache for the paper's dimensionalities.  A constant, not an
#: option: single-process and sharded builds all tile the same way.
MATMAT_COL_TILE = 1024


@dataclass
class CompressionReport:
    """Build statistics of one λ-free kernel compression.

    Attributes
    ----------
    timings:
        Per-phase build seconds (``hmatrix_*``, ``hss_sampling``,
        ``hss_other``).
    hss_memory_mb:
        Memory of the HSS generators in MB.
    hmatrix_memory_mb:
        Memory of the auxiliary H matrix in MB (0 when H sampling is off).
        This is build-time memory, not resident memory: the H matrix is
        released before :func:`compress_kernel` returns.
    max_rank:
        Largest off-diagonal HSS rank.
    random_vectors:
        Random vectors used by the adaptive sampling.
    """

    timings: Dict[str, float] = field(default_factory=dict)
    hss_memory_mb: float = 0.0
    hmatrix_memory_mb: float = 0.0
    max_rank: int = 0
    random_vectors: int = 0

    @property
    def memory_mb(self) -> float:
        """Total compression memory (HSS + H matrix) in MB."""
        return self.hss_memory_mb + self.hmatrix_memory_mb

    @property
    def total_seconds(self) -> float:
        """Total build wall-clock across all recorded phases."""
        return float(sum(self.timings.values()))


@dataclass
class CompressedKernel:
    """A λ-free HSS compression of one kernel matrix plus its build report.

    Produced by :func:`compress_kernel` once per ``(dataset, kernel,
    tree)``; :meth:`repro.hss.ULVFactorization.factor` factors its
    ``hss`` as ``K + lam I`` at any ridge shift without recompression.

    Parameters
    ----------
    hss:
        The HSS approximation of the *unshifted* kernel matrix, in the
        permuted ordering of its cluster tree (``hss.tree``).
    block_tree:
        The :class:`repro.hmatrix.BlockClusterTree` of the auxiliary H
        matrix, or ``None`` when H sampling is off.  It is the
        kernel-independent part of the build: pass it back to
        :func:`compress_kernel` to skip the geometry pass of a bandwidth
        move.
    report:
        Build statistics (:class:`CompressionReport`).
    """

    hss: HSSMatrix
    block_tree: Optional[BlockClusterTree] = None
    report: CompressionReport = field(default_factory=CompressionReport)


def compress_kernel(
    X_permuted: np.ndarray,
    tree: ClusterTree,
    kernel: Kernel,
    hss_options: Optional[HSSOptions] = None,
    hmatrix_options: Optional[HMatrixOptions] = None,
    use_hmatrix_sampling: bool = True,
    seed=0,
    timing: Optional[TimingLog] = None,
    block_tree: Optional[BlockClusterTree] = None,
) -> CompressedKernel:
    """Build the λ-free HSS compression of ``K(X_permuted)``.

    This is the shared compression stage behind
    :class:`repro.krr.HSSSolver` and the distributed shard workers: the
    kernel operator carries **no** ridge shift, so the result's ``hss``
    can be ULV-factored at any λ via
    :meth:`repro.hss.ULVFactorization.factor`.  The H matrix, the kernel
    operator and the sampler are locals of this call; only the block
    cluster tree outlives it, in the result.

    Parameters
    ----------
    X_permuted:
        Training points, already reordered by the clustering step.
    tree:
        Cluster tree of the reordering (defines the HSS partition).
    kernel:
        Kernel function.
    hss_options, hmatrix_options, use_hmatrix_sampling, seed:
        Compression options, matching :class:`repro.krr.HSSSolver`.
    timing:
        Optional :class:`repro.utils.TimingLog`; the H-matrix and HSS
        build phases are accumulated into it.
    block_tree:
        Optional :class:`repro.hmatrix.BlockClusterTree` of an earlier
        build (``compressed.block_tree``).  The admissibility partition
        is purely geometric, so a bandwidth move reuses it and redoes only
        the kernel-dependent numerics — bitwise identical to a cold
        build.  :func:`repro.hmatrix.build_hmatrix` checks the block
        tree's recorded tree and options against this call's and rebuilds
        the partition when they differ.

    Returns
    -------
    CompressedKernel
        The λ-free compression plus its build report.
    """
    from ..hmatrix.build import build_hmatrix
    from ..hmatrix.sampler import HMatrixSampler

    opts = hss_options if hss_options is not None else HSSOptions()
    h_opts = hmatrix_options if hmatrix_options is not None else HMatrixOptions()
    log = timing if timing is not None else TimingLog()

    operator = KernelOperator(X_permuted, kernel, col_tile=MATMAT_COL_TILE)
    sampler = operator
    hmatrix = None
    hmatrix_memory_mb = 0.0
    with trace.span("kernel.compress"):
        if use_hmatrix_sampling:
            hmatrix = build_hmatrix(operator, X_permuted, tree,
                                    options=h_opts, timing=log,
                                    block_tree=block_tree)
            sampler = HMatrixSampler(hmatrix, operator)
            hmatrix_memory_mb = megabytes(hmatrix.nbytes)

        with trace.span("hss.build") as span:
            hss, stats = build_hss_randomized(sampler, tree, options=opts,
                                              rng=seed, timing=log)
            span.attributes.update(
                rounds=stats.rounds,
                random_vectors=stats.random_vectors,
                nodes=tree.n_nodes,
                nodes_compressed=stats.nodes_compressed,
                nodes_discarded=stats.nodes_discarded,
                sample_seconds=stats.sample_time,
                discarded_seconds=stats.discarded_time)
    global_registry().counter(
        "repro_kernel_compressions_total",
        "λ-free kernel compressions built (HSS builds)").inc()
    hss_stats = hss.statistics()
    report = CompressionReport(
        timings=log.as_dict(),
        hss_memory_mb=hss_stats.memory_mb,
        hmatrix_memory_mb=hmatrix_memory_mb,
        max_rank=hss_stats.max_rank,
        random_vectors=stats.random_vectors,
    )
    return CompressedKernel(
        hss=hss, report=report,
        block_tree=None if hmatrix is None else hmatrix.block_tree)

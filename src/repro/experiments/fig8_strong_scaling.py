"""Figure 8: strong scaling of the factorization phase, 32 to 1,024 cores.

The paper shows the wall-clock time of the ULV factorization of the
compressed kernel matrix for four large datasets (MNIST 1.6M / d=784,
COVTYPE 0.5M / d=54, HEPMASS 1.0M / d=27, SUSY 4.5M / d=8) as the core
count grows from 32 to 1,024.  The curves are near-linear at first and
flatten at high core counts ("the number of degrees of freedom per core
decreases dramatically, while communication time starts to dominate"), and
datasets with larger dimension (larger HSS ranks) take longer in absolute
terms even when they have fewer points (MNIST above SUSY).

This experiment builds the HSS matrix for each dataset at a reduced N,
derives its per-level work profile, and sweeps the core count through the
distributed cost model.  With ``measure_shard_counts`` it additionally
runs the *real* process-sharded training path of :mod:`repro.distributed`
at each process count and records the measured wall-clock (the build is
process-parallel; the solve after it runs in the calling process).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..config import HSSOptions
from ..clustering.api import cluster
from ..datasets import load_dataset
from ..diagnostics.report import Table
from ..hss.compressed import compress_kernel
from ..kernels.gaussian import GaussianKernel
from ..parallel.strong_scaling import StrongScalingPoint, simulate_strong_scaling
from ..parallel.work_model import estimate_hss_work


@dataclass
class MeasuredShardPoint:
    """Measured wall-clock of one real process-sharded training run.

    This is the measured analogue of the paper's distributed runs: the
    full distributed build (per-shard H/HSS/ULV in the worker processes
    plus the in-process coupling merge) and one Woodbury solve over the
    collected shards, at a fixed process count.  Only the build runs in
    parallel: the solve's per-shard ULV sweeps run one after the other in
    the calling process, so ``solve_time`` — and the ``measured Np``
    total built from it — does not shrink with the process count.
    ``warm_build_time`` is a second fit on the *same* (already spawned)
    worker grid — the amortized cost a hyper-parameter sweep pays per
    configuration, with process startup excluded.
    """

    shards: int
    build_time: float = 0.0
    solve_time: float = 0.0
    #: second fit on the warm grid (zero process spawns)
    warm_build_time: float = 0.0

    @property
    def total_time(self) -> float:
        return self.build_time + self.solve_time


@dataclass
class Fig8Curve:
    """One dataset's strong-scaling curve."""

    dataset: str
    n: int
    dim: int
    max_rank: int
    points: List[StrongScalingPoint] = field(default_factory=list)
    #: real (measured) runs of the process-sharded path, per shard count
    measured_shards: List[MeasuredShardPoint] = field(default_factory=list)

    def factorization_times(self) -> Dict[int, float]:
        return {pt.cores: pt.factorization_time for pt in self.points}

    def speedup(self) -> Dict[int, float]:
        base = self.points[0]
        return {pt.cores: base.factorization_time / pt.factorization_time
                for pt in self.points}

    def measured_shard_times(self) -> Dict[int, float]:
        """Measured distributed build+solve seconds keyed by shard count."""
        return {pt.shards: pt.total_time for pt in self.measured_shards}


@dataclass
class Fig8Result:
    core_counts: Sequence[int]
    curves: List[Fig8Curve] = field(default_factory=list)

    def table(self) -> Table:
        table = Table(title="Figure 8 — modelled strong scaling of the ULV "
                            "factorization (seconds)")
        for curve in self.curves:
            row: Dict[str, object] = {
                "dataset": curve.dataset.upper(),
                "N": curve.n,
                "d": curve.dim,
                "max_rank": curve.max_rank,
            }
            for pt in curve.points:
                row[f"{pt.cores} cores"] = f"{pt.factorization_time:.3g}"
            for pt in curve.measured_shards:
                row[f"measured {pt.shards}p"] = f"{pt.total_time:.3g}"
                row[f"warm {pt.shards}p"] = f"{pt.warm_build_time:.3g}"
            table.rows.append(row)
        return table


def _measure_sharded_training(X_perm, tree, kernel, lam, opts: HSSOptions,
                              seed: int, shards: int) -> MeasuredShardPoint:
    """Time one real process-sharded build + in-process solve at
    ``shards`` processes.

    Fits twice on one solver: the first fit spawns the worker grid (cold
    start), the second reuses it warm, so the point records both the
    cold and the amortized per-configuration cost.
    """
    import numpy as np

    from ..distributed.solver import DistributedSolver

    point = MeasuredShardPoint(shards=int(shards))
    solver = DistributedSolver(shards=shards, hss_options=opts, seed=seed)
    try:
        t0 = time.perf_counter()
        solver.fit(X_perm, tree, kernel, lam)
        point.build_time = time.perf_counter() - t0
        rhs = np.random.default_rng(seed).standard_normal(tree.n)
        t1 = time.perf_counter()
        solver.solve(rhs)
        point.solve_time = time.perf_counter() - t1
        t2 = time.perf_counter()
        solver.fit(X_perm, tree, kernel, lam)  # warm: grid already spawned
        point.warm_build_time = time.perf_counter() - t2
    finally:
        solver.close()
    return point


def run_fig8_strong_scaling(
    datasets: Sequence[str] = ("mnist", "covtype", "hepmass", "susy"),
    n_train: int = 4096,
    core_counts: Sequence[int] = (32, 64, 128, 256, 512, 1024),
    hss_options: Optional[HSSOptions] = None,
    seed: int = 0,
    mnist_ambient_dim: Optional[int] = 196,
    measure_shard_counts: Sequence[int] = (),
) -> Fig8Result:
    """Build each dataset's HSS matrix and model its factorization scaling.

    ``measure_shard_counts`` (e.g. ``(1, 2)``) additionally times the real
    **process-sharded** path of :mod:`repro.distributed` at each process
    count — the measured side of the paper's distributed strong-scaling
    experiment, reported next to the cost model's prediction in
    :attr:`Fig8Curve.measured_shards` and extra table columns.
    """
    opts = hss_options if hss_options is not None else HSSOptions()
    result = Fig8Result(core_counts=tuple(int(c) for c in core_counts))
    for idx, name in enumerate(datasets):
        kwargs = {}
        if name == "mnist" and mnist_ambient_dim is not None:
            kwargs["ambient_dim"] = int(mnist_ambient_dim)
        data = load_dataset(name, n_train=n_train, n_test=64, seed=seed + idx,
                            **kwargs)
        clustering = cluster(data.X_train, method="two_means",
                             leaf_size=16, seed=seed)
        compressed = compress_kernel(clustering.X, clustering.tree,
                                     GaussianKernel(h=data.h),
                                     hss_options=opts, seed=seed)
        hss = compressed.hss
        work = estimate_hss_work(hss, n_random=compressed.report.random_vectors)
        points = simulate_strong_scaling(work, core_counts=core_counts)
        measured_shards = [
            _measure_sharded_training(clustering.X, clustering.tree,
                                      GaussianKernel(h=data.h), data.lam,
                                      opts, seed, p)
            for p in measure_shard_counts]
        result.curves.append(Fig8Curve(
            dataset=name, n=hss.n, dim=data.dim,
            max_rank=hss.max_rank, points=points,
            measured_shards=measured_shards))
    return result

#!/usr/bin/env python
"""Large-scale pipeline: how far can one node go with a compressed kernel?

This example mirrors the paper's Table 3 / Figure 7 story: sweep the
training set size and watch the memory of the compressed kernel matrix and
the factorization time grow quasi-linearly, while the dense kernel matrix
(shown for reference) grows quadratically and quickly becomes impossible.
It also models what the distributed (MPI) version of the solver would do on
32-1,024 cores using the calibrated cost model.

Run it with:  python examples/large_scale_pipeline.py [max_n]
"""

from __future__ import annotations

import sys
import time

from repro.clustering import cluster
from repro.datasets import load_dataset
from repro.diagnostics import Table
from repro.hmatrix import HMatrixSampler, build_hmatrix
from repro.hss import ULVFactorization, build_hss_randomized
from repro.kernels import GaussianKernel, KernelOperator
from repro.parallel import (estimate_hmatrix_work, estimate_hss_work,
                            estimate_sampling_work, simulate_strong_scaling)
from repro.runtime import resolve_runtime_config
from repro.utils.bytes import dense_matrix_bytes, megabytes


def main(max_n: int = 8192) -> None:
    sizes = [n for n in (1024, 2048, 4096, 8192, 16384, 32768) if n <= max_n]
    table = Table(title="Scaling of the compressed kernel solver (SUSY-like data)")
    last_build = None

    # One config resolution supplies every option object below, so a
    # ./repro.toml or REPRO_* env vars retune the whole sweep (the flag
    # layer only pins the rel_tol this example's table is calibrated for).
    config = resolve_runtime_config(flags={"hss.rel_tol": 0.1})

    for n in sizes:
        data = load_dataset("susy", n_train=n, n_test=256,
                            seed=config.dataset.seed)
        clustering = cluster(data.X_train, options=config.clustering)
        # The stages repro.hss.compress_kernel runs, called one by one so
        # the H matrix stays at hand for the cost model below.  The kernel
        # is compressed without the ridge shift; the ULV applies it.
        operator = KernelOperator(clustering.X, GaussianKernel(h=data.h))

        t0 = time.perf_counter()
        hmatrix = build_hmatrix(operator, clustering.X, clustering.tree,
                                config.hmatrix)
        sampler = HMatrixSampler(hmatrix, operator)
        hss, stats = build_hss_randomized(sampler, clustering.tree,
                                          config.hss, rng=0)
        construction = time.perf_counter() - t0

        t0 = time.perf_counter()
        factorization = ULVFactorization.factor(hss, lam=data.lam)
        factor_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        weights = factorization.solve(clustering.permute_labels(data.y_train))
        solve_time = time.perf_counter() - t0

        hss_stats = hss.statistics()
        table.add_row(
            N=n,
            hss_mb=round(hss_stats.memory_mb, 2),
            hmatrix_mb=round(megabytes(hmatrix.nbytes), 2),
            dense_mb=round(megabytes(dense_matrix_bytes(n)), 1),
            max_rank=hss_stats.max_rank,
            construction_s=round(construction, 2),
            factorization_s=round(factor_time, 3),
            solve_s=round(solve_time, 4),
        )
        last_build = (hss, stats, hmatrix)
        del weights

    print(table.render())

    # Model the distributed factorization of the largest problem (Figure 8).
    hss, stats, hmatrix = last_build
    work = estimate_hss_work(hss, n_random=stats.random_vectors)
    sampling = estimate_sampling_work(hss.n, stats.random_vectors, hmatrix)
    points = simulate_strong_scaling(
        work, core_counts=(32, 64, 128, 256, 512, 1024),
        n_sampling_sweeps=stats.rounds,
        hmatrix_flops=estimate_hmatrix_work(hmatrix),
        hmatrix_sampling_flops=sampling["hmatrix"])
    scaling = Table(title=f"Modelled distributed factorization time, N={hss.n} "
                          "(strong scaling, Figure 8)")
    for pt in points:
        scaling.add_row(cores=pt.cores,
                        factorization_s=f"{pt.factorization_time:.3g}",
                        efficiency=f"{pt.parallel_efficiency:.2f}")
    print()
    print(scaling.render())


if __name__ == "__main__":
    main(max_n=int(sys.argv[1]) if len(sys.argv) > 1 else 8192)

"""Parallel training path: compression + ULV wall-clock vs worker count.

The paper's Table 4 / Figure 8 story is that H-matrix assembly, HSS
compression and ULV factorization parallelize within each cluster-tree
level.  This benchmark runs the *real* threaded training path — H-matrix
assembly, H-accelerated randomized HSS compression and ULV factorization
over one shared :class:`repro.parallel.BlockExecutor` — serially and with
multiple workers on the same problem, asserts that the two runs produce
bitwise-identical factorizations, and records the serial/parallel ratio.
The ratio is recorded, not asserted: the perf ledger measures threads at
0.3-0.6x of serial at these sizes (``parallel.speedup_w2``), and since the
admissible H blocks are compressed wave by wave with array operations
there is no per-leaf fan-out left for threads to win on.

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_parallel_training.py -q
"""

from __future__ import annotations

import os

# Pin BLAS to one thread per call so the workers=1 baseline is genuinely
# serial and the multi-worker run does not oversubscribe (threads x BLAS
# threads).  Must happen before NumPy loads its BLAS; effective when this
# file runs standalone (as in CI), harmless otherwise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import time

import numpy as np
import pytest
from _harness import write_bench_json
from conftest import scaled

from repro.clustering import cluster
from repro.config import HMatrixOptions, HSSOptions
from repro.datasets import standardize, susy_like
from repro.hmatrix import HMatrixSampler, build_hmatrix
from repro.hss import ULVFactorization, build_hss_randomized
from repro.kernels import GaussianKernel, ShiftedKernelOperator
from repro.parallel import BlockExecutor, default_worker_count

#: leaf size chosen larger than the paper's 16 so each per-level task is a
#: BLAS-sized chunk of work (threads need GIL-released work to win).
LEAF_SIZE = 128


@pytest.fixture(scope="module")
def training_problem():
    n = scaled(2048)
    X, y = susy_like(n, seed=0)
    X = standardize(X)
    result = cluster(X, method="two_means", leaf_size=LEAF_SIZE, seed=0)
    operator = ShiftedKernelOperator(result.X, GaussianKernel(h=1.0), 4.0)
    hss_opts = HSSOptions(leaf_size=LEAF_SIZE, rel_tol=1e-5, initial_samples=128)
    h_opts = HMatrixOptions(leaf_size=LEAF_SIZE, rel_tol=1e-5)
    return operator, result.X, result.tree, hss_opts, h_opts


def _train_once(problem, workers: int):
    """One full training run; returns (seconds, hss, ulv)."""
    operator, X_perm, tree, hss_opts, h_opts = problem
    with BlockExecutor(workers=workers) as ex:
        t0 = time.perf_counter()
        hmatrix = build_hmatrix(operator, X_perm, tree, options=h_opts,
                                executor=ex)
        sampler = HMatrixSampler(hmatrix, operator)
        hss, _ = build_hss_randomized(sampler, tree, options=hss_opts, rng=0,
                                      executor=ex)
        ulv = ULVFactorization(hss, executor=ex)
        elapsed = time.perf_counter() - t0
    return elapsed, hss, ulv


def _node_arrays(hss):
    for data in hss.node_data:
        for a in (data.D, data.U, data.V, data.B12, data.B21):
            if a is not None:
                yield a


def test_parallel_training_bitwise(benchmark, training_problem):
    parallel_workers = min(default_worker_count(), 4)

    # Warm-up run (BLAS initialisation, page faults) kept out of the timings.
    _train_once(training_problem, workers=1)

    # Best-of-3 per configuration to shave off scheduler noise.
    serial_time, hss_serial, ulv_serial = min(
        (_train_once(training_problem, workers=1) for _ in range(3)),
        key=lambda r: r[0])
    parallel_time, hss_parallel, ulv_parallel = min(
        (_train_once(training_problem, workers=parallel_workers)
         for _ in range(3)),
        key=lambda r: r[0])

    benchmark.extra_info["serial_s"] = round(serial_time, 4)
    benchmark.extra_info["parallel_s"] = round(parallel_time, 4)
    benchmark.extra_info["workers"] = parallel_workers
    benchmark.extra_info["speedup"] = round(serial_time / parallel_time, 3)
    write_bench_json(
        "parallel_training",
        results={"serial_s": round(serial_time, 4),
                 "parallel_s": round(parallel_time, 4),
                 "speedup": round(serial_time / parallel_time, 3)},
        sizes={"n_train": int(hss_serial.n), "leaf_size": LEAF_SIZE},
        workers=parallel_workers)
    print(f"\nserial={serial_time:.3f}s  parallel({parallel_workers}w)="
          f"{parallel_time:.3f}s  speedup={serial_time / parallel_time:.2f}x")

    # Parallel and serial factorizations must be bitwise identical.
    for a, b in zip(_node_arrays(hss_serial), _node_arrays(hss_parallel)):
        assert np.array_equal(a, b)
    rhs = np.random.default_rng(1).standard_normal(hss_serial.n)
    assert np.array_equal(ulv_serial.solve(rhs), ulv_parallel.solve(rhs))

    # Record one timed run for the pytest-benchmark JSON.
    benchmark.pedantic(lambda: _train_once(training_problem,
                                           workers=parallel_workers),
                       rounds=1, iterations=1)

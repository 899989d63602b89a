"""One dense-block evaluator: in place, row tile by row tile, same bits.

Every block of kernel values is formed by ``Kernel.from_inner_products``
overwriting the GEMM output its caller hands over.  These tests pin

* its values bit for bit against the out-of-place formulas of
  ``kernel_oracle`` — radial and inner-product kernels; rectangular and
  symmetric matrices, extracted blocks, ragged row segments, duplicate
  points, operator products, prediction rows; tiny, ragged and
  multi-chunk row counts; float32 and strided input;
* that caller threads sharing one engine lose or cross no score;
* that every registered kernel, radial or not, predicts after it fits;
* what a prediction call allocates (``tracemalloc``): one chunk of kernel
  rows plus two row tiles, not a chunk per batch plus full-size
  temporaries;
* that importing the serving stack leaves ``scipy.cluster``,
  ``scipy.spatial`` and ``scipy.special`` unloaded.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import kernel_oracle as oracle
import repro
from repro.datasets import gaussian_mixture
from repro.kernels import (KERNEL_REGISTRY, KernelOperator, LinearKernel,
                           PolynomialKernel, get_kernel)
from repro.kernels import base as kernel_base
from repro.krr import KernelRidgeClassifier
from repro.serving import PredictionEngine

RADIAL = sorted(name for name in KERNEL_REGISTRY
                if name not in ("polynomial", "linear"))


def _kernel(name):
    return get_kernel(name, h=0.9)


def _points(n, d=5, seed=0):
    return np.random.default_rng(seed).standard_normal((n, d))


@pytest.fixture(params=[None, 2000], ids=["shipped-tiles", "2000-byte-tiles"])
def tile_budget(request, monkeypatch):
    """The shipped tile budget, and one that cuts the blocks below into
    many tiles with a ragged last one (6 rows of 41 columns, 250 entries of
    a 1-D segment block)."""
    if request.param is not None:
        monkeypatch.setattr(kernel_base, "TILE_BYTES", request.param)


def _equal(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(a, b), np.max(np.abs(a - b))


@pytest.mark.parametrize("name", RADIAL)
@pytest.mark.parametrize("m", [1, 23, 300])
def test_rectangular_matrix_matches_the_oracle_bitwise(name, m, tile_budget):
    k = _kernel(name)
    X, Y = _points(m, seed=1), _points(41, seed=2)
    _equal(k.matrix(X, Y), oracle.matrix(k, X, Y))


@pytest.mark.parametrize("name", RADIAL)
def test_symmetric_matrix_has_an_exact_diagonal(name, tile_budget):
    k = _kernel(name)
    X = _points(45)
    K = k.matrix(X)
    _equal(K, oracle.matrix(k, X))
    assert np.all(np.diag(K) == k.diagonal_value())


@pytest.mark.parametrize("name", RADIAL)
def test_duplicate_points_clip_to_zero_distance(name, tile_budget):
    k = _kernel(name)
    X = np.repeat(_points(6, d=3) * 1e3, 4, axis=0)
    _equal(k.matrix(X), oracle.matrix(k, X))
    _equal(k.matrix(X, X[::-1].copy()), oracle.matrix(k, X, X[::-1].copy()))
    # Coincident distinct rows see the clip, not a negative distance.
    assert np.all(k.matrix(X[:4], X[:4].copy()) <= k.diagonal_value())


@pytest.mark.parametrize("kernel", [PolynomialKernel(1, 0.3, 0.5),
                                    PolynomialKernel(2, 0.5, 1.0),
                                    PolynomialKernel(3, 0.7, 2.0),
                                    LinearKernel()], ids=repr)
def test_inner_product_kernels_match_the_oracle_bitwise(kernel, tile_budget):
    X, Y = _points(300, seed=1), _points(41, seed=2)
    _equal(kernel.matrix(X, Y), oracle.matrix(kernel, X, Y))
    _equal(kernel.matrix(X), oracle.matrix(kernel, X))
    _equal(kernel.block(X, [4, 4, 9], [0, 299]),
           oracle.matrix(kernel, X[[4, 4, 9]], X[[0, 299]]))


@pytest.mark.parametrize("name", RADIAL)
def test_float32_and_strided_input(name):
    k = _kernel(name)
    X = _points(60, d=6, seed=3)
    X32 = X.astype(np.float32)
    _equal(k.matrix(X32), oracle.matrix(k, X32))
    _equal(k.matrix(X32[:20], X32), oracle.matrix(k, X32[:20], X32))
    strided, fortran = X[::3], np.asfortranarray(X)
    _equal(k.matrix(strided), oracle.matrix(k, strided))
    _equal(k.matrix(fortran[:9], strided), oracle.matrix(k, fortran[:9], strided))


@pytest.mark.parametrize("name", RADIAL)
def test_extracted_blocks_and_row_segments(name, tile_budget):
    k = _kernel(name)
    X = _points(400, seed=4)
    rows, cols = np.array([3, 3, 17, 40, 2]), np.arange(0, 400, 9)
    _equal(k.block(X, rows, cols), oracle.matrix(k, X[rows], X[cols]))
    op = KernelOperator(X, k)
    sq = oracle.sq_norms(X)
    _equal(op.block(rows, cols),
           oracle.from_inner_products(k, X[rows] @ X[cols].T,
                                      sq[rows][:, None], sq[cols][None, :]))
    seg_rows = np.array([0, 7, 7, 399, 20])
    starts = np.array([0, 5, 150, 390, 19])
    lengths = np.array([1, 120, 200, 10, 3])
    _equal(op.row_segments(seg_rows, starts, lengths),
           oracle.row_segments(k, X, seg_rows, starts, lengths))


@pytest.mark.parametrize("name", RADIAL)
def test_operator_products_match_the_oracle(name, tile_budget):
    k = _kernel(name)
    X = _points(70, seed=5)
    V = _points(70, d=3, seed=6)
    _equal(KernelOperator(X, k, block_size=32).matmat(V),
           oracle.decision_function(k, X, X, V, block_size=32))
    tiled = KernelOperator(X, k, block_size=32, col_tile=25).matmat(V)
    expected = np.empty_like(V)
    for r0 in range(0, 70, 32):
        parts = [oracle.matrix(k, X[r0:r0 + 32], X[c0:c0 + 25]) @ V[c0:c0 + 25]
                 for c0 in range(0, 70, 25)]
        acc = parts[0]
        for part in parts[1:]:
            acc = acc + part
        expected[r0:r0 + 32] = acc
    _equal(tiled, expected)


@pytest.fixture(scope="module")
def binary_model():
    X, y = gaussian_mixture(n=400, d=4, n_components=4, seed=0)
    clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="hss",
                                clustering="two_means", seed=0).fit(X, y)
    X_test, _ = gaussian_mixture(n=700, d=4, n_components=4, seed=1)
    return clf, X_test


@pytest.mark.parametrize("chunk", [256, 1024])
@pytest.mark.parametrize("m", [1, 37, 700])
def test_engine_scores_equal_decision_function_bitwise(binary_model, chunk, m,
                                                        tile_budget):
    clf, X_test = binary_model
    rows = X_test[:m]
    reference = clf.decision_function(rows, block_size=chunk)
    _equal(reference, oracle.decision_function(
        clf.kernel, rows, clf.X_train_, clf.weights_, block_size=chunk))
    with PredictionEngine(clf, batch_size=chunk) as engine:
        _equal(engine.decision_many(rows), reference)


def test_threaded_batches_write_every_score_and_cache_entry(binary_model):
    """Caller threads sharing one engine score into its cache and stats:
    under a tiny switch interval, with more callers than cores and
    repeated queries, nothing is lost or crossed.  One-row batches make
    every score independent of which thread missed which rows, so each
    caller must get the serial engine's bits."""
    clf, X_test = binary_model
    queries = np.concatenate([X_test[:300], X_test[:40]])
    expected = PredictionEngine(clf, batch_size=1, cache_size=1000
                                ).decision_many(queries)
    callers = 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with PredictionEngine(clf, batch_size=1, cache_size=1000,
                              cache_rows=True) as engine:
            with ThreadPoolExecutor(max_workers=callers) as pool:
                results = list(pool.map(engine.decision_many,
                                        [queries] * callers, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for scores in results:
        _equal(scores, expected)
    stats = engine.stats
    assert len(engine.cache) == 300
    assert stats.queries == callers * queries.shape[0]
    assert stats.cache_hits + stats.cache_misses == stats.queries
    assert 300 <= stats.cache_misses == stats.rows_computed == stats.batches
    for i in (0, 123, 299):
        np.testing.assert_allclose(
            engine.cached_row(queries[i]),
            clf.kernel.matrix(queries[i:i + 1], clf.X_train_)[0],
            rtol=1e-12, atol=1e-12)


def test_decision_function_rejects_a_bad_block_size(binary_model):
    clf, X_test = binary_model
    with pytest.raises(ValueError, match="block_size"):
        clf.decision_function(X_test, block_size=0)


KERNEL_PARAMS = {"gaussian": {"h": 1.0}, "laplacian": {"h": 1.0},
                 "matern32": {"h": 1.0}, "matern52": {"h": 1.0},
                 "polynomial": {"degree": 2, "gamma": 0.5, "coef0": 1.0},
                 "linear": {}}


@pytest.mark.parametrize("solver", ["dense", "hss"])
@pytest.mark.parametrize("name", sorted(KERNEL_REGISTRY))
def test_every_kernel_predicts_after_it_fits(name, solver):
    X, y = gaussian_mixture(n=160, d=3, n_components=4, seed=2)
    X_test, _ = gaussian_mixture(n=50, d=3, n_components=4, seed=3)
    kernel = get_kernel(name, **KERNEL_PARAMS[name])
    clf = KernelRidgeClassifier(kernel=kernel, lam=1.0, solver=solver,
                                clustering="two_means", seed=0).fit(X, y)
    scores = kernel.matrix(X_test, clf.X_train_) @ clf.weights_
    expected = np.where(scores >= 0.0, 1.0, -1.0)
    np.testing.assert_array_equal(clf.predict(X_test), expected)
    with PredictionEngine(clf) as engine:
        np.testing.assert_array_equal(engine.predict_many(X_test), expected)


def _peak_bytes(fn) -> int:
    fn()  # warm: first-call allocations are not the call's working set
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def wide_model():
    X, y = gaussian_mixture(n=2048, d=8, n_components=4, seed=0)
    clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="hss",
                                clustering="two_means", seed=0).fit(X, y)
    X_test, _ = gaussian_mixture(n=1024, d=8, n_components=4, seed=1)
    return clf, X_test


@pytest.mark.parametrize("chunk", [256, 1024])
def test_prediction_allocates_one_chunk_and_two_tiles(wide_model, chunk):
    clf, X_test = wide_model
    n = clf.X_train_.shape[0]
    bound = chunk * n * 8 + 2 * kernel_base.TILE_BYTES + (64 << 10)
    if chunk == 256:
        engine = PredictionEngine(clf, batch_size=256, cache_size=0)
        peak = _peak_bytes(lambda: engine.decision_many(X_test))
    else:
        peak = _peak_bytes(lambda: clf.decision_function(X_test,
                                                         block_size=1024))
    assert peak <= bound, f"peak {peak / 2**20:.2f} MiB > {bound / 2**20:.2f} MiB"


def test_serving_imports_skip_the_scipy_clustering_stack():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = ("import sys\n"
            "import repro.krr, repro.serving, repro.server\n"
            "print(' '.join(m for m in ('scipy.cluster', 'scipy.spatial',"
            " 'scipy.special') if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "", f"loaded at import: {out.strip()}"

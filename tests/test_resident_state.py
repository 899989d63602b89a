"""What a fitted model keeps resident, and what it drops.

The H matrix exists for one job: its fast product drives the randomized
HSS sampling inside :func:`repro.hss.compress_kernel`.  Nothing after the
build reads it, so it is a temporary of that call:

* every H matrix built is dead before the ULV factorization starts — on a
  solver fit, on an h-move and in a shard worker's fit — while the block
  cluster tree an h-move reuses stays;
* what a fitted hss model retains (``tracemalloc``) is its HSS + ULV
  factors, its training points and its block tree, plus a fixed slack
  smaller than the H matrix it no longer holds.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import pytest

from repro.clustering import cluster
from repro.config import HMatrixOptions, HSSOptions
from repro.datasets import gaussian_mixture
from repro.distributed.worker import FitSpec, WorkerConfig, _ShardState
from repro.hmatrix import BlockClusterTree, cluster_geometries
from repro.hmatrix import build as hmatrix_build
from repro.hss import ULVFactorization
from repro.kernels import GaussianKernel
from repro.krr import KernelRidgeClassifier
from repro.serving import kernel_to_spec

#: what a fitted model may retain beyond its HSS + ULV factors, training
#: points and block tree — cluster tree, weights, targets, reports and
#: object overhead.  Calibrated on the fixture of the tracemalloc test:
#: that model retains 0.7 MB beyond those, and its H matrix (each
#: off-diagonal block stored once) is 2.4 MB
SLACK = 1 << 20


def _points(n):
    return gaussian_mixture(n=n, d=3, n_components=4, separation=3.0,
                            noise=0.7, seed=0)


@pytest.fixture
def h_matrices(monkeypatch):
    """``(built, alive)``: a weak reference to every H matrix built, and
    for every ULV factorization started, how many of them were alive."""
    built, alive = [], []
    build, init = hmatrix_build.build_hmatrix, ULVFactorization.__init__

    def traced_build(*args, **kwargs):
        hmatrix = build(*args, **kwargs)
        built.append(weakref.ref(hmatrix))
        return hmatrix

    def traced_init(self, *args, **kwargs):
        alive.append(sum(ref() is not None for ref in built))
        init(self, *args, **kwargs)

    monkeypatch.setattr(hmatrix_build, "build_hmatrix", traced_build)
    monkeypatch.setattr(ULVFactorization, "__init__", traced_init)
    return built, alive


def test_the_h_matrix_dies_with_the_build_of_a_fit_and_an_h_move(h_matrices):
    built, alive = h_matrices
    X, y = _points(256)
    model = KernelRidgeClassifier(h=1.0, lam=1.0, solver="hss", seed=0,
                                  shards=1).fit(X, y)
    assert len(built) == 1 and alive == [0]
    block_tree = model.solver_.block_tree_
    model.refit_kernel(2.0)
    assert len(built) == 2 and alive == [0, 0]
    assert model.solver_.block_tree_ is block_tree is not None


def test_the_h_matrix_dies_with_the_build_of_a_shard_fit(h_matrices):
    built, alive = h_matrices
    X, _ = _points(256)
    clustering = cluster(X, method="two_means", leaf_size=16, seed=0)
    config = WorkerConfig(shard_id=0, boundaries=(0, X.shape[0]),
                          owned_pairs=())
    state = _ShardState(config, clustering.X, clustering.tree)

    def spec(h):
        return FitSpec(kernel_spec=kernel_to_spec(GaussianKernel(h=h)),
                       lam=1.0, hss_options=HSSOptions(),
                       hmatrix_options=HMatrixOptions(),
                       use_hmatrix_sampling=True, seed=0,
                       coupling_rel_tol=0.1, coupling_max_rank=None)

    state.fit(spec(1.0))
    assert len(built) == 1 and alive == [0]
    block_tree = state.block_tree
    state.fit(spec(2.0))                # a warm h-move on the worker
    assert len(built) == 2 and alive == [0, 0]
    assert state.block_tree is block_tree is not None


def test_a_shard_worker_keeps_only_its_block_tree(monkeypatch):
    """A worker ships its shard's factors back in the ``fit`` reply and
    keeps none of them: once the reply is sent, no ULV factorization it
    built is alive and its state is its spawn-time data plus the block
    cluster tree the next warm fit reuses."""
    factorizations, init = [], ULVFactorization.__init__

    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        factorizations.append(weakref.ref(self))

    monkeypatch.setattr(ULVFactorization, "__init__", traced_init)
    X, _ = _points(256)
    clustering = cluster(X, method="two_means", leaf_size=16, seed=0)
    config = WorkerConfig(shard_id=0, boundaries=(0, X.shape[0]),
                          owned_pairs=())
    state = _ShardState(config, clustering.X, clustering.tree)
    _, arrays = state.fit(FitSpec(
        kernel_spec=kernel_to_spec(GaussianKernel(h=1.0)), lam=1.0,
        hss_options=HSSOptions(), hmatrix_options=HMatrixOptions(),
        use_hmatrix_sampling=True, seed=0, coupling_rel_tol=0.1,
        coupling_max_rank=None))
    assert "ulv.meta" in arrays and "hss.n_nodes" in arrays
    del arrays
    gc.collect()
    assert len(factorizations) == 1 and factorizations[0]() is None
    assert set(vars(state)) == {"config", "X", "tree", "block_tree"}
    assert state.block_tree is not None


def _retained(make):
    """``(obj, bytes)``: what ``make()`` returns and the traced memory it
    keeps alive once everything else it allocated is released."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        obj = make()
        gc.collect()
        return obj, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_a_fitted_model_retains_its_factors_and_not_the_h_matrix():
    X, y = _points(1536)

    def fit():
        return KernelRidgeClassifier(h=1.0, lam=1.0, solver="hss", seed=0,
                                     shards=1).fit(X, y)

    fit()       # module-level state created on first use is not the model's
    model, retained = _retained(fit)
    solver, opts = model.solver_, HMatrixOptions()
    tree = model.clustering_.tree
    _, block_tree = _retained(lambda: BlockClusterTree(
        tree, cluster_geometries(model.X_train_, tree),
        eta=opts.admissibility_eta, leaf_size=opts.leaf_size,
        criterion=opts.admissibility))
    resident = (solver.hss_.nbytes + solver.factorization_.factor_bytes
                + model.X_train_.nbytes + block_tree)
    assert solver.report.hmatrix_memory_mb * 2 ** 20 > 2 * SLACK
    assert retained <= resident + SLACK, (retained, resident)

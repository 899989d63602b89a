"""The lifecycle contract, once for every estimator and solver.

``fit``, ``refit``, ``refit_kernel``, ``partial_fit`` and ``recompress``
are written once in :mod:`repro.krr.estimator`; the three estimators only
encode their targets.  So the contract is stated once too, over
estimator ∈ {binary, one-vs-all, regressor} × solver ∈ {dense, hss}:

* every verb ends bitwise equal to the cold fit of the state it reached;
* a solver failure inside any verb leaves the model's hyper-parameters,
  weights and stored targets untouched, and its solver at the model's
  state;
* a λ-move refactors from the resident factors — after a fit, a reload or
  streamed updates — and is bitwise the cold factorization all the same;
  the factors it started from keep solving and are released afterwards;
* non-finite generators are refused by the cold and the warm factorization
  alike, leaving the previous factors and weights in place;

plus what makes the h-move cheap without a second code path:

* ``compress_kernel(block_tree=...)`` is bitwise a cold compression, and a
  block tree recorded for another tree or other options is rebuilt;
* on a warm ``shards = 2`` grid an h-move spawns nothing and equals a cold
  fit on the same grid.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from conftest import assert_same_hss, cold_refactor, same_hmatrix_blocks

from repro.clustering import cluster
from repro.config import HMatrixOptions
from repro.datasets import gaussian_mixture
from repro.hmatrix import build_hmatrix
from repro.hss import ULVFactorization, compress_kernel
from repro.kernels import GaussianKernel, KernelOperator
from repro.krr import (KernelRidgeClassifier, KernelRidgeRegressor,
                       OneVsAllClassifier)
from repro.krr.solvers import KernelSystemSolver

ESTIMATORS = {"binary": KernelRidgeClassifier,
              "one-vs-all": OneVsAllClassifier,
              "regressor": KernelRidgeRegressor}
N_ADD = 12
REMOVE = np.array([3, 40, 41, 200])


def _labels(kind: str, X: np.ndarray, y_binary: np.ndarray) -> np.ndarray:
    if kind == "binary":
        return y_binary
    if kind == "one-vs-all":
        return (y_binary > 0).astype(int) + (X[:, 0] > 0).astype(int)
    return np.sin(X[:, 0]) + 0.25 * y_binary


@pytest.fixture(scope="module")
def points():
    X, y = gaussian_mixture(n=260 + N_ADD, d=3, n_components=4,
                            separation=3.0, noise=0.7, seed=0)
    return X, y


@pytest.fixture(params=sorted(ESTIMATORS))
def kind(request):
    return request.param


@pytest.fixture(params=["dense", "hss"])
def solver(request):
    return request.param


@pytest.fixture
def problem(points, kind):
    """``(X, y, X_add, y_add)`` with the targets of this estimator kind."""
    X, y_binary = points
    y = _labels(kind, X, y_binary)
    return X[:-N_ADD], y[:-N_ADD], X[-N_ADD:], y[-N_ADD:]


def _make(kind: str, solver: str, h: float = 1.0, lam: float = 1.0):
    # shards=1: the bitwise claims are the serial solvers', whatever
    # REPRO_SHARDS says
    return ESTIMATORS[kind](h=h, lam=lam, solver=solver, seed=0, shards=1)


def test_every_verb_ends_at_the_cold_fit_of_its_state(kind, solver, problem):
    X, y, X_add, y_add = problem

    def cold(h, lam, X_fit=X, y_fit=y):
        return _make(kind, solver, h=h, lam=lam).fit(X_fit, y_fit)

    model = cold(1.0, 1.0)

    model.refit(2.0)
    assert model.lam == 2.0
    np.testing.assert_array_equal(model.weights_, cold(1.0, 2.0).weights_)
    if solver == "hss":
        assert model.solver_.compression_count == 1

    model.refit_kernel(1.7, lam=0.5)
    assert (model.h, model.lam, model.kernel.h) == (1.7, 0.5, 1.7)
    np.testing.assert_array_equal(model.weights_, cold(1.7, 0.5).weights_)
    if solver == "hss":
        assert model.solver_.compression_count == 2

    # the effective training set, from the inputs alone: the permuted
    # rows minus the removed ones, then the appended rows
    perm = model.clustering_.perm
    X_eff = np.vstack([np.delete(X[perm], REMOVE, axis=0), X_add])
    y_eff = np.concatenate([np.delete(y[perm], REMOVE), y_add])
    model.partial_fit(X_add, y_add, remove=REMOVE)
    np.testing.assert_array_equal(model.X_train_, X_eff)
    assert model.solver_.stream.active
    streamed = cold(1.7, 0.5, X_eff, y_eff)
    if solver == "dense":
        # exact algebra; the hss bound at a pinned compression tolerance
        # is tests/test_streaming.py's
        np.testing.assert_allclose(model.decision_function(X[:32]),
                                   streamed.decision_function(X[:32]),
                                   rtol=0, atol=1e-8)

    model.recompress()
    assert model.solver_.stream is None and model.stream_info_ is None
    np.testing.assert_array_equal(model.weights_, streamed.weights_)
    np.testing.assert_array_equal(model.predict(X[:32]),
                                  streamed.predict(X[:32]))


VERBS = {
    "fit": lambda m, p: m.fit(p[0], p[1]),
    "refit": lambda m, p: m.refit(4.0),
    "refit_kernel": lambda m, p: m.refit_kernel(2.5, lam=4.0),
    "partial_fit": lambda m, p: m.partial_fit(p[2], p[3], remove=REMOVE),
    "recompress": lambda m, p: m.recompress(),
}


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_a_failed_verb_leaves_the_model_untouched(kind, solver, problem, verb,
                                                  monkeypatch):
    X, y, X_add, y_add = problem

    def fitted():
        model = _make(kind, solver).fit(X, y)
        if verb == "recompress":
            model.partial_fit(X_add, y_add)
        return model

    def boom(self, y):
        raise FloatingPointError("injected solver failure")

    def fail(model):
        with monkeypatch.context() as patch:
            patch.setattr(KernelSystemSolver, "solve", boom)
            with pytest.raises(FloatingPointError, match="injected"):
                VERBS[verb](model, problem)
        return model

    model = fitted()
    before = dict(h=model.h, lam=model.lam, kernel=model.kernel,
                  weights=model.weights_, targets=model._targets_perm,
                  X_train=model.X_train_, solver=model.solver_,
                  scores=model.decision_function(X[:16]))
    frozen = (model.weights_.copy(), model._targets_perm.copy())
    fail(model)

    assert (model.h, model.lam) == (before["h"], before["lam"])
    for name, attr in (("kernel", "kernel"), ("weights", "weights_"),
                       ("targets", "_targets_perm"), ("X_train", "X_train_"),
                       ("solver", "solver_")):
        assert getattr(model, attr) is before[name], name
    np.testing.assert_array_equal(model.weights_, frozen[0])
    np.testing.assert_array_equal(model._targets_perm, frozen[1])
    np.testing.assert_array_equal(model.decision_function(X[:16]),
                                  before["scores"])
    if verb == "partial_fit":
        # the half-applied stream update was rolled back with it
        assert not model.solver_.stream.active

    # the solver is back at the model's state too: a streamed update lands
    # where it lands on a model the verb never touched, and a λ-move to the
    # model's own λ gives back the pre-failure weights
    np.testing.assert_array_equal(
        model.partial_fit(remove=REMOVE).weights_,
        fitted().partial_fit(remove=REMOVE).weights_)
    again = fail(fitted())
    np.testing.assert_array_equal(again.refit(again.lam).weights_, frozen[0])


def test_lam_move_from_resident_factors_is_bitwise_cold(kind, problem,
                                                        tmp_path, monkeypatch):
    X, y, X_add, y_add = problem
    loaded = _make(kind, "hss").fit(X, y)
    if kind != "regressor":     # which has no artifact kind
        # after a reload the resident factors are the artifact's
        loaded.save(str(tmp_path / "model.npz"))
        loaded = type(loaded).load(str(tmp_path / "model.npz"))
    resident = loaded.solver_.factorization_
    assert resident.hss is loaded.solver_.hss_
    loaded.refit(2.0)
    after = loaded.solver_.factorization_
    root = after.hss.tree.root
    assert all(new.u_hat is old.u_hat for i, (new, old) in enumerate(
        zip(after._factors, resident._factors)) if i != root)
    np.testing.assert_array_equal(
        loaded.weights_, _make(kind, "hss", lam=2.0).fit(X, y).weights_)

    # after streamed updates: the same weights as a refit that shares nothing
    streamed = [_make(kind, "hss").fit(X, y) for _ in range(2)]
    for twin in streamed:
        twin.partial_fit(X_add, y_add, remove=REMOVE)
    streamed[0].refit(0.5)
    with monkeypatch.context() as patch:
        patch.setattr(ULVFactorization, "refactor", cold_refactor)
        streamed[1].refit(0.5)
    assert streamed[0].solver_.stream.active
    np.testing.assert_array_equal(streamed[0].weights_, streamed[1].weights_)


def test_replaced_factors_keep_solving_and_are_then_released(points):
    X, y = points
    model = _make("binary", "hss").fit(X, y)
    old = model.solver_.factorization_
    rhs = np.random.default_rng(3).normal(size=(X.shape[0], 2))
    answer = old.solve(rhs)

    # a serving generation built on `old` answers during and after the swap
    new = old.refactor(2.0)
    np.testing.assert_array_equal(old.solve(rhs), answer)
    assert not np.array_equal(new.solve(rhs), answer)
    del new

    ref = weakref.ref(old)
    del old
    model.refit(2.0)
    gc.collect()
    assert ref() is None
    assert model.solver_.factorization_.lam == 2.0


@pytest.mark.parametrize("generator", ["D", "B12"])
def test_non_finite_generators_fail_loudly_cold_and_warm(points, generator):
    X, y = points
    model = _make("binary", "hss").fit(X, y)
    solver = model.solver_
    tree, data = solver.hss_.tree, solver.hss_.node_data
    node = tree.leaves()[2] if generator == "D" \
        else tree.node(tree.leaves()[2]).parent
    before = (solver.factorization_, model.weights_, model.lam)
    frozen = model.weights_.copy()

    getattr(data[node], generator)[0, 0] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        ULVFactorization.factor(solver.hss_, lam=1.0)
    with pytest.raises(ValueError, match="infs or NaNs"):
        solver.factorization_.refactor(2.0)
    with pytest.raises(ValueError, match="infs or NaNs"):
        model.refit(2.0)

    assert (solver.factorization_, model.weights_, model.lam) == before
    np.testing.assert_array_equal(model.weights_, frozen)
    with pytest.raises(ValueError, match="infs or NaNs"):
        solver.factorization_.solve(np.full(X.shape[0], np.inf))


def test_bad_input_is_refused_the_same_way_by_every_estimator(kind, problem):
    with pytest.raises(ValueError, match="lam must be a non-negative"):
        ESTIMATORS[kind](lam=-1.0)
    with pytest.raises(ValueError, match="h must be a positive"):
        ESTIMATORS[kind](h=0.0)
    X, y, _, _ = problem
    model = _make(kind, "dense").fit(X, y)
    with pytest.raises(ValueError, match="X_test and X_train must have the "
                                         "same number of columns"):
        model.decision_function(X[:4, :2])
    with pytest.raises(ValueError):
        model.partial_fit(X[:4], y[:3])


@pytest.mark.parametrize("entry", ["constructor", "config"])
def test_shard_dispatch_is_the_same_at_both_entry_points(points, entry,
                                                         monkeypatch):
    """Only an *explicit* shard count can refuse a non-hss solver."""
    from repro.runtime import resolve_runtime_config

    X, y = points

    def train(shards=None):
        if entry == "constructor":
            clf = KernelRidgeClassifier(solver="dense", shards=shards)
        else:
            flags = {"solver.name": "dense"}
            if shards is not None:
                flags["distributed.shards"] = shards
            clf = KernelRidgeClassifier.from_config(
                resolve_runtime_config(flags=flags, env={}),
                h=1.0, lam=1.0)
        return clf.fit(X, y)

    reference = train().weights_
    monkeypatch.setenv("REPRO_SHARDS", "2")
    np.testing.assert_array_equal(train().weights_, reference)
    with pytest.raises(ValueError, match="requires the 'hss' solver"):
        train(shards=2)


def test_the_pipeline_layer_stays_deleted():
    """The estimator is the one lifecycle entry point: no pipeline class,
    pipeline report or report-flattening store keyword comes back."""
    import importlib.util
    import inspect

    import repro
    import repro.krr
    import repro.serving
    from repro.krr.solvers import build_training_solver
    from repro.serving import ModelStore

    for module in (repro, repro.krr, repro.serving):
        names = set(module.__all__) | set(dir(module))
        assert not [name for name in names if "Pipeline" in name
                    or name.endswith("_from_report")], module.__name__
    assert importlib.util.find_spec("repro.krr.pipeline") is None
    assert "report" not in inspect.signature(ModelStore.save).parameters
    assert "grid" not in inspect.signature(build_training_solver).parameters


# ---------------------------------------------------------------------------
# block-tree reuse: what an h-move keeps, decided from the tree's own fields
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def clustered(points):
    X, _ = points
    return cluster(X, method="two_means", leaf_size=16, seed=0)


@pytest.fixture(scope="module")
def first(clustered):
    return compress_kernel(clustered.X, clustered.tree, GaussianKernel(h=1.5),
                           seed=0)


def _assert_same_hmatrix(X, tree, h, block_tree, options=None):
    """The H matrix assembled on ``block_tree`` is bitwise the cold one."""
    operator = KernelOperator(X, GaussianKernel(h=h))
    assert same_hmatrix_blocks(
        build_hmatrix(operator, X, tree, options, block_tree=block_tree),
        build_hmatrix(operator, X, tree, options))


def _assert_same_compression(a, b, n):
    assert_same_hss(a.hss, b.hss)
    rhs = np.random.default_rng(7).normal(size=n)
    np.testing.assert_array_equal(
        ULVFactorization.factor(a.hss, lam=0.5).solve(rhs),
        ULVFactorization.factor(b.hss, lam=0.5).solve(rhs))


def test_block_tree_reuse_is_bitwise_a_cold_compression(clustered, first):
    X, tree = clustered.X, clustered.tree
    moved = compress_kernel(X, tree, GaussianKernel(h=2.5), seed=0,
                            block_tree=first.block_tree)
    assert moved.block_tree is first.block_tree
    cold = compress_kernel(X, tree, GaussianKernel(h=2.5), seed=0)
    _assert_same_hmatrix(X, tree, 2.5, first.block_tree)
    _assert_same_compression(moved, cold, X.shape[0])
    # and h-moves chain: back to the first bandwidth on the moved tree
    back = compress_kernel(X, tree, GaussianKernel(h=1.5), seed=0,
                           block_tree=moved.block_tree)
    _assert_same_hmatrix(X, tree, 1.5, moved.block_tree)
    _assert_same_compression(back, first, X.shape[0])


@pytest.mark.parametrize("mismatch", ["eta", "leaf_size", "criterion", "tree"])
def test_mismatched_block_tree_is_rebuilt_not_reused(points, clustered, first,
                                                     mismatch):
    X, tree = clustered.X, clustered.tree
    options = HMatrixOptions()
    if mismatch == "eta":
        options = options.with_(admissibility_eta=3.0)
    elif mismatch == "leaf_size":
        options = options.with_(leaf_size=32)
    elif mismatch == "criterion":
        options = options.with_(admissibility="box")
    else:   # an equal tree, but not the one the block tree was built on
        tree = cluster(points[0], method="two_means", leaf_size=16,
                       seed=0).tree
    stale = first.block_tree
    given = compress_kernel(X, tree, GaussianKernel(h=2.5), seed=0,
                            hmatrix_options=options, block_tree=stale)
    rebuilt = given.block_tree
    assert rebuilt is not stale and rebuilt.tree is tree
    assert (rebuilt.eta, rebuilt.leaf_size, rebuilt.criterion) == (
        options.admissibility_eta, options.leaf_size, options.admissibility)
    cold = compress_kernel(X, tree, GaussianKernel(h=2.5), seed=0,
                           hmatrix_options=options)
    _assert_same_hmatrix(X, tree, 2.5, stale, options)
    _assert_same_compression(given, cold, X.shape[0])


def test_solver_reuses_its_block_tree_only_across_h_moves(points):
    X, y = points
    model = KernelRidgeClassifier(h=1.0, lam=1.0, solver="hss", seed=0,
                                  shards=1).fit(X, y)
    block_tree = model.solver_.block_tree_
    assert block_tree is not None
    model.refit_kernel(2.0)
    assert model.solver_.block_tree_ is block_tree
    model.recompress()      # a fresh clustering: nothing to carry over
    assert model.solver_.block_tree_ is not block_tree


# ---------------------------------------------------------------------------
# warm grid: an h-move is a plain fit round on the resident workers
# ---------------------------------------------------------------------------

def test_warm_grid_h_move_spawns_nothing_and_equals_cold(points):
    from repro.distributed import WorkerGrid

    X, y = points
    grid = WorkerGrid.from_data(X, shards=2, clustering="two_means",
                                leaf_size=16, seed=0)

    def on_grid(h, lam):
        return KernelRidgeClassifier(h=h, lam=lam, solver="hss", shards=2,
                                     solver_options={"grid": grid})

    try:
        warm = on_grid(1.0, 1.0).fit(X, y)
        spawned = grid.spawn_count
        assert spawned == 2
        warm.refit_kernel(2.3, lam=0.5)
        assert grid.spawn_count == spawned
        assert warm.solver_.warm_start_
        assert warm.solver_.compression_count == 2
        cold = on_grid(2.3, 0.5).fit(X, y)
        assert grid.spawn_count == spawned
        np.testing.assert_array_equal(warm.weights_, cold.weights_)
    finally:
        grid.shutdown()

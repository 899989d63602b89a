"""Training and serving run on one serial path.

Every training layer — H-matrix assembly, randomized HSS compression, ULV
factorization and solve — runs in the calling thread, and so does every
prediction engine, whatever model it serves; the parallel axis is the
process-sharded training path of :mod:`repro.distributed`.  These tests
pin that no thread pool is ever built by a training verb or a serving
path (whatever ``workers`` or a stale ``REPRO_WORKERS`` say), that a
sharded-trained model scores bitwise through the one engine, that the
deleted serving thread tier stays deleted, that the estimator's leftover
``workers`` keyword changes nothing, and that row-removal indices are
integers, never coerced.
"""

from __future__ import annotations

import importlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.clustering import cluster
from repro.config import HSSOptions
from repro.datasets import gas_like, standardize, susy_like
from repro.hss import ULVFactorization, build_hss_randomized
from repro.kernels import GaussianKernel, KernelOperator
from repro.krr import KernelRidgeClassifier
from repro.runtime import resolve_runtime_config
from repro.server import ModelRouter
from repro.serving import ModelStore, PredictionEngine


@pytest.fixture(scope="module")
def data():
    X, y = susy_like(200, seed=13)
    return standardize(X), y


def _classifier(solver, **kwargs):
    return KernelRidgeClassifier(h=1.0, lam=4.0, solver=solver, seed=0,
                                 leaf_size=16, **kwargs)


@pytest.mark.parametrize("solver", ["hss", "dense"])
@pytest.mark.parametrize("threads", ["keyword", "env"])
def test_training_verbs_build_no_thread_pool(data, pools_built, monkeypatch,
                                             solver, threads):
    X, y = data
    if threads == "env":
        monkeypatch.setenv("REPRO_WORKERS", "2")
        clf = _classifier(solver)
    else:
        clf = _classifier(solver, workers=2)
    X_fit, y_fit = X[:160], y[:160]
    clf.fit(X_fit, y_fit)
    clf.refit(8.0)
    clf.refit_kernel(1.1)
    clf.partial_fit(X[160:170], y[160:170], remove=[0, 3])
    clf.recompress()
    assert pools_built == []


def test_workers_keyword_gives_the_default_weights(data):
    X, y = data
    default = _classifier("hss").fit(X, y)
    with_workers = _classifier("hss", workers=2).fit(X, y)
    assert np.array_equal(with_workers.weights_, default.weights_)
    assert not hasattr(with_workers, "workers")


@pytest.fixture(scope="module")
def sharded_model(data):
    """A 2-shard-trained model, fitted before any pool counting starts."""
    X, y = data
    return _classifier("hss", shards=2).fit(X, y)


def test_config_built_engine_builds_no_thread_pool(data, pools_built,
                                                   monkeypatch):
    X, y = data
    clf = _classifier("dense").fit(X, y)
    monkeypatch.setenv("REPRO_WORKERS", "2")
    config = resolve_runtime_config(flags={"serving.batch_size": 256})
    queries = np.random.default_rng(5).standard_normal((4096, X.shape[1]))
    with PredictionEngine.from_config(config, clf) as engine:
        scores = engine.decision_many(queries)
    assert pools_built == []
    assert engine.stats.batches == 16
    assert np.array_equal(scores,
                          clf.decision_function(queries, block_size=256))


def test_router_serves_a_sharded_model_without_a_thread_pool(
        tmp_path, data, sharded_model, pools_built):
    X, _ = data
    store = ModelStore(tmp_path)
    store.save(sharded_model, "sharded")
    config = resolve_runtime_config(env={}, flags={
        "serving.store": str(tmp_path), "distributed.shards": 2})
    router = ModelRouter.from_config(config, store=store)
    try:
        router.serve("sharded")
        labels = router.predict("sharded", X[:32])
    finally:
        router.close()
    assert pools_built == []
    assert np.array_equal(labels, sharded_model.predict(X[:32]))


@pytest.mark.parametrize("batch_size", [1, 7, 64, 1024])
def test_sharded_model_engine_scores_bitwise(data, sharded_model, pools_built,
                                             batch_size):
    """The one engine scores a sharded-trained model exactly like its
    ``decision_function`` at equal chunk size, in the calling thread."""
    X, _ = data
    with PredictionEngine(sharded_model, batch_size=batch_size) as engine:
        scores = engine.decision_many(X)
    assert pools_built == []
    assert engine.stats.queries == X.shape[0]
    assert engine.stats.rows_computed == X.shape[0]
    assert np.array_equal(scores, sharded_model.decision_function(
        X, block_size=batch_size))


def test_closed_engine_keeps_serving(data, sharded_model):
    """``close`` releases nothing, so it is idempotent and a closed engine
    (or one re-entered as a context manager) still scores the same bits."""
    X, _ = data
    engine = PredictionEngine(sharded_model, batch_size=32, cache_size=64)
    first = engine.decision_many(X[:40])
    engine.close()
    engine.close()
    assert np.array_equal(engine.decision_many(X[:40]), first)
    with engine as same:
        assert same is engine
        assert np.array_equal(same.decision_many(X[:40]), first)
    assert np.array_equal(engine.decision_many(X[:40]), first)


def test_callers_with_disjoint_queries_share_one_engine(data, sharded_model):
    """Caller threads scoring different rows through one caching engine
    each get the serial engine's scores, and the stats add up."""
    X, _ = data
    parts = np.array_split(X, 4)
    serial = PredictionEngine(sharded_model, batch_size=1)
    expected = [serial.decision_many(part) for part in parts]
    engine = PredictionEngine(sharded_model, batch_size=1, cache_size=512)
    with ThreadPoolExecutor(max_workers=len(parts)) as pool:
        results = list(pool.map(engine.decision_many, parts, timeout=60))
    for scores, want in zip(results, expected):
        assert np.array_equal(scores, want)
    assert engine.stats.queries == X.shape[0]
    assert engine.stats.cache_misses == engine.stats.rows_computed


@pytest.mark.parametrize("module, name", [
    ("repro", "ShardedPredictionEngine"),
    ("repro.serving", "ShardedPredictionEngine"),
    ("repro.parallel", "BlockExecutor"),
    ("repro.parallel", "resolve_workers"),
    ("repro.parallel", "default_worker_count"),
])
def test_deleted_serving_thread_tier_is_not_exported(module, name):
    package = importlib.import_module(module)
    assert not hasattr(package, name)
    assert name not in getattr(package, "__all__", ())


def test_executor_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        __import__("repro.parallel.executor")


@pytest.mark.parametrize("keyword", ["workers", "shards"])
def test_router_takes_no_thread_or_shard_keyword(tmp_path, keyword):
    with pytest.raises(TypeError, match=keyword):
        ModelRouter(ModelStore(tmp_path), **{keyword: 2})


def test_engine_takes_no_workers_keyword(sharded_model):
    with pytest.raises(TypeError, match="workers"):
        PredictionEngine(sharded_model, workers=2)


BAD_REMOVALS = [
    pytest.param([1.5], id="float"),
    pytest.param([1.0], id="integral-float"),
    pytest.param("12", id="string"),
    pytest.param([True], id="bool"),
    pytest.param(np.array([1, 2], dtype=object), id="object"),
    pytest.param([[1, 2]], id="2d"),
    pytest.param(3, id="scalar"),
]


@pytest.mark.parametrize("solver", ["hss", "dense"])
@pytest.mark.parametrize("remove", BAD_REMOVALS)
def test_bad_removal_indices_raise_and_leave_the_model(data, solver, remove):
    X, y = data
    clf = _classifier(solver).fit(X[:128], y[:128])
    weights = clf.weights_.copy()
    n_train = clf.X_train_.shape[0]
    with pytest.raises(ValueError):
        clf.partial_fit(remove=remove)
    assert np.array_equal(clf.weights_, weights)
    assert clf.X_train_.shape[0] == n_train


def test_integer_removal_indices_still_remove(data):
    X, y = data
    clf = _classifier("dense").fit(X[:128], y[:128])
    clf.partial_fit(remove=np.array([1, 12], dtype=np.int32))
    assert clf.X_train_.shape[0] == 126


@pytest.fixture(scope="module", params=["susy", "gas"])
def problem(request):
    if request.param == "susy":
        X, y = susy_like(384, seed=5)
    else:
        X, y = gas_like(256, seed=5)
    result = cluster(standardize(X), method="two_means", leaf_size=16,
                     seed=2)
    operator = KernelOperator(result.X, GaussianKernel(h=1.0))
    return result, operator


def test_ulv_solve_accuracy(problem):
    result, operator = problem
    hss, _ = build_hss_randomized(operator, result.tree,
                                  HSSOptions(rel_tol=1e-4), rng=0)
    rhs = np.random.default_rng(4).standard_normal(result.tree.n)
    x = ULVFactorization.factor(hss, lam=2.0).solve(rhs)
    K = GaussianKernel(h=1.0).matrix(result.X)
    K[np.diag_indices_from(K)] += 2.0
    assert np.linalg.norm(K @ x - rhs) / np.linalg.norm(rhs) < 1e-2


def test_report_includes_memory():
    X, y = susy_like(200, seed=1)
    X = standardize(X)
    clf = KernelRidgeClassifier(h=1.0, lam=4.0, solver="hss", seed=0,
                                shards=1).fit(X[:160], y[:160])
    report = clf.report
    assert report.hss_memory_mb > 0
    assert report.hmatrix_memory_mb > 0
    assert report.memory_mb == pytest.approx(
        report.hss_memory_mb + report.hmatrix_memory_mb)
    assert not hasattr(report, "workers")

"""Training runs on one serial path.

Every training layer — H-matrix assembly, randomized HSS compression, ULV
factorization and solve — runs in the calling thread; the parallel axis
of training is the process-sharded path of :mod:`repro.distributed`.  These
tests pin that no thread pool is ever built by a training verb (whatever
``workers`` or ``REPRO_WORKERS`` say), that the estimator's leftover
``workers`` keyword changes nothing, and that row-removal indices are
integers, never coerced.
"""

from __future__ import annotations

import concurrent.futures

import numpy as np
import pytest

from repro.clustering import cluster
from repro.config import HSSOptions
from repro.datasets import gas_like, standardize, susy_like
from repro.hss import ULVFactorization, build_hss_randomized
from repro.kernels import GaussianKernel, ShiftedKernelOperator
from repro.krr import KernelRidgeClassifier, KRRPipeline


@pytest.fixture(scope="module")
def data():
    X, y = susy_like(200, seed=13)
    return standardize(X), y


def _classifier(solver, **kwargs):
    return KernelRidgeClassifier(h=1.0, lam=4.0, solver=solver, seed=0,
                                 leaf_size=16, **kwargs)


@pytest.fixture
def pools_built(monkeypatch):
    """Count every ``ThreadPoolExecutor`` constructed while it is active."""
    built = []
    init = concurrent.futures.ThreadPoolExecutor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("thread_name_prefix", ""))
        init(self, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "__init__",
                        counting_init)
    return built


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
    operator = ShiftedKernelOperator(result.X, GaussianKernel(h=1.0), 2.0)
    return result, operator


def test_ulv_solve_accuracy(problem):
    result, operator = problem
    hss, _ = build_hss_randomized(operator, result.tree,
                                  HSSOptions(rel_tol=1e-4), rng=0)
    rhs = np.random.default_rng(4).standard_normal(result.tree.n)
    x = ULVFactorization(hss).solve(rhs)
    K = GaussianKernel(h=1.0).matrix(result.X)
    K[np.diag_indices_from(K)] += 2.0
    assert np.linalg.norm(K @ x - rhs) / np.linalg.norm(rhs) < 1e-2


def test_report_row_includes_memory():
    X, y = susy_like(200, seed=1)
    X = standardize(X)
    pipe = KRRPipeline(h=1.0, lam=4.0, solver="hss", seed=0)
    report = pipe.run(X[:160], y[:160], X[160:], y[160:],
                      dataset_name="susy")
    row = report.row()
    assert row["hss_memory_mb"] == round(report.hss_memory_mb, 3)
    assert row["hmatrix_memory_mb"] == round(report.hmatrix_memory_mb, 3)
    assert "workers" not in row
    assert report.hss_memory_mb > 0

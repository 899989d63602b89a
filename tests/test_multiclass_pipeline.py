"""Tests for the one-vs-all classifier and the binary classifier's report."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import clustered_manifold, load_dataset
from repro.krr import KernelRidgeClassifier, OneVsAllClassifier


def _multiclass_data(n=400, d=6, n_classes=4, seed=0):
    X, ids = clustered_manifold(n, d, n_clusters=n_classes, intrinsic_dim=3,
                                separation=5.0, noise=0.3, seed=seed)
    return X, ids % n_classes


class TestOneVsAll:
    def test_fit_predict_multiclass(self):
        X, y = _multiclass_data(seed=1)
        clf = OneVsAllClassifier(h=1.5, lam=1.0, solver="dense",
                                 clustering="two_means", seed=0)
        clf.fit(X, y)
        assert clf.score(X, y) > 0.95
        assert clf.classes_.size == 4

    def test_decision_function_shape(self):
        X, y = _multiclass_data(n=200, seed=2)
        clf = OneVsAllClassifier(h=1.5, lam=1.0, solver="dense").fit(X, y)
        scores = clf.decision_function(X[:30])
        assert scores.shape == (30, clf.classes_.size)

    def test_shared_factorization_with_hss(self):
        X, y = _multiclass_data(n=300, seed=3)
        clf = OneVsAllClassifier(h=1.5, lam=1.0, solver="hss", seed=0,
                                 solver_options={"use_hmatrix_sampling": False})
        clf.fit(X, y)
        # One solver fit, several solves: the report carries one factorization.
        assert clf.report.phase("factorization") > 0
        assert clf.score(X, y) > 0.9

    def test_string_labels(self):
        X, y_int = _multiclass_data(n=160, seed=4)
        y = np.array(["class_%d" % c for c in y_int])
        clf = OneVsAllClassifier(h=1.5, lam=1.0, solver="dense").fit(X, y)
        preds = clf.predict(X[:20])
        assert set(preds).issubset(set(y))

    def test_single_class_rejected(self):
        X, _ = _multiclass_data(n=50, seed=5)
        with pytest.raises(ValueError):
            OneVsAllClassifier(solver="dense").fit(X, np.zeros(50))

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            OneVsAllClassifier().predict(np.zeros((2, 3)))

    def test_two_class_case_agrees_with_sign_rule(self):
        X, y = _multiclass_data(n=200, n_classes=2, seed=6)
        clf = OneVsAllClassifier(h=1.5, lam=1.0, solver="dense").fit(X, y)
        acc = clf.score(X, y)
        assert acc > 0.95


class TestEstimatorReport:
    def test_report_fields(self):
        data = load_dataset("letter", n_train=384, n_test=96, seed=0)
        clf = KernelRidgeClassifier(
            h=data.h, lam=data.lam, clustering="two_means", solver="hss",
            seed=0, solver_options={"use_hmatrix_sampling": False})
        clf.fit(data.X_train, data.y_train)
        report = clf.report
        assert clf.X_train_.shape == (384, 16)
        assert 0.0 <= clf.score(data.X_test, data.y_test) <= 1.0
        assert report.memory_mb > 0
        assert report.max_rank > 0
        assert report.phase("factorization") > 0
        assert report.total_time > 0

    def test_dense_solver(self):
        data = load_dataset("gas", n_train=256, n_test=64, seed=1)
        clf = KernelRidgeClassifier(h=data.h, lam=data.lam, solver="dense",
                                    clustering="natural")
        clf.fit(data.X_train, data.y_train)
        assert clf.score(data.X_test, data.y_test) > 0.8
        assert clf.report.solver == "dense"

    def test_cg_solver_keeps_weights(self):
        data = load_dataset("pen", n_train=256, n_test=64, seed=2)
        clf = KernelRidgeClassifier(h=data.h, lam=data.lam, solver="cg",
                                    clustering="kd")
        clf.fit(data.X_train, data.y_train)
        assert clf.weights_ is not None
        assert clf.weights_.shape == (256,)

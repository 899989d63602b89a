"""Cross-cutting property-based tests of the library's core invariants.

These complement the per-module tests with invariants that tie several
components together: kernel matrices are symmetric positive semi-definite
for any point cloud, symmetric permutations never change the spectrum,
compressed representations agree with the operators they compress, and the
end-to-end classifier is invariant to shuffling the training rows.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import cluster
from repro.config import HMatrixOptions, HSSOptions
from repro.hmatrix import build_hmatrix
from repro.hss import ULVFactorization, build_hss_from_dense
from repro.kernels import (GaussianKernel, KernelOperator, LaplacianKernel,
                           Matern32Kernel, get_kernel)
from repro.krr import KernelRidgeClassifier
from repro.datasets import gaussian_mixture


def _points(n, d, seed):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((max(2, n // 20), d)) * 3.0
    return centers[rng.integers(centers.shape[0], size=n)] \
        + 0.5 * rng.standard_normal((n, d))


class TestKernelProperties:
    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(5, 60), d=st.integers(1, 8),
           h=st.floats(0.2, 8.0), seed=st.integers(0, 10**6),
           name=st.sampled_from(["gaussian", "laplacian", "matern32", "matern52"]))
    def test_radial_kernels_symmetric_psd_unit_diagonal(self, n, d, h, seed, name):
        X = _points(n, d, seed)
        K = get_kernel(name, h=h).matrix(X)
        assert np.allclose(K, K.T, atol=1e-12)
        assert np.allclose(np.diag(K), 1.0)
        eigs = np.linalg.eigvalsh(K)
        assert eigs.min() > -1e-7 * max(eigs.max(), 1.0)

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(8, 50), seed=st.integers(0, 10**6),
           h=st.floats(0.3, 4.0))
    def test_symmetric_permutation_preserves_spectrum(self, n, seed, h):
        X = _points(n, 3, seed)
        K = GaussianKernel(h=h).matrix(X)
        perm = np.random.default_rng(seed).permutation(n)
        K_perm = K[np.ix_(perm, perm)]
        s1 = np.linalg.svd(K, compute_uv=False)
        s2 = np.linalg.svd(K_perm, compute_uv=False)
        np.testing.assert_allclose(s1, s2, rtol=1e-9, atol=1e-10)

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(10, 60), seed=st.integers(0, 10**6),
           lam=st.floats(0.0, 5.0))
    def test_shifted_product_consistent_with_dense(self, n, seed, lam):
        # The ridge shift is added to the λ-free product (as CG does it);
        # the operator's blocks stay those of K.
        X = _points(n, 4, seed)
        op = KernelOperator(X, GaussianKernel(h=1.0))
        K = GaussianKernel(h=1.0).matrix(X)
        v = np.random.default_rng(seed).standard_normal(n)
        np.testing.assert_allclose(op.matvec(v) + lam * v,
                                   (K + lam * np.eye(n)) @ v, atol=1e-9)
        idx = np.random.default_rng(seed + 1).integers(0, n, size=min(5, n))
        np.testing.assert_allclose(op.block(idx, idx), K[np.ix_(idx, idx)],
                                   atol=1e-12)


class TestCompressionProperties:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 1000), h=st.floats(0.5, 3.0),
           method=st.sampled_from(["two_means", "kd", "pca", "natural"]))
    def test_hss_approximation_error_within_tolerance_budget(self, seed, h, method):
        X = _points(128, 4, seed)
        result = cluster(X, method=method, leaf_size=16, seed=seed)
        K = GaussianKernel(h=h).matrix(result.X) + 1.0 * np.eye(128)
        tol = 1e-4
        hss = build_hss_from_dense(K, result.tree, HSSOptions(rel_tol=tol))
        err = np.linalg.norm(hss.to_dense() - K) / np.linalg.norm(K)
        # Per-block relative tolerance; allow a generous accumulation factor
        # across the O(log n) levels of the hierarchy.
        assert err < 100 * tol

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 1000), lam=st.floats(0.5, 5.0))
    def test_ulv_solves_its_own_compression_exactly(self, seed, lam):
        X = _points(96, 3, seed)
        result = cluster(X, method="two_means", leaf_size=16, seed=seed)
        K = GaussianKernel(h=1.0).matrix(result.X) + lam * np.eye(96)
        hss = build_hss_from_dense(K, result.tree, HSSOptions(rel_tol=1e-2))
        fac = ULVFactorization(hss)
        b = np.random.default_rng(seed).standard_normal(96)
        x = fac.solve(b)
        A = hss.to_dense()
        # Whatever matrix the compression produced, ULV solves it accurately.
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-8

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_hmatrix_and_hss_agree_with_operator(self, seed):
        X = _points(160, 4, seed)
        result = cluster(X, method="two_means", leaf_size=16, seed=seed)
        op = KernelOperator(result.X, GaussianKernel(h=1.5))
        A = op.to_dense()
        hm = build_hmatrix(op, result.X, result.tree, HMatrixOptions(rel_tol=1e-6))
        hss = build_hss_from_dense(A, result.tree, HSSOptions(rel_tol=1e-6))
        v = np.random.default_rng(seed).standard_normal(160)
        ref = A @ v
        scale = np.linalg.norm(ref)
        assert np.linalg.norm(hm.matvec(v) - ref) < 1e-3 * scale
        assert np.linalg.norm(hss.matvec(v) - ref) < 1e-3 * scale


class TestPipelineProperties:
    def test_classifier_invariant_to_row_shuffling(self):
        X, y = gaussian_mixture(250, 4, n_components=4, separation=4.0,
                                noise=0.6, seed=0)
        X_test, _ = gaussian_mixture(80, 4, n_components=4, separation=4.0,
                                     noise=0.6, seed=1)
        clf_a = KernelRidgeClassifier(h=1.5, lam=1.0, solver="dense",
                                      clustering="kd").fit(X, y)
        shuffle = np.random.default_rng(2).permutation(X.shape[0])
        clf_b = KernelRidgeClassifier(h=1.5, lam=1.0, solver="dense",
                                      clustering="kd").fit(X[shuffle], y[shuffle])
        np.testing.assert_allclose(clf_a.decision_function(X_test),
                                   clf_b.decision_function(X_test), atol=1e-6)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 100))
    def test_predictions_are_deterministic_given_seed(self, seed):
        X, y = gaussian_mixture(200, 3, n_components=4, separation=4.0,
                                noise=0.6, seed=seed)
        X_test, _ = gaussian_mixture(50, 3, n_components=4, separation=4.0,
                                     noise=0.6, seed=seed + 1)
        preds = []
        for _ in range(2):
            clf = KernelRidgeClassifier(h=1.2, lam=1.0, solver="hss", seed=7,
                                        solver_options={"use_hmatrix_sampling": False})
            clf.fit(X, y)
            preds.append(clf.predict(X_test))
        np.testing.assert_array_equal(preds[0], preds[1])

    def test_label_flip_symmetry(self):
        # Flipping every training label flips every decision value.
        X, y = gaussian_mixture(180, 3, n_components=2, separation=4.0,
                                noise=0.5, seed=5)
        X_test, _ = gaussian_mixture(40, 3, n_components=2, separation=4.0,
                                     noise=0.5, seed=6)
        a = KernelRidgeClassifier(h=1.5, lam=1.0, solver="dense").fit(X, y)
        b = KernelRidgeClassifier(h=1.5, lam=1.0, solver="dense").fit(X, -y)
        np.testing.assert_allclose(a.decision_function(X_test),
                                   -b.decision_function(X_test), atol=1e-8)

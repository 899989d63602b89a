"""Tests for kernel functions and the pairwise distance primitives."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.kernels import (GaussianKernel, LaplacianKernel, LinearKernel,
                           Matern32Kernel, Matern52Kernel, PolynomialKernel,
                           get_kernel, pairwise_sq_dists, KERNEL_REGISTRY)


def _points(n=30, d=5, seed=0):
    return np.random.default_rng(seed).standard_normal((n, d))


class TestDistances:
    def test_pairwise_sq_dists_matches_naive(self):
        X = _points(20, 4, seed=1)
        Y = _points(15, 4, seed=2)
        D = pairwise_sq_dists(X, Y)
        naive = np.array([[np.sum((x - y) ** 2) for y in Y] for x in X])
        np.testing.assert_allclose(D, naive, rtol=1e-10, atol=1e-10)

    def test_pairwise_sq_dists_symmetric_case(self):
        X = _points(25, 3)
        D = pairwise_sq_dists(X)
        assert np.allclose(D, D.T)
        assert np.all(np.diag(D) == 0.0)
        assert np.all(D >= 0.0)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension"):
            pairwise_sq_dists(_points(5, 3), _points(5, 4))

    @settings(max_examples=25, deadline=None)
    @given(arrays(np.float64, (7, 3), elements=st.floats(-50, 50)))
    def test_property_distances_nonnegative_and_symmetric(self, X):
        D = pairwise_sq_dists(X)
        assert np.all(D >= 0)
        assert np.allclose(D, D.T, atol=1e-8)


class TestGaussianKernel:
    def test_values(self):
        k = GaussianKernel(h=2.0)
        X = np.array([[0.0], [2.0]])
        K = k.matrix(X)
        assert K[0, 0] == pytest.approx(1.0)
        assert K[0, 1] == pytest.approx(np.exp(-4.0 / 8.0))

    def test_symmetric_psd(self):
        X = _points(40, 6)
        K = GaussianKernel(h=1.0).matrix(X)
        assert np.allclose(K, K.T)
        eigs = np.linalg.eigvalsh(K)
        assert eigs.min() > -1e-8  # Gaussian kernels are PSD

    def test_limits_of_h(self):
        X = _points(20, 4)
        nearly_identity = GaussianKernel(h=1e-3).matrix(X)
        assert np.allclose(nearly_identity, np.eye(20), atol=1e-6)
        nearly_ones = GaussianKernel(h=1e3).matrix(X)
        assert np.allclose(nearly_ones, np.ones((20, 20)), atol=1e-3)

    def test_block_extraction(self):
        X = _points(25, 3)
        k = GaussianKernel(h=1.0)
        K = k.matrix(X)
        rows = np.array([1, 5, 7])
        cols = np.array([0, 2, 10, 20])
        np.testing.assert_allclose(k.block(X, rows, cols), K[np.ix_(rows, cols)],
                                   atol=1e-12)

    def test_row(self):
        X = _points(15, 3)
        k = GaussianKernel(h=0.7)
        K = k.matrix(X)
        np.testing.assert_allclose(k.matrix(X[4:5], X)[0], K[4], atol=1e-12)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension"):
            GaussianKernel(h=1.0).matrix(_points(5, 3), _points(5, 4))

    def test_invalid_h(self):
        with pytest.raises(ValueError):
            GaussianKernel(h=0.0)

    def test_diagonal_value(self):
        assert GaussianKernel(h=3.0).diagonal_value() == pytest.approx(1.0)


class TestOtherKernels:
    @pytest.mark.parametrize("cls", [LaplacianKernel, Matern32Kernel, Matern52Kernel])
    def test_radial_kernels_basic(self, cls):
        X = _points(20, 4)
        k = cls(h=1.3)
        K = k.matrix(X)
        assert np.allclose(K, K.T)
        assert np.allclose(np.diag(K), 1.0)
        assert K.max() <= 1.0 + 1e-12
        assert K.min() >= 0.0

    def test_matern_decreasing_in_distance(self):
        k = Matern52Kernel(h=1.0)
        r = np.array([[0.0], [0.5], [1.0], [2.0], [4.0]])
        vals = k.matrix(r, np.zeros((1, 1))).ravel()
        assert np.all(np.diff(vals) < 0)

    def test_polynomial_kernel(self):
        X = _points(10, 3)
        k = PolynomialKernel(degree=2, gamma=0.5, coef0=1.0)
        K = k.matrix(X)
        expected = (0.5 * X @ X.T + 1.0) ** 2
        np.testing.assert_allclose(K, expected, atol=1e-10)
        np.testing.assert_allclose(k.matrix(X[2:3], X)[0], expected[2],
                                   atol=1e-10)

    def test_linear_kernel_is_gram(self):
        X = _points(8, 4)
        np.testing.assert_allclose(LinearKernel().matrix(X), X @ X.T, atol=1e-12)

    def test_polynomial_invalid_degree(self):
        with pytest.raises(ValueError):
            PolynomialKernel(degree=0)


class TestRegistry:
    def test_get_kernel_by_name(self):
        k = get_kernel("gaussian", h=2.5)
        assert isinstance(k, GaussianKernel)
        assert k.h == 2.5

    def test_registry_contains_all(self):
        for name in ("gaussian", "laplacian", "matern32", "matern52",
                     "polynomial", "linear"):
            assert name in KERNEL_REGISTRY

    def test_unknown_kernel_raises(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            get_kernel("does-not-exist")

"""Tests for HSS matrix-vector products and reconstruction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import cluster
from repro.config import HSSOptions
from repro.hss import build_hss_from_dense
from repro.kernels import GaussianKernel


def _hss_and_dense(n=160, h=1.0, lam=1.5, seed=0, rel_tol=1e-8, leaf_size=16):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((5, 4)) * 4.0
    X = centers[rng.integers(5, size=n)] + 0.4 * rng.standard_normal((n, 4))
    result = cluster(X, method="two_means", leaf_size=leaf_size, seed=seed)
    K = GaussianKernel(h=h).matrix(result.X) + lam * np.eye(n)
    hss = build_hss_from_dense(K, result.tree, HSSOptions(rel_tol=rel_tol))
    return hss, K


class TestMatvec:
    def test_single_vector(self):
        hss, K = _hss_and_dense()
        x = np.random.default_rng(1).standard_normal(K.shape[0])
        np.testing.assert_allclose(hss.matvec(x), K @ x,
                                   atol=1e-6 * np.linalg.norm(K @ x))

    def test_multiple_rhs(self):
        hss, K = _hss_and_dense(seed=2)
        X = np.random.default_rng(3).standard_normal((K.shape[0], 5))
        np.testing.assert_allclose(hss.matvec(X), K @ X,
                                   atol=1e-6 * np.linalg.norm(K @ X))

    def test_shape_mismatch(self):
        hss, _ = _hss_and_dense(n=96, seed=6)
        with pytest.raises(ValueError):
            hss.matvec(np.zeros(10))

    def test_zero_vector(self):
        hss, _ = _hss_and_dense(n=96, seed=7)
        np.testing.assert_allclose(hss.matvec(np.zeros(96)), np.zeros(96))

    def test_linearity(self):
        hss, _ = _hss_and_dense(n=128, seed=8)
        rng = np.random.default_rng(9)
        x, y = rng.standard_normal(128), rng.standard_normal(128)
        a, b = 2.5, -1.25
        np.testing.assert_allclose(hss.matvec(a * x + b * y),
                                   a * hss.matvec(x) + b * hss.matvec(y),
                                   atol=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 100), nrhs=st.integers(1, 4))
    def test_property_matvec_matches_reconstruction(self, seed, nrhs):
        hss, _ = _hss_and_dense(n=96, seed=seed % 5, rel_tol=1e-6)
        dense = hss.to_dense()
        X = np.random.default_rng(seed).standard_normal((96, nrhs))
        np.testing.assert_allclose(hss.matvec(X), dense @ X, atol=1e-8)


class TestFullBases:
    def test_bases_orthonormal_columns_not_required_but_consistent(self):
        hss, K = _hss_and_dense(n=128, seed=10, rel_tol=1e-7)
        bases = hss.full_bases()
        tree = hss.tree
        scale = np.linalg.norm(K)
        # For every non-root node the off-diagonal block must be captured by
        # its full row basis: A(I_i, I_i^c) == U_i @ (U_i^+ A(I_i, I_i^c)).
        # The error is measured against the norm of the whole matrix because
        # blocks between far-apart clusters are (correctly) compressed to
        # near-zero rank even though their own norm is not exactly zero.
        for node_id in tree.postorder():
            if node_id == tree.root:
                continue
            nd = tree.node(node_id)
            rows = np.arange(nd.start, nd.stop)
            comp = np.setdiff1d(np.arange(tree.n), rows)
            block = K[np.ix_(rows, comp)]
            U = bases[node_id]
            if U.shape[1] == 0:
                assert np.linalg.norm(block) < 1e-5 * scale
                continue
            proj = U @ np.linalg.lstsq(U, block, rcond=None)[0]
            assert np.linalg.norm(proj - block) < 1e-5 * scale

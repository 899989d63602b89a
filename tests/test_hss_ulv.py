"""Tests for the symmetric ULV factorization and solve."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from conftest import assert_same_arrays
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import cluster, natural_tree
from repro.config import HSSOptions
from repro.hss import ULVFactorization, build_hss_from_dense, build_hss_randomized
from repro.hss.ulv import _NodeFactors
from repro.kernels import DenseMatrixOperator, GaussianKernel
from repro.utils.timing import TimingLog

#: what a node of the symmetric ULV stores, besides its two sizes
FACTOR_FIELDS = ("omega", "u_hat", "lu", "piv", "w")


def _problem(n=200, h=1.0, lam=2.0, seed=0, rel_tol=1e-9, method="two_means",
             leaf_size=16, d=5):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((6, d)) * 4.0
    X = centers[rng.integers(6, size=n)] + 0.4 * rng.standard_normal((n, d))
    result = cluster(X, method=method, leaf_size=leaf_size, seed=seed)
    K = GaussianKernel(h=h).matrix(result.X) + lam * np.eye(n)
    hss = build_hss_from_dense(K, result.tree, HSSOptions(rel_tol=rel_tol))
    return hss, K


class TestULVSolve:
    def test_solve_matches_numpy(self):
        hss, K = _problem()
        fac = ULVFactorization(hss)
        rng = np.random.default_rng(1)
        b = rng.standard_normal(K.shape[0])
        x = fac.solve(b)
        x_ref = np.linalg.solve(K, b)
        np.testing.assert_allclose(x, x_ref, atol=1e-5 * np.linalg.norm(x_ref))

    def test_residual_small(self):
        hss, K = _problem(seed=2)
        fac = ULVFactorization(hss)
        b = np.random.default_rng(3).standard_normal(K.shape[0])
        x = fac.solve(b)
        resid = np.linalg.norm(K @ x - b) / np.linalg.norm(b)
        assert resid < 1e-6

    def test_multiple_rhs(self):
        hss, K = _problem(seed=4)
        fac = ULVFactorization(hss)
        B = np.random.default_rng(5).standard_normal((K.shape[0], 4))
        X = fac.solve(B)
        assert X.shape == B.shape
        np.testing.assert_allclose(K @ X, B, atol=1e-5 * np.linalg.norm(B))

    def test_factor_once_solve_many(self):
        hss, K = _problem(seed=6)
        fac = ULVFactorization(hss)
        rng = np.random.default_rng(7)
        for _ in range(3):
            b = rng.standard_normal(K.shape[0])
            x = fac.solve(b)
            assert np.linalg.norm(K @ x - b) / np.linalg.norm(b) < 1e-6

    def test_natural_ordering_tree(self):
        hss, K = _problem(seed=8, method="natural")
        fac = ULVFactorization(hss)
        b = np.ones(K.shape[0])
        x = fac.solve(b)
        assert np.linalg.norm(K @ x - b) / np.linalg.norm(b) < 1e-6

    def test_single_leaf_tree(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((12, 12))
        A = A @ A.T + 12 * np.eye(12)
        tree = natural_tree(rng.standard_normal((12, 2)), leaf_size=16)
        hss = build_hss_from_dense(A, tree, HSSOptions())
        fac = ULVFactorization(hss)
        b = rng.standard_normal(12)
        np.testing.assert_allclose(fac.solve(b), np.linalg.solve(A, b), atol=1e-8)

    def test_unbalanced_tree(self):
        # A pathologically unbalanced splitter: 1 vs rest at every level.
        from repro.clustering.tree import tree_from_splitter
        rng = np.random.default_rng(10)
        X = rng.standard_normal((60, 3))

        def lopsided(points, rng_):
            mask = np.zeros(points.shape[0], dtype=bool)
            mask[0] = True
            return mask

        tree = tree_from_splitter(X, lopsided, leaf_size=4)
        K = GaussianKernel(h=1.0).matrix(X[tree.perm]) + 2.0 * np.eye(60)
        hss = build_hss_from_dense(K, tree, HSSOptions(rel_tol=1e-9))
        fac = ULVFactorization(hss)
        b = rng.standard_normal(60)
        assert np.linalg.norm(K @ fac.solve(b) - b) / np.linalg.norm(b) < 1e-6

    def test_wrong_rhs_size(self):
        hss, _ = _problem(n=96, seed=11)
        fac = ULVFactorization(hss)
        with pytest.raises(ValueError):
            fac.solve(np.zeros(5))

    def test_timing_phases_recorded(self):
        hss, K = _problem(n=128, seed=12)
        log = TimingLog()
        fac = ULVFactorization(hss, timing=log)
        assert log.get("factorization") > 0
        fac.solve(np.ones(K.shape[0]), timing=log)
        assert log.get("solve") > 0

    def test_factor_bytes_positive(self):
        hss, _ = _problem(n=128, seed=13)
        fac = ULVFactorization(hss)
        assert fac.factor_bytes > 0

    def test_loose_compression_still_useful_solution(self):
        # With the paper's tolerance (0.1) the ULV solve is approximate but
        # accurate enough for sign-based classification decisions.
        hss, K = _problem(seed=14, rel_tol=1e-1, lam=4.0)
        fac = ULVFactorization(hss)
        b = np.random.default_rng(15).standard_normal(K.shape[0])
        x = fac.solve(b)
        x_ref = np.linalg.solve(K, b)
        rel = np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref)
        assert rel < 0.5
        # The HSS matrix it factors is solved (nearly) exactly even when it
        # approximates K loosely.
        A_hss = hss.to_dense()
        assert np.linalg.norm(A_hss @ x - b) / np.linalg.norm(b) < 1e-6

    def test_randomized_build_then_ulv(self):
        rng = np.random.default_rng(16)
        n = 192
        centers = rng.standard_normal((5, 4)) * 4
        X = centers[rng.integers(5, size=n)] + 0.4 * rng.standard_normal((n, 4))
        result = cluster(X, method="two_means", leaf_size=16, seed=0)
        K = GaussianKernel(h=1.2).matrix(result.X) + 3.0 * np.eye(n)
        hss, _ = build_hss_randomized(DenseMatrixOperator(K), result.tree,
                                      HSSOptions(rel_tol=1e-8), rng=1)
        fac = ULVFactorization(hss)
        b = rng.standard_normal(n)
        assert np.linalg.norm(K @ fac.solve(b) - b) / np.linalg.norm(b) < 1e-5

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 50), lam=st.floats(0.5, 10.0),
           leaf=st.sampled_from([8, 16, 32]))
    def test_property_residual_bounded(self, seed, lam, leaf):
        hss, K = _problem(n=128, seed=seed % 7, lam=lam, rel_tol=1e-8,
                          leaf_size=leaf)
        fac = ULVFactorization(hss)
        b = np.random.default_rng(seed).standard_normal(K.shape[0])
        x = fac.solve(b)
        assert np.linalg.norm(K @ x - b) / np.linalg.norm(b) < 1e-5


# ---------------------------------------------------------------------------
# Every kind of node, on SPD and on indefinite systems
# ---------------------------------------------------------------------------

def _two_clusters(n=64, leaf_size=16):
    """Two clusters too far apart to interact, in index order: the natural
    tree's two root children have a zero coupling block — rank 0."""
    rng = np.random.default_rng(17)
    X = rng.standard_normal((n, 3))
    X[n // 2:] += 100.0
    tree = natural_tree(X, leaf_size=leaf_size)
    K = GaussianKernel(h=1.0).matrix(X)
    return build_hss_from_dense(K, tree, HSSOptions(rel_tol=1e-9))


def _single_leaf():
    """n = 12 below the leaf size: one node, the root, a leaf of rank 0."""
    rng = np.random.default_rng(9)
    X = rng.standard_normal((12, 2))
    tree = natural_tree(X, leaf_size=16)
    return build_hss_from_dense(GaussianKernel(h=1.0).matrix(X), tree,
                                HSSOptions())


#: λ-free HSS matrices, by the kind of node they exercise
NODE_KINDS = {
    # nodes whose rank covers their block, next to nodes that eliminate
    "pass-through": lambda: _problem(lam=0.0)[0],
    "rank-0": _two_clusters,
    "single-leaf": _single_leaf,
}


def _check_kind(kind, fac):
    """The factorization has the node the case is named after."""
    root_id = fac.hss.tree.root
    root = fac._factors[root_id]
    # the root is an ordinary node of rank 0: no transform, all eliminated
    # (nothing at all when its children are of rank 0 too)
    assert root.omega is None and root.n_elim == root.n_loc
    assert (root.n_loc == 0) == (kind == "rank-0")
    inner = [f for i, f in enumerate(fac._factors) if i != root_id]
    if kind == "pass-through":
        assert any(f.n_elim == 0 < f.n_loc for f in inner)
        assert any(f.n_elim > 0 for f in inner)
    elif kind == "rank-0":
        assert any(f.omega is None and f.n_elim == f.n_loc > 0 for f in inner)
    else:
        assert not inner


def _shift(A, definite):
    """``+1`` on a PSD kernel matrix, or minus the midpoint of its two
    middle eigenvalues: ``A + shift I`` is then indefinite but no closer
    to singular than half their gap."""
    if definite:
        return 1.0
    eig = np.linalg.eigvalsh(A)
    m = eig.size // 2
    return -0.5 * (eig[m - 1] + eig[m])


class TestNodeKinds:
    @pytest.mark.parametrize("definite", [True, False],
                             ids=["spd", "indefinite"])
    @pytest.mark.parametrize("kind", sorted(NODE_KINDS))
    def test_solve_matches_numpy(self, kind, definite):
        hss = NODE_KINDS[kind]()
        A = hss.to_dense()
        shift = _shift(A, definite)
        shifted = A + shift * np.eye(hss.n)
        eig = np.linalg.eigvalsh(shifted)
        assert (eig[0] > 0) == definite and eig[-1] > 0
        fac = ULVFactorization.factor(hss, lam=shift)
        _check_kind(kind, fac)
        B = np.random.default_rng(2).standard_normal((hss.n, 3))
        X_ref = np.linalg.solve(shifted, B)
        for b, x_ref in ((B, X_ref), (B[:, 0], X_ref[:, 0])):
            x = fac.solve(b)
            assert x.shape == b.shape
            assert np.linalg.norm(x - x_ref) <= 1e-9 * np.linalg.norm(x_ref)

    @pytest.mark.parametrize("kind", sorted(NODE_KINDS))
    def test_refactor_shares_the_lambda_free_half_and_is_a_cold_factor(
            self, kind):
        hss = NODE_KINDS[kind]()
        shift = _shift(hss.to_dense(), definite=False)
        resident = ULVFactorization.factor(hss, lam=1.0)
        warm = resident.refactor(shift)
        cold = ULVFactorization.factor(hss, lam=shift)
        assert len(warm._factors) == len(cold._factors) == hss.tree.n_nodes
        for new, old, ref in zip(warm._factors, resident._factors,
                                 cold._factors):
            assert new.omega is old.omega and new.u_hat is old.u_hat
            assert (new.n_loc, new.n_elim) == (ref.n_loc, ref.n_elim)
            assert_same_arrays(new, ref, FACTOR_FIELDS)
        b = np.random.default_rng(3).standard_normal((hss.n, 2))
        np.testing.assert_array_equal(warm.solve(b), cold.solve(b))
        assert not np.array_equal(warm.solve(b), resident.solve(b))

    @pytest.mark.parametrize("kind", sorted(NODE_KINDS))
    def test_a_node_stores_exactly_its_factors(self, kind):
        assert [f.name for f in dataclasses.fields(_NodeFactors)] == [
            "n_loc", "n_elim", *FACTOR_FIELDS]
        fac = ULVFactorization.factor(NODE_KINDS[kind](), lam=1.0)
        total = 0
        for f in fac._factors:
            n_keep = f.n_loc - f.n_elim
            assert f.u_hat.shape[0] == n_keep
            if f.omega is not None:
                assert f.omega.shape == (f.n_loc, f.n_loc)
                np.testing.assert_allclose(f.omega @ f.omega.T,
                                           np.eye(f.n_loc), atol=1e-12)
            if f.n_elim:
                assert f.lu.shape == (f.n_elim, f.n_elim)
                assert f.piv.shape == (f.n_elim,)
                assert f.w.shape == (f.n_elim, n_keep)
            else:
                assert f.lu is None and f.piv is None and f.w is None
            total += sum(getattr(f, name).nbytes for name in FACTOR_FIELDS
                         if getattr(f, name) is not None)
        assert fac.factor_bytes == total

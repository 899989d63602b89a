"""The GEMV Lloyd step of two-means is bitwise the two-subtraction loop.

``repro.clustering.two_means`` assigns a point from the sign of one GEMV,
``||c0||^2 - ||c1||^2 - 2 x.(c0 - c1)``, and decides the rows inside its
rounding band (and the one-cluster branch) with the reference formula
``sum((x - c)**2)``.  ``tests/two_means_oracle.py`` keeps the loop that
formed both distances in full; every mask and tree here must be its bits.
"""

from __future__ import annotations

import numpy as np
import pytest
import two_means_oracle as oracle

from repro.clustering import two_means
from repro.clustering.two_means import two_means_split, two_means_tree
from repro.datasets import mnist_like, susy_like


def _assert_split_as_oracle(points, seed, max_iter=20):
    got = two_means_split(points, rng=seed, max_iter=max_iter)
    ref = oracle.two_means_split(points, rng=seed, max_iter=max_iter)
    assert got.dtype == ref.dtype and np.array_equal(got, ref)
    return got


def _assert_tree_as_oracle(X, seed, leaf_size=16, max_iter=20):
    got = two_means_tree(X, leaf_size=leaf_size, max_iter=max_iter, seed=seed)
    ref = oracle.two_means_tree(X, leaf_size=leaf_size, max_iter=max_iter,
                                seed=seed)
    assert np.array_equal(got.perm, ref.perm)
    assert [(n.start, n.stop, n.left, n.right) for n in got.nodes] == \
        [(n.start, n.stop, n.left, n.right) for n in ref.nodes]
    return got


@pytest.mark.parametrize("name, X", [
    ("mnist_like", mnist_like(512, seed=1)[0]),
    ("susy_like", susy_like(1024, seed=2)[0]),
])
class TestDatasets:
    @pytest.mark.parametrize("seed", range(4))
    def test_split_masks(self, name, X, seed):
        for points in (X, X[: X.shape[0] // 3], X[1::5]):
            _assert_split_as_oracle(points, seed)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_tree_perm_and_node_bounds(self, name, X, seed):
        _assert_tree_as_oracle(X, seed)
        _assert_tree_as_oracle(X[:300], seed, leaf_size=8, max_iter=3)


class TestDegenerateInputs:
    @pytest.mark.parametrize("seed", range(6))
    def test_duplicated_rows(self, seed):
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((12, 30))
        X = base[rng.integers(0, 12, size=200)]     # every row repeated
        _assert_split_as_oracle(X, seed)
        _assert_tree_as_oracle(X, seed, leaf_size=4)

    @pytest.mark.parametrize("m", [2, 3, 17, 64])
    def test_all_identical_rows(self, m):
        X = np.tile(np.linspace(-1.0, 2.0, 9), (m, 1))
        for seed in range(3):
            mask = _assert_split_as_oracle(X, seed)
            assert mask.sum() == m // 2             # the equal split
        _assert_tree_as_oracle(X, 0, leaf_size=2)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("d", [1, 4, 784])
    def test_two_and_three_points(self, m, d):
        rng = np.random.default_rng(m * d)
        for seed in range(8):
            X = rng.standard_normal((m, d))
            _assert_split_as_oracle(X, seed)
            _assert_split_as_oracle(X, seed, max_iter=1)
            X[1] = X[0]
            _assert_split_as_oracle(X, seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_one_lloyd_step(self, seed):
        X = mnist_like(256, seed=seed)[0]
        _assert_split_as_oracle(X, seed, max_iter=1)
        _assert_tree_as_oracle(X, seed, max_iter=1)


def _mirrored_ties(a, b, d=784, ties=16, pairs=8, seed=0):
    """Points planted on the bisector of two mirror-image seed points.

    ``A`` and ``B`` differ only in coordinates 0 and ``d - 1`` (``a`` and
    ``b``), swapped: ``B`` is ``A`` reflected across the hyperplane
    ``x_0 = x_{d-1}``.
    The tie rows lie on that hyperplane: their two squared distances are
    sums of the same terms in another order, so ``d0 <= d1`` is decided
    by rounding alone and ``||c0||^2 - ||c1||^2 - 2 x.(c0 - c1)`` is
    rounding noise too.  The mirrored pairs are reflections of each other.
    Returns the points, the seed rows and the tie rows.
    """
    rng = np.random.default_rng(seed)
    middle = rng.standard_normal(d - 2)
    A = np.concatenate([[a], middle, [b]])
    B = np.concatenate([[b], middle, [a]])
    on_plane = middle + 0.1 * rng.standard_normal((ties, d - 2))
    t = rng.uniform(-4.0, 4.0, (ties, 1))
    tie_rows = np.hstack([t, on_plane, t])
    left = np.hstack([rng.uniform(-4.0, 4.0, (pairs, 1)),
                      middle + 0.1 * rng.standard_normal((pairs, d - 2)),
                      rng.uniform(-4.0, 4.0, (pairs, 1))])
    right = left[:, ::-1].copy()
    right[:, 1:-1] = left[:, 1:-1]
    X = np.vstack([A, B, tie_rows, left, right])
    return X, X[:2], X[2:2 + ties]


def _seed_picking(X, seeds):
    """The first generator seed whose two-means seeding picks rows 0 and 1."""
    for seed in range(5000):
        c0, c1, _ = oracle._seed_centers(X, np.random.default_rng(seed))
        if {c0.tobytes(), c1.tobytes()} == {s.tobytes() for s in seeds}:
            return seed
    raise AssertionError("no generator seed picks the mirror pair")


class TestPlantedTies:
    # (32, -32): the GEMV gives exactly 0 on every tie row; (17.3, 3.9):
    # ||c0||^2 - ||c1||^2 rounds to a few ulps, so it gives the same
    # non-zero sign on all of them
    @pytest.mark.parametrize("a, b", [(32.0, -32.0), (17.3, 3.9)])
    @pytest.mark.parametrize("data_seed", range(3))
    def test_ties_on_the_bisector_take_the_exact_fallback(
            self, monkeypatch, a, b, data_seed):
        X, seeds, ties = _mirrored_ties(a, b, seed=data_seed)
        seed = _seed_picking(X, seeds)
        decided = []
        reference = two_means._sq_distances

        def spy(points, center):
            decided.append(points.copy())
            return reference(points, center)

        monkeypatch.setattr(two_means, "_sq_distances", spy)
        # one Lloyd step returns the decisions at the mirror pair itself;
        # the GEMV's sign alone gets some tie rows wrong on them
        _assert_split_as_oracle(X, seed, max_iter=1)
        # that step sent every tie row, and no row off the bisector, to the
        # reference formula (the seeding measures all rows with it)
        first_step = {row.tobytes() for row in next(
            rows for rows in decided if rows.shape[0] < X.shape[0])}
        assert {row.tobytes() for row in ties} <= first_step
        assert len(first_step) == ties.shape[0]
        _assert_split_as_oracle(X, seed)
        _assert_tree_as_oracle(X, seed, leaf_size=4)

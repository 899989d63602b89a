"""Tests for the deterministic and randomized HSS constructions."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.clustering import cluster, natural_tree
from repro.config import HSSOptions
from repro.datasets import load_dataset
from repro.hss import (HSSMatrix, build_hss_from_dense, build_hss_randomized,
                       build_random, compress_kernel)
from repro.kernels import DenseMatrixOperator, GaussianKernel, KernelOperator
from repro.utils.random import as_generator


def _clustered_kernel(n=200, d=6, h=1.0, lam=1.0, seed=0, method="two_means"):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((6, d)) * 4.0
    X = centers[rng.integers(6, size=n)] + 0.5 * rng.standard_normal((n, d))
    result = cluster(X, method=method, leaf_size=16, seed=seed)
    K = GaussianKernel(h=h).matrix(result.X) + lam * np.eye(n)
    return K, result


class TestDenseBuilder:
    def test_reconstruction_tight_tolerance(self, clustered_kernel_matrix):
        K, result = clustered_kernel_matrix
        hss = build_hss_from_dense(K, result.tree, HSSOptions(rel_tol=1e-8))
        err = np.linalg.norm(hss.to_dense() - K) / np.linalg.norm(K)
        assert err < 1e-6

    def test_reconstruction_loose_tolerance(self, clustered_kernel_matrix):
        K, result = clustered_kernel_matrix
        hss = build_hss_from_dense(K, result.tree, HSSOptions(rel_tol=0.1))
        err = np.linalg.norm(hss.to_dense() - K) / np.linalg.norm(K)
        assert err < 0.3  # loose tolerance still bounded
        tight = build_hss_from_dense(K, result.tree, HSSOptions(rel_tol=1e-8))
        assert hss.max_rank <= tight.max_rank
        assert hss.nbytes <= tight.nbytes

    def test_nonsymmetric_matrix_is_rejected(self):
        rng = np.random.default_rng(1)
        n = 128
        # A smooth nonsymmetric matrix with low-rank off-diagonal blocks.
        t = np.linspace(0, 1, n)
        A = 1.0 / (1.0 + 5.0 * np.abs(t[:, None] - t[None, :] * 0.7)) \
            + np.diag(rng.uniform(1, 2, n))
        tree = natural_tree(np.column_stack([t, t]), leaf_size=16)
        with pytest.raises(ValueError, match="symmetric"):
            build_hss_from_dense(A, tree, HSSOptions(rel_tol=1e-9))

    def test_single_leaf_tree(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((10, 10))
        A = A @ A.T + 10 * np.eye(10)
        tree = natural_tree(rng.standard_normal((10, 2)), leaf_size=16)
        hss = build_hss_from_dense(A, tree, HSSOptions())
        np.testing.assert_allclose(hss.to_dense(), A)

    def test_dimension_mismatch_raises(self, clustered_kernel_matrix):
        K, result = clustered_kernel_matrix
        with pytest.raises(ValueError, match="dimension"):
            build_hss_from_dense(K[:-2, :-2], result.tree)

    def test_max_rank_cap_respected(self, clustered_kernel_matrix):
        K, result = clustered_kernel_matrix
        hss = build_hss_from_dense(K, result.tree,
                                   HSSOptions(rel_tol=1e-12, max_rank=10))
        assert hss.max_rank <= 10

    def test_validation_of_node_shapes(self, clustered_kernel_matrix):
        K, result = clustered_kernel_matrix
        hss = build_hss_from_dense(K, result.tree, HSSOptions(rel_tol=1e-6))
        # Corrupt a B block and verify the validator notices.
        for node_id, data in enumerate(hss.node_data):
            if data.B12 is not None and data.B12.size:
                data.B12 = data.B12[:, :-1] if data.B12.shape[1] > 1 else np.zeros((1, 5))
                break
        with pytest.raises(ValueError):
            HSSMatrix(hss.tree, hss.node_data)


class TestRandomizedBuilder:
    def test_matches_dense_builder(self):
        K, result = _clustered_kernel(n=192, seed=3)
        opts = HSSOptions(rel_tol=1e-7)
        dense_hss = build_hss_from_dense(K, result.tree, opts)
        op = DenseMatrixOperator(K)
        rand_hss, stats = build_hss_randomized(op, result.tree, opts, rng=0)
        err = np.linalg.norm(rand_hss.to_dense() - K) / np.linalg.norm(K)
        assert err < 1e-5
        assert stats.random_vectors >= opts.initial_samples
        # Ranks should be comparable (randomized may differ slightly).
        assert abs(rand_hss.max_rank - dense_hss.max_rank) <= 10

    def test_kernel_operator_input(self):
        K, result = _clustered_kernel(n=160, h=1.5, lam=0.0, seed=4)
        op = KernelOperator(result.X, GaussianKernel(h=1.5))
        hss, stats = build_hss_randomized(op, result.tree, HSSOptions(rel_tol=1e-6),
                                          rng=1)
        err = np.linalg.norm(hss.to_dense() - K) / np.linalg.norm(K)
        assert err < 1e-4
        assert stats.element_evaluations > 0
        assert stats.sample_time >= 0.0

    def test_adaptive_rounds_increase_random_vectors(self):
        # Force adaptation by starting with very few samples on a matrix of
        # moderately large off-diagonal rank.
        K, result = _clustered_kernel(n=256, h=0.8, seed=5)
        op = DenseMatrixOperator(K)
        opts = HSSOptions(rel_tol=1e-8, initial_samples=8, sample_increment=16,
                          oversampling=4)
        hss, stats = build_hss_randomized(op, result.tree, opts, rng=2)
        assert stats.rounds >= 2
        assert stats.random_vectors > 8
        err = np.linalg.norm(hss.to_dense() - K) / np.linalg.norm(K)
        assert err < 1e-5

    def test_loose_tolerance_smaller_memory(self):
        K, result = _clustered_kernel(n=192, seed=7)
        op = DenseMatrixOperator(K)
        loose, _ = build_hss_randomized(op, result.tree, HSSOptions(rel_tol=0.1),
                                        rng=0)
        tight, _ = build_hss_randomized(op, result.tree, HSSOptions(rel_tol=1e-6),
                                        rng=0)
        assert loose.nbytes <= tight.nbytes
        # Ranks are detected from random samples of different sizes, so exact
        # monotonicity is not guaranteed; allow a small slack.
        assert loose.max_rank <= tight.max_rank + 8

    def test_dimension_mismatch(self):
        K, result = _clustered_kernel(n=64, seed=8)
        op = DenseMatrixOperator(K[:32, :32])
        with pytest.raises(ValueError, match="dimension"):
            build_hss_randomized(op, result.tree)

    def test_reproducible_with_seed(self):
        K, result = _clustered_kernel(n=96, seed=9)
        op = DenseMatrixOperator(K)
        h1, _ = build_hss_randomized(op, result.tree, HSSOptions(rel_tol=1e-6), rng=11)
        h2, _ = build_hss_randomized(op, result.tree, HSSOptions(rel_tol=1e-6), rng=11)
        np.testing.assert_allclose(h1.to_dense(), h2.to_dense(), atol=1e-12)


class TestStatistics:
    def test_memory_accounting_matches_nbytes(self, clustered_kernel_matrix):
        K, result = clustered_kernel_matrix
        hss = build_hss_from_dense(K, result.tree, HSSOptions(rel_tol=1e-4))
        stats = hss.statistics()
        assert stats.total_bytes == hss.nbytes
        assert stats.total_bytes == (stats.bytes_diagonal + stats.bytes_bases +
                                     stats.bytes_coupling)
        assert stats.max_rank == hss.max_rank
        assert stats.n == hss.n
        assert stats.leaf_count == len(result.tree.leaves())
        assert 0 < stats.memory_mb < stats.dense_bytes / 2**20
        assert stats.compression_ratio > 1.0
        assert "memory" in stats.summary()

    def test_compression_beats_dense_for_clustered_data(self):
        K, result = _clustered_kernel(n=400, seed=10)
        hss = build_hss_from_dense(K, result.tree, HSSOptions(rel_tol=0.1))
        assert hss.nbytes < K.nbytes / 2


# --------------------------------------------------------------------------
# The subtree-ordered walk: same generators as a level-order walk, found out
# sooner when the sample is too small.

_GENERATORS = ("D", "U", "V", "B12", "B21", "row_skeleton", "col_skeleton")


class _SweepCounting:
    """An operator that records every sampling sweep's width and every
    block request."""

    def __init__(self, inner):
        self.inner = inner
        self.n = inner.n if hasattr(inner, "n") else inner.shape[0]
        self.sweeps = []
        self.blocks = []

    def matmat(self, V):
        self.sweeps.append(V.shape[1])
        return self.inner.matmat(V)

    def block(self, rows, cols):
        self.blocks.append((rows, cols))
        return self.inner.block(rows, cols)


def _level_order_reference(operator, tree, opts, seed):
    """The walk the builder used to make, through the builder's node kernel.

    Every attempt compresses the whole tree level by level, deepest level
    first, and a saturated node restarts all of it on a wider sample; the
    restart rule and the random stream are the builder's.  Returns the
    generators and the widths of the attempts.
    """
    rng = as_generator(seed)
    nodes = build_random._node_schedule(tree)
    leaves = {}
    for node_id in tree.leaves():
        index = tree.indices(node_id)
        leaves[node_id] = (index, np.asarray(operator.block(index, index),
                                             dtype=np.float64))
    widths = []

    def attempt(n_random, accept_saturated):
        widths.append(n_random)
        sample = build_random._Sample(operator, opts, rng, n_random, leaves,
                                      tree.root, accept_saturated)
        node_data, carries = [None] * tree.n_nodes, {}
        for level in reversed(tree.levels()):
            for node_id in level:
                node_data[node_id], carries[node_id] = sample.node(
                    nodes[node_id], node_data, carries)
        return node_data

    n = tree.n
    n_random = min(max(opts.initial_samples, 2 * opts.oversampling + 2), n)
    for _ in range(opts.max_adaptive_rounds):
        try:
            return attempt(n_random, False), widths
        except build_random._SaturatedSample:
            if n_random >= n:
                break
            n_random = min(max(2 * n_random,
                               n_random + opts.sample_increment), n)
    return attempt(n_random, True), widths


def _unclustered_like(n=512, method="natural"):
    """The ledger's ``unclustered`` recipe at a test's size."""
    data = load_dataset("susy", n_train=n, n_test=16, seed=0)
    result = cluster(data.X_train, method=method, leaf_size=16, seed=0)
    return result, GaussianKernel(h=data.h)


def _walk_case(name):
    """``(operator, tree, options)`` of one row of the walk table."""
    method = name.split("-")[0]
    result, kernel = _unclustered_like(method=method)
    if method == "two_means":
        assert len({result.tree.node(i).level
                    for i in result.tree.leaves()}) > 1      # unbalanced
    if name.endswith("rounds-exhausted"):
        opts = HSSOptions(rel_tol=1e-3, max_adaptive_rounds=2)
    elif name.endswith("small-start"):
        opts = HSSOptions(initial_samples=16, oversampling=4)
    else:
        opts = HSSOptions()
    return KernelOperator(result.X, kernel), result.tree, opts


class TestSubtreeOrderedWalk:
    @pytest.mark.parametrize("case,attempts", [
        ("natural", 2),
        ("natural-small-start", 3),        # two restarts
        ("two_means-small-start", 2),
        ("natural-rounds-exhausted", 3),   # last attempt accepts
    ])
    def test_generators_bitwise_equal_a_level_order_walk(self, case, attempts):
        operator, tree, opts = _walk_case(case)
        reference, widths = _level_order_reference(operator, tree, opts, seed=5)
        assert len(widths) == attempts

        counting = _SweepCounting(operator)
        hss, stats = build_hss_randomized(counting, tree, opts, rng=5)
        assert counting.sweeps == widths
        assert (stats.rounds, stats.random_vectors) == (len(widths), widths[-1])
        for node_id, (got, want) in enumerate(zip(hss.node_data, reference)):
            for name in _GENERATORS:
                a, b = getattr(got, name), getattr(want, name)
                assert (a is None) == (b is None), (node_id, name)
                if a is not None:
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert np.array_equal(a, b), (node_id, name)

    def test_postorder_visits_every_node_children_first(self):
        for method in ("natural", "two_means"):
            tree = _unclustered_like(method=method)[0].tree
            nodes = build_random._node_schedule(tree)
            order = [node[0]
                     for node in build_random._postorder(nodes, tree.root)]
            assert sorted(order) == list(range(tree.n_nodes))
            assert order[-1] == tree.root
            seen = set()
            for node_id in order:
                nd = tree.node(node_id)
                assert nd.is_leaf or {nd.left, nd.right} <= seen
                seen.add(node_id)

    def test_single_leaf_and_two_leaf_trees(self):
        rng = np.random.default_rng(2)
        for n in (10, 24):
            X = rng.standard_normal((n, 2))
            tree = natural_tree(X, leaf_size=16)
            K = GaussianKernel(h=1.0).matrix(X)
            hss, stats = build_hss_randomized(
                DenseMatrixOperator(K), tree, HSSOptions(rel_tol=1e-10), rng=0)
            np.testing.assert_allclose(hss.to_dense(), K, atol=1e-8)
            assert stats.nodes_compressed == tree.n_nodes
            assert stats.nodes_discarded == 0

    def test_a_discarded_attempt_costs_a_subtree_not_the_tree(self, monkeypatch):
        """Level by level, an attempt at this fixture's first width met its
        saturated node after 33 of 63 compressions; in post-order it is met
        right after its own subtree."""
        result, kernel = _unclustered_like()
        operator = _SweepCounting(KernelOperator(result.X, kernel))
        per_attempt = []
        compress = build_random.row_id

        def counted(*args, **kwargs):
            while len(per_attempt) < len(operator.sweeps):
                per_attempt.append(0)
            per_attempt[-1] += 1
            return compress(*args, **kwargs)

        monkeypatch.setattr(build_random, "row_id", counted)
        hss, stats = build_hss_randomized(operator, result.tree,
                                          HSSOptions(), rng=0)
        n_nodes = result.tree.n_nodes
        assert stats.rounds == len(per_attempt) >= 2
        assert per_attempt[-1] == n_nodes - 1          # the root compresses nothing
        for discarded in per_attempt[:-1]:
            assert discarded <= n_nodes // 4
        assert stats.nodes_discarded == sum(per_attempt[:-1])
        assert stats.nodes_compressed == stats.nodes_discarded + n_nodes
        assert 0.0 < stats.discarded_time < stats.construction_time

    def test_leaf_blocks_are_extracted_once_per_build(self):
        """They are exact entries no sample changes; re-extracting them per
        attempt was pure kernel evaluation."""
        result, kernel = _unclustered_like()
        operator = _SweepCounting(KernelOperator(result.X, kernel))
        hss, stats = build_hss_randomized(operator, result.tree, HSSOptions(),
                                          rng=0)
        assert stats.rounds >= 2
        diagonal = [rows for rows, cols in operator.blocks
                    if rows.shape == cols.shape and np.array_equal(rows, cols)]
        assert len(diagonal) == len(result.tree.leaves())

    def test_call_count_guard(self):
        """Per-node Python must not creep back into the walk.

        On this fixture (105 nodes, one attempt) the level-order builder on
        the ``scipy.linalg`` wrappers made 19 247 Python + C calls, 183 per
        node visit; the lean walk makes about 66 per visit.
        """
        import cProfile
        import pstats

        result, kernel = _unclustered_like(method="two_means")
        operator = KernelOperator(result.X, kernel)
        opts = HSSOptions()
        build_hss_randomized(operator, result.tree, opts, rng=0)   # warm caches
        profiler = cProfile.Profile()
        profiler.enable()
        _, stats = build_hss_randomized(operator, result.tree, opts, rng=0)
        profiler.disable()
        calls = pstats.Stats(profiler).total_calls
        assert calls <= 85 * stats.nodes_compressed, (
            f"{calls} calls for {stats.nodes_compressed} node visits")


class TestSamplingStats:
    def test_accept_saturated_paths_count_every_sweep(self):
        """``max_adaptive_rounds`` exhausted: the last sweep ran at the grown
        width, and was reported under the previous round's numbers."""
        rng = np.random.default_rng(0)
        X = rng.standard_normal((200, 2))
        tree = natural_tree(X, leaf_size=100)
        operator = _SweepCounting(
            DenseMatrixOperator(GaussianKernel(h=1.0).matrix(X)))
        opts = HSSOptions(rel_tol=1e-14, max_adaptive_rounds=2)
        _, stats = build_hss_randomized(operator, tree, opts, rng=0)
        assert operator.sweeps == [32, 64, 128]
        assert stats.rounds == 3
        assert stats.random_vectors == 128

    def test_full_width_sample_is_redrawn_once_and_counted(self):
        """``n_random >= n``: a saturated node cannot ask for more columns, so
        one more full-width sweep is accepted as it is."""
        rng = np.random.default_rng(1)
        n, r = 18, 7
        G = rng.standard_normal((n, r))
        A = 3.0 * np.eye(n) + G @ G.T
        tree = natural_tree(rng.standard_normal((n, 2)), leaf_size=9)
        operator = _SweepCounting(DenseMatrixOperator(A))
        # 9-row leaves of off-diagonal rank 7 >= 18 - 12: "saturated" at a
        # width that cannot grow
        opts = HSSOptions(rel_tol=1e-10, oversampling=12)
        hss, stats = build_hss_randomized(operator, tree, opts, rng=0)
        np.testing.assert_allclose(hss.to_dense(), A, atol=1e-8)
        assert operator.sweeps == [n, n]
        assert (stats.rounds, stats.random_vectors) == (2, n)
        assert stats.nodes_discarded > 0

    def test_span_reports_the_wasted_part(self):
        result, kernel = _unclustered_like()
        with obs.trace.span("test.root") as root:
            compress_kernel(result.X, result.tree, kernel, seed=0)
        attrs = root.find("hss.build").attributes
        assert attrs["nodes"] == result.tree.n_nodes
        assert attrs["rounds"] >= 2 and attrs["random_vectors"] >= 64
        assert attrs["nodes_compressed"] == attrs["nodes"] + attrs["nodes_discarded"]
        assert 0 < attrs["nodes_discarded"] < (attrs["rounds"] - 1) * attrs["nodes"]
        assert 0.0 < attrs["discarded_seconds"]
        assert 0.0 < attrs["sample_seconds"]

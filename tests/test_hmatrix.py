"""Tests for the H-matrix format: geometry, admissibility, build, matvec, sampler."""

from __future__ import annotations

import cProfile
import gc

import numpy as np
import pytest
from aca_oracle import aca_loop
from conftest import same_hmatrix_blocks

from repro import obs
from repro.clustering import cluster
from repro.config import HMatrixOptions, HSSOptions
from repro.datasets import mnist_like, standardize, susy_like
from repro.hmatrix import (BlockClusterTree, BoundingBox, ClusterGeometry,
                           HBlock, HMatrix, HMatrixSampler, build_hmatrix,
                           centroid_admissibility, cluster_bounding_boxes,
                           cluster_geometries, strong_admissibility)
from repro.hmatrix import build as hmatrix_build
from repro.hss import build_hss_randomized, compress_kernel
from repro.kernels import DenseMatrixOperator, GaussianKernel, KernelOperator


def _clustered_points(n=300, d=4, n_clusters=6, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_clusters, d)) * 6.0
    X = centers[rng.integers(n_clusters, size=n)] + 0.4 * rng.standard_normal((n, d))
    return X


def _computed(hm):
    """The leaves the build evaluated: on or above the diagonal."""
    return [b for b in hm.blocks if b.mirror_of is None]


@pytest.fixture()
def hmatrix_setup():
    X = _clustered_points()
    result = cluster(X, method="two_means", leaf_size=16, seed=0)
    op = KernelOperator(result.X, GaussianKernel(h=1.5))
    return result, op


class TestBoundingBox:
    def test_of_points_and_diameter(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
        box = BoundingBox.of_points(pts)
        np.testing.assert_allclose(box.lower, [0, 0])
        np.testing.assert_allclose(box.upper, [3, 4])
        assert box.diameter == pytest.approx(5.0)
        np.testing.assert_allclose(box.center, [1.5, 2.0])

    def test_distance_disjoint_and_overlapping(self):
        a = BoundingBox(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        b = BoundingBox(np.array([4.0, 0.0]), np.array([5.0, 1.0]))
        c = BoundingBox(np.array([0.5, 0.5]), np.array([2.0, 2.0]))
        assert a.distance(b) == pytest.approx(3.0)
        assert a.distance(c) == 0.0

    def test_invalid_box(self):
        with pytest.raises(ValueError):
            BoundingBox(np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            BoundingBox.of_points(np.zeros((0, 2)))


class TestClusterGeometry:
    def test_of_points(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        g = ClusterGeometry.of_points(pts)
        np.testing.assert_allclose(g.centroid, [1.0, 0.0])
        assert g.radius == pytest.approx(1.0)
        assert g.size == 2

    def test_merge_matches_direct_computation(self):
        rng = np.random.default_rng(1)
        a_pts = rng.standard_normal((30, 3))
        b_pts = rng.standard_normal((20, 3)) + 5.0
        merged = ClusterGeometry.merge(ClusterGeometry.of_points(a_pts),
                                       ClusterGeometry.of_points(b_pts))
        direct = ClusterGeometry.of_points(np.vstack([a_pts, b_pts]))
        np.testing.assert_allclose(merged.centroid, direct.centroid, atol=1e-10)
        assert merged.radius == pytest.approx(direct.radius, rel=1e-10)
        assert merged.size == 50

    def test_geometries_cover_all_nodes(self, hmatrix_setup):
        result, _ = hmatrix_setup
        geoms = cluster_geometries(result.X, result.tree)
        assert set(geoms) == set(range(result.tree.n_nodes))
        boxes = cluster_bounding_boxes(result.X, result.tree)
        root_geom = geoms[result.tree.root]
        np.testing.assert_allclose(root_geom.box.lower,
                                   boxes[result.tree.root].lower)


class TestAdmissibility:
    def test_strong_admissibility_far_boxes(self):
        a = BoundingBox(np.zeros(2), np.ones(2))
        b = BoundingBox(np.array([10.0, 10.0]), np.array([11.0, 11.0]))
        assert strong_admissibility(a, b, eta=1.5)
        assert not strong_admissibility(a, a, eta=1.5)

    def test_centroid_admissibility(self):
        g1 = ClusterGeometry.of_points(np.random.default_rng(0).standard_normal((50, 3)))
        g2 = ClusterGeometry.of_points(
            np.random.default_rng(1).standard_normal((50, 3)) + 20.0)
        assert centroid_admissibility(g1, g2, eta=1.0)
        assert not centroid_admissibility(g1, g1, eta=1.0)

    def test_invalid_eta(self):
        g = ClusterGeometry.of_points(np.zeros((2, 2)) + np.arange(2)[:, None])
        with pytest.raises(ValueError):
            centroid_admissibility(g, g, eta=0.0)


class TestBlockClusterTree:
    def test_leaves_tile_matrix(self, hmatrix_setup):
        result, _ = hmatrix_setup
        geoms = cluster_geometries(result.X, result.tree)
        btree = BlockClusterTree(result.tree, geoms, eta=1.0, leaf_size=32)
        assert btree.coverage_check()
        assert len(btree.admissible_leaves()) + len(btree.dense_leaves()) == \
            len(btree.leaves())

    def test_box_criterion_also_valid(self, hmatrix_setup):
        result, _ = hmatrix_setup
        geoms = cluster_geometries(result.X, result.tree)
        btree = BlockClusterTree(result.tree, geoms, eta=1.5, leaf_size=32,
                                 criterion="box")
        assert btree.coverage_check()

    def test_invalid_arguments(self, hmatrix_setup):
        result, _ = hmatrix_setup
        geoms = cluster_geometries(result.X, result.tree)
        with pytest.raises(ValueError):
            BlockClusterTree(result.tree, geoms, eta=0.0)
        with pytest.raises(ValueError):
            BlockClusterTree(result.tree, geoms, criterion="nope")


class TestHMatrixBuild:
    def test_accuracy_and_compression(self, hmatrix_setup):
        result, op = hmatrix_setup
        hm = build_hmatrix(op, result.X, result.tree,
                           HMatrixOptions(rel_tol=1e-6))
        A = op.to_dense()
        err = np.linalg.norm(hm.to_dense() - A) / np.linalg.norm(A)
        assert err < 1e-4
        assert hm.nbytes < A.nbytes  # compressed
        stats = hm.statistics()
        assert stats.admissible_blocks > 0
        assert stats.total_bytes == hm.nbytes

    def test_matvec_matches_dense(self, hmatrix_setup):
        result, op = hmatrix_setup
        hm = build_hmatrix(op, result.X, result.tree, HMatrixOptions(rel_tol=1e-7))
        A = op.to_dense()
        rng = np.random.default_rng(2)
        v = rng.standard_normal(hm.n)
        V = rng.standard_normal((hm.n, 3))
        np.testing.assert_allclose(hm.matvec(v), A @ v, atol=1e-5 * np.linalg.norm(A @ v))
        np.testing.assert_allclose(hm.matmat(V), A @ V,
                                   atol=1e-5 * np.linalg.norm(A @ V))

    def test_matvec_shape_check(self, hmatrix_setup):
        result, op = hmatrix_setup
        hm = build_hmatrix(op, result.X, result.tree)
        with pytest.raises(ValueError):
            hm.matvec(np.zeros(3))

    def test_tolerance_controls_memory(self, hmatrix_setup):
        result, op = hmatrix_setup
        loose = build_hmatrix(op, result.X, result.tree, HMatrixOptions(rel_tol=1e-1))
        tight = build_hmatrix(op, result.X, result.tree, HMatrixOptions(rel_tol=1e-8))
        assert loose.nbytes <= tight.nbytes


@pytest.fixture()
def wave_setup():
    """Uniform 2-D points: ~90 admissible blocks of many sizes, ranks to 18."""
    X = np.random.default_rng(0).uniform(size=(400, 2))
    result = cluster(X, method="two_means", leaf_size=16, seed=0)
    op = KernelOperator(result.X, GaussianKernel(h=0.5))
    return result, op, HMatrixOptions(leaf_size=16, rel_tol=1e-6)


class TestWaveAssembly:
    """Admissible leaves are compressed in waves; the waves decide nothing."""

    def test_blocks_are_what_the_one_block_loop_computes(self, wave_setup):
        # On an explicit matrix the extraction is a plain gather, so the
        # comparison with the oracle loop is exact.
        result, op, opts = wave_setup
        A = op.to_dense()
        opts = opts.with_(max_rank=9)
        hm = build_hmatrix(DenseMatrixOperator(A), result.X, result.tree, opts)
        lowrank = [b for b in _computed(hm) if b.lowrank is not None]
        assert len(lowrank) > 25
        assert {b.rank for b in lowrank} >= {4, 9}     # stopped early and capped
        for blk in lowrank:
            sub = A[blk.row_slice, blk.col_slice]
            ref = aca_loop(*sub.shape, lambda i: sub[i, :], lambda j: sub[:, j],
                           rel_tol=opts.rel_tol, max_rank=opts.max_rank)
            assert np.array_equal(blk.lowrank.U, ref.U)
            assert np.array_equal(blk.lowrank.V, ref.V)
        for blk in _computed(hm):
            if blk.dense is not None:
                assert np.array_equal(blk.dense, A[blk.row_slice, blk.col_slice])
        # every other leaf is its partner's transpose, factors swapped
        mirrored = [b for b in hm.blocks if b.mirror_of is not None]
        assert len(mirrored) == len(hm.block_tree.mirror_partners()) > 25
        by_id = {b.block_id: b for b in hm.blocks}
        for blk in mirrored:
            partner = by_id[blk.mirror_of]
            assert partner.mirror_of is None
            assert (blk.row_slice, blk.col_slice) == (
                partner.col_slice, partner.row_slice) == (
                hm.block_tree.block_ranges(blk.block_id))
            if blk.dense is not None:
                assert np.array_equal(blk.dense, partner.dense.T)
            else:
                assert blk.lowrank.U is partner.lowrank.V
                assert blk.lowrank.V is partner.lowrank.U

    def test_wave_geometry_does_not_change_the_matrix(self, wave_setup,
                                                      monkeypatch):
        result, op, opts = wave_setup
        one_wave = build_hmatrix(op, result.X, result.tree, opts)
        monkeypatch.setattr(hmatrix_build, "WAVE_BUDGET", 1)    # a wave per block
        per_block = build_hmatrix(op, result.X, result.tree, opts)
        assert same_hmatrix_blocks(one_wave, per_block)

    def test_pack_waves(self, monkeypatch):
        monkeypatch.setattr(hmatrix_build, "WAVE_BUDGET", 10)
        pack = hmatrix_build._pack_waves
        assert pack([], []) == []
        assert pack([7, 8, 9], [4, 6, 1]) == [[7, 8], [9]]
        # a block above the budget travels alone, order is kept
        assert pack([1, 2, 3, 4], [3, 50, 5, 5]) == [[1], [2], [3, 4]]

    def test_span_reports_the_assembly(self, hmatrix_setup):
        result, _ = hmatrix_setup
        with obs.trace.span("test.root") as root:
            compressed = compress_kernel(result.X, result.tree,
                                         GaussianKernel(h=1.5), seed=0)
        outer = root.find("kernel.compress")
        assert [c.name for c in outer.children] == ["hmatrix.build", "hss.build"]
        span = outer.children[0]
        assert span.find("h_construction") is not None
        # the same assembly again, on the build's own block tree
        hm = build_hmatrix(KernelOperator(result.X, GaussianKernel(h=1.5)),
                           result.X, result.tree,
                           block_tree=compressed.block_tree)
        stats = hm.statistics()
        attrs = span.attributes
        assert attrs["admissible_blocks"] == stats.admissible_blocks > 0
        assert attrs["dense_blocks"] == stats.dense_blocks > 0
        assert attrs["mirrored_blocks"] == sum(
            b.mirror_of is not None for b in hm.blocks) > 0
        assert attrs["max_rank"] == stats.max_rank > 0
        assert attrs["waves"] == 1
        assert attrs["max_rank"] <= attrs["iterations"] <= 150
        # the ACA counters count the computed leaves
        assert attrs["zero_blocks"] == sum(
            b.lowrank.rank == 0 for b in _computed(hm) if b.lowrank is not None)
        assert attrs["rows_scanned"] >= 0
        assert span.as_dict()["attributes"] == attrs

    def test_span_counts_zero_blocks_and_scanned_rows(self, hmatrix_setup):
        """At a bandwidth where the kernel underflows between clusters, the
        far-field blocks come out rank 0 through the row scan: every row
        the walk would sample is fetched by the scan but the first of each
        block."""
        result, _ = hmatrix_setup
        opts = HMatrixOptions(leaf_size=16)
        with obs.trace.span("test.root") as root:
            hm = build_hmatrix(KernelOperator(result.X, GaussianKernel(h=0.3)),
                               result.X, result.tree, opts)
        attrs = root.find("hmatrix.build").attributes
        lowrank = [b for b in _computed(hm) if b.lowrank is not None]
        zero = [b for b in lowrank if b.lowrank.rank == 0]
        assert attrs["zero_blocks"] == len(zero) > 0
        # a mirrored leaf is screened through its partner, never itself
        assert attrs["zero_blocks"] < sum(
            b.lowrank.rank == 0 for b in hm.blocks if b.lowrank is not None)
        walked = sum(min(b.lowrank.shape) for b in zero)
        assert attrs["rows_scanned"] >= walked - len(zero)
        # rows sampled per wave: the largest walk of the (single) wave
        assert attrs["waves"] == 1
        assert attrs["iterations"] >= max(min(b.lowrank.shape) for b in zero)

    def test_call_count_budget(self):
        """Per-block Python must not creep back into the assembly.

        The one-block-at-a-time loop made 530 423 Python + C calls on this
        fixture (604 admissible blocks, 359 dense); the wavefront makes
        about 71 000.  The budget is under a third of the old count.
        """
        X, _ = susy_like(512, seed=0)
        result = cluster(standardize(X), method="two_means", leaf_size=16,
                         seed=0)
        op = KernelOperator(result.X, GaussianKernel(h=1.0))
        opts = HMatrixOptions(leaf_size=16)
        profiler = cProfile.Profile()
        gc.collect()
        gc.disable()
        try:
            hm = profiler.runcall(
                lambda: build_hmatrix(op, result.X, result.tree, options=opts))
        finally:
            gc.enable()
        stats = hm.statistics()
        assert (stats.admissible_blocks, stats.dense_blocks) == (604, 359)
        calls = sum(entry.callcount for entry in profiler.getstats())
        assert calls <= 150_000, calls


def _mirror_datasets():
    susy = standardize(susy_like(384, seed=0)[0])
    mnist = mnist_like(256, seed=0)[0]
    base = susy_like(96, seed=1)[0]
    duplicated = np.vstack([np.repeat(base, 3, axis=0), np.tile(base[:1], (40, 1))])
    return {"susy_like": susy, "mnist_like": mnist, "duplicated": duplicated}


class TestMirroredLeaves:
    """A leaf below the diagonal is its partner's transpose, never computed."""

    @pytest.mark.parametrize("criterion", ["centroid", "box"])
    @pytest.mark.parametrize("name", ["susy_like", "mnist_like", "duplicated"])
    def test_every_leaf_has_a_transposed_partner_of_its_kind(self, criterion,
                                                              name):
        result = cluster(_mirror_datasets()[name], method="two_means",
                         leaf_size=16, seed=0)
        btree = BlockClusterTree(result.tree,
                                 cluster_geometries(result.X, result.tree),
                                 eta=1.5, leaf_size=16, criterion=criterion)
        kind = {(b.row_node, b.col_node): b.admissible
                for b in btree.blocks if b.is_leaf}
        assert len(kind) > len(result.tree.leaves())       # off-diagonal leaves
        for (s, t), admissible in kind.items():
            assert kind[t, s] == admissible
        # the partners the build uses: each leaf below the diagonal, once
        start = {(b.row_node, b.col_node): btree.block_ranges(i)
                 for i, b in enumerate(btree.blocks) if b.is_leaf}
        below = {i for i, b in enumerate(btree.blocks) if b.is_leaf
                 and start[b.row_node, b.col_node][0].start
                 > start[b.row_node, b.col_node][1].start}
        partners = btree.mirror_partners()
        assert set(partners) == below
        assert not below & set(partners.values())
        for i, j in partners.items():
            a, b = btree.blocks[i], btree.blocks[j]
            assert (a.row_node, a.col_node) == (b.col_node, b.row_node)

    def test_mirrored_leaves_share_their_partners_memory(self, hmatrix_setup):
        result, op = hmatrix_setup
        opts = HMatrixOptions(leaf_size=16)
        hm = build_hmatrix(op, result.X, result.tree, opts)
        by_id = {b.block_id: b for b in hm.blocks}
        mirrored = [b for b in hm.blocks if b.mirror_of is not None]
        assert {b.dense is None for b in mirrored} == {True, False}
        for blk in mirrored:
            partner = by_id[blk.mirror_of]
            pairs = ([(blk.dense, partner.dense)] if blk.dense is not None
                     else [(blk.lowrank.U, partner.lowrank.V),
                           (blk.lowrank.V, partner.lowrank.U)])
            for mine, theirs in pairs:
                assert mine.base is theirs or mine is theirs
                assert theirs.size == 0 or np.shares_memory(mine, theirs)
        stored = sum(b.nbytes for b in _computed(hm))
        assert hm.nbytes == hm.statistics().total_bytes == stored
        assert stored < sum(b.nbytes for b in hm.blocks)
        compressed = compress_kernel(result.X, result.tree, op.kernel,
                                     hmatrix_options=opts, seed=0)
        assert compressed.report.hmatrix_memory_mb == pytest.approx(
            stored / 2**20)

    @pytest.mark.parametrize("h", [0.3, 1.5])
    def test_no_entry_below_the_diagonal_is_evaluated(self, hmatrix_setup, h):
        """Extraction, ACA samples and rank-0 screens all stay on the
        computed leaves (h = 0.3: far-field blocks scan at rank 0)."""
        result, _ = hmatrix_setup
        op = _RecordingOperator(KernelOperator(result.X, GaussianKernel(h=h)))
        hm = build_hmatrix(op, result.X, result.tree,
                           HMatrixOptions(leaf_size=16))
        mirrored = np.zeros(hm.shape, dtype=bool)
        for blk in hm.blocks:
            mirrored[blk.row_slice, blk.col_slice] = blk.mirror_of is not None
        assert mirrored.any()
        assert set(op.calls) == ({"block", "row_segments", "col_segments",
                                  "screen_rows"} if h == 0.3 else
                                 {"block", "row_segments", "col_segments"})
        assert op.seen.any() and not (op.seen & mirrored).any()
        # every computed leaf was touched
        for blk in _computed(hm):
            assert op.seen[blk.row_slice, blk.col_slice].any()


class _RecordingOperator:
    """Marks every matrix entry the wrapped operator is asked for."""

    def __init__(self, op):
        self._op = op
        self.seen = np.zeros(op.shape, dtype=bool)
        self.calls = []

    def __getattr__(self, name):
        return getattr(self._op, name)

    def _ranges(self, starts, lengths):
        return [np.arange(a, a + n) for a, n in zip(starts, lengths)]

    def block(self, rows, cols):
        self.calls.append("block")
        self.seen[np.ix_(rows, cols)] = True
        return self._op.block(rows, cols)

    def row_segments(self, rows, starts, lengths):
        self.calls.append("row_segments")
        for row, cols in zip(rows, self._ranges(starts, lengths)):
            self.seen[row, cols] = True
        return self._op.row_segments(rows, starts, lengths)

    def col_segments(self, cols, starts, lengths):
        self.calls.append("col_segments")
        for col, rows in zip(cols, self._ranges(starts, lengths)):
            self.seen[rows, col] = True
        return self._op.col_segments(cols, starts, lengths)

    def screen_rows(self, firsts, counts, starts, lengths):
        self.calls.append("screen_rows")
        for first, count, start, length in zip(firsts, counts, starts,
                                               lengths):
            self.seen[first:first + count, start:start + length] = True
        return self._op.screen_rows(firsts, counts, starts, lengths)


class TestHMatrixSampler:
    def test_sampler_delegates_segment_extraction(self, hmatrix_setup):
        result, op = hmatrix_setup
        hm = build_hmatrix(op, result.X, result.tree)
        sampler = HMatrixSampler(hm, op)
        args = (np.array([4, 40]), np.array([0, 38]), np.array([9, 5]))
        assert np.array_equal(sampler.row_segments(*args), op.row_segments(*args))
        assert np.array_equal(sampler.col_segments(*args), op.col_segments(*args))

    def test_sampler_products_and_elements(self, hmatrix_setup):
        result, op = hmatrix_setup
        hm = build_hmatrix(op, result.X, result.tree, HMatrixOptions(rel_tol=1e-7))
        sampler = HMatrixSampler(hm, op)
        A = op.to_dense()
        V = np.random.default_rng(3).standard_normal((hm.n, 4))
        np.testing.assert_allclose(sampler.matmat(V), A @ V,
                                   atol=1e-5 * np.linalg.norm(A @ V))
        rows = np.array([0, 5, 10])
        cols = np.array([1, 2])
        # Element extraction must be exact (it goes to the exact operator).
        np.testing.assert_allclose(sampler.block(rows, cols),
                                   A[np.ix_(rows, cols)], atol=1e-12)
        assert sampler.n == hm.n
        assert sampler.matvec_sweeps >= 1

    def test_hss_built_through_sampler_matches_exact(self, hmatrix_setup):
        result, op = hmatrix_setup
        hm = build_hmatrix(op, result.X, result.tree, HMatrixOptions(rel_tol=1e-7))
        sampler = HMatrixSampler(hm, op)
        opts = HSSOptions(rel_tol=1e-5)
        hss_exact, _ = build_hss_randomized(op, result.tree, opts, rng=0)
        hss_sampled, _ = build_hss_randomized(sampler, result.tree, opts, rng=0)
        A = op.to_dense()
        err_exact = np.linalg.norm(hss_exact.to_dense() - A) / np.linalg.norm(A)
        err_sampled = np.linalg.norm(hss_sampled.to_dense() - A) / np.linalg.norm(A)
        assert err_sampled < 50 * max(err_exact, 1e-6)

    def test_no_transpose_products(self):
        # Kernel matrices are symmetric: the HSS build samples with
        # ``matmat`` alone, so nothing offers ``A.T @ V``.
        for cls in (HMatrix, HMatrixSampler):
            assert not hasattr(cls, "rmatvec") and not hasattr(cls, "rmatmat")
        assert not hasattr(HBlock, "rproduct")
        assert not hasattr(HBlock, "rmatvec_into")

    def test_dimension_mismatch(self, hmatrix_setup):
        result, op = hmatrix_setup
        hm = build_hmatrix(op, result.X, result.tree)
        other = KernelOperator(result.X[:-10], GaussianKernel(h=1.0))
        with pytest.raises(ValueError):
            HMatrixSampler(hm, other)

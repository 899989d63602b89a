"""Tests for adaptive cross approximation (partial and full pivoting)."""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from aca_oracle import aca_loop

from repro import obs
from repro.clustering import cluster
from repro.config import HMatrixOptions
from repro.hmatrix import build_hmatrix
from repro.kernels import (KERNEL_REGISTRY, DenseMatrixOperator,
                           GaussianKernel, KernelOperator, PolynomialKernel)
from repro.lowrank import aca, aca_blocks, aca_full

#: the module, which the package's ``aca`` function shadows
aca_module = importlib.import_module("repro.lowrank.aca")

#: the ACA's default pivot floor
FLOOR = 1e-14


def _lowrank_matrix(m, n, r, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, r)) @ rng.standard_normal((r, n))


def _kernel_block(seed=0, m=60, n=50, separation=5.0, h=4.0):
    """A kernel block between two well separated clusters (genuinely low rank)."""
    rng = np.random.default_rng(seed)
    A_pts = rng.standard_normal((m, 3))
    B_pts = rng.standard_normal((n, 3)) + separation
    return GaussianKernel(h=h).matrix(A_pts, B_pts)


def _fns(A):
    return (lambda i: A[i, :], lambda j: A[:, j])


class TestPartialACA:
    def test_exact_on_lowrank(self):
        A = _lowrank_matrix(30, 40, 4)
        row_fn, col_fn = _fns(A)
        result = aca(30, 40, row_fn, col_fn, rel_tol=1e-10)
        assert result.converged
        assert result.rank >= 4
        np.testing.assert_allclose(result.lowrank.to_dense(), A,
                                   atol=1e-6 * np.abs(A).max())

    def test_kernel_block_compression(self):
        A = _kernel_block()
        row_fn, col_fn = _fns(A)
        result = aca(*A.shape, row_fn, col_fn, rel_tol=1e-4)
        err = np.linalg.norm(result.lowrank.to_dense() - A) / np.linalg.norm(A)
        assert err < 1e-3
        assert result.rank < min(A.shape) // 2  # genuinely compressed

    def test_rank_cap(self):
        A = _lowrank_matrix(20, 20, 10)
        row_fn, col_fn = _fns(A)
        result = aca(20, 20, row_fn, col_fn, rel_tol=1e-12, max_rank=3)
        assert result.rank == 3

    def test_zero_block(self):
        A = np.zeros((10, 12))
        row_fn, col_fn = _fns(A)
        result = aca(10, 12, row_fn, col_fn, rel_tol=1e-6)
        assert result.rank == 0
        np.testing.assert_allclose(result.lowrank.to_dense(), A)

    def test_empty_block(self):
        result = aca(0, 5, lambda i: np.zeros(5), lambda j: np.zeros(0))
        assert result.rank == 0
        assert result.lowrank.shape == (0, 5)

    def test_sampled_rows_and_cols_counted(self):
        A = _kernel_block(seed=1)
        row_fn, col_fn = _fns(A)
        result = aca(*A.shape, row_fn, col_fn, rel_tol=1e-6)
        assert result.rows_sampled >= result.rank
        assert result.cols_sampled >= result.rank
        # The whole point of ACA: the number of sampled rows/columns is much
        # smaller than the block dimensions.
        assert result.rows_sampled < A.shape[0]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            aca(-1, 5, lambda i: None, lambda j: None)
        with pytest.raises(ValueError):
            aca(5, 5, lambda i: None, lambda j: None, rel_tol=0.0)


    def test_converged_means_stopped_or_exhausted(self):
        # Stopping rule met.
        A = _lowrank_matrix(30, 40, 4)
        assert aca(30, 40, *_fns(A), rel_tol=1e-10).converged
        # max_rank cut the iteration short: not converged.
        B = _lowrank_matrix(20, 20, 10)
        capped = aca(20, 20, *_fns(B), rel_tol=1e-12, max_rank=3)
        assert capped.rank == 3 and not capped.converged
        # A zero block is exhausted after min(m, n) skipped rows, rank 0.
        for shape in ((10, 12), (12, 10)):
            zero = aca(*shape, *_fns(np.zeros(shape)))
            assert zero.rank == 0 and zero.converged
            assert zero.rows_sampled == 10 and zero.cols_sampled == 0
        # ... unless max_rank stops the search for a non-zero row first.
        assert not aca(10, 12, *_fns(np.zeros((10, 12))), max_rank=4).converged
        # Full rank reached without the stopping rule: the block is exhausted.
        C = np.random.default_rng(0).standard_normal((6, 9))
        full = aca(6, 9, *_fns(C), rel_tol=1e-15)
        assert full.rank == 6 and full.converged
        np.testing.assert_allclose(full.lowrank.to_dense(), C, atol=1e-9)

    def test_sampler_contract_is_checked(self):
        A = _lowrank_matrix(8, 9, 2)
        with pytest.raises(ValueError, match="expected 9"):
            aca(8, 9, lambda i: A[i, :5], lambda j: A[:, j])
        bad = A.copy()
        bad[0, 3] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            aca(8, 9, *_fns(bad))


def _recording(base):
    """``base`` operator that logs which row/column each segment call sampled.

    The rows of the rank-0 row scan are logged too, block after block of
    each screen, in order: a skipped row counts as sampled whether it was
    screened or extracted.  ``row_sizes`` holds the entries of every row
    extraction of either kind, in order (a screen's buffer is one);
    ``screens`` the ``counts`` and ``lengths`` of every screen.  (Only
    for kernels that are ``decreasing``: the others screen through
    ``row_segments``, which would log those rows twice.)
    """

    class Recording(base):
        def __init__(self, *args):
            super().__init__(*args)
            self.row_log, self.col_log = [], []
            self.row_sizes, self.screens = [], []

        def row_segments(self, rows, starts, lengths):
            self.row_sizes.append(int(np.sum(lengths)))
            self.row_log.extend(zip(starts.tolist(), rows.tolist()))
            return super().row_segments(rows, starts, lengths)

        def screen_rows(self, firsts, counts, starts, lengths):
            self.row_sizes.append(int(np.sum(counts * lengths)))
            self.screens.append((counts.copy(), lengths.copy()))
            for first, count, start in zip(firsts.tolist(), counts.tolist(),
                                           starts.tolist()):
                self.row_log.extend((start, row)
                                    for row in range(first, first + count))
            return super().screen_rows(firsts, counts, starts, lengths)

        def col_segments(self, cols, starts, lengths):
            self.col_log.extend(zip(starts.tolist(), cols.tolist()))
            return super().col_segments(cols, starts, lengths)

    Recording.__name__ = f"Recording{base.__name__}"
    return Recording


_RecordingOperator = _recording(DenseMatrixOperator)
_RecordingKernelOperator = _recording(KernelOperator)


def _ragged_problem(seed, n_blocks=18, max_side=40):
    """A square matrix and random ragged, non-overlapping-in-rows block set.

    The matrix mixes what an H-matrix build meets: smooth kernel blocks of
    well separated clusters (low rank), duplicated points (exact ties in
    every pivot search), numerically zero regions and plain noise (full
    rank).  Blocks come in every shape: m < n, n < m, 1 x k, k x 1, empty.
    """
    rng = np.random.default_rng(seed)
    half = n_blocks * max_side
    left = rng.standard_normal((half, 3))
    right = rng.standard_normal((half, 3)) + 3.0
    left[1::7] = left[::7][:left[1::7].shape[0]]        # duplicated points
    K = GaussianKernel(h=2.0).matrix(np.vstack([left, right]))
    K[: half // 6] = 0.0                                # numerically zero rows
    K[half // 6: half // 3, half:] = rng.standard_normal(
        (half // 3 - half // 6, half))                  # noise: full rank
    rows, cols = [], []
    for b in range(n_blocks):
        m, n = rng.integers(0, max_side, size=2)
        if b % 6 == 0:
            m = 1
        elif b % 6 == 1:
            n = 1
        r0 = b * max_side
        c0 = half + int(rng.integers(0, half - max_side))
        rows.append((r0, r0 + int(m)))
        cols.append((c0, c0 + int(n)))
    return K, rows, cols


class TestWavefrontAgainstOracle:
    """The wavefront reproduces the one-block loop: pivots, ranks, factors."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("max_rank", [None, 1, 5])
    def test_ragged_block_sets(self, seed, max_rank):
        K, rows, cols = _ragged_problem(seed)
        op = _RecordingOperator(K)
        results = aca_blocks(op, rows, cols, rel_tol=1e-6, max_rank=max_rank)
        assert len(results) == len(rows)
        ranks = set()
        for (r0, r1), (c0, c1), got in zip(rows, cols, results):
            sub = K[r0:r1, c0:c1]
            ref = aca_loop(*sub.shape, lambda i: sub[i, :], lambda j: sub[:, j],
                           rel_tol=1e-6, max_rank=max_rank)
            # same pivot sequence (rows are disjoint across blocks, so the
            # row range identifies the block in both logs) ...
            assert [p - r0 for s, p in op.row_log if s == c0
                    and r0 <= p < r1] == ref.row_pivots
            assert [p - c0 for s, p in op.col_log if s == r0
                    and c0 <= p < c1] == ref.col_pivots
            # ... hence the same rank, and the same arithmetic entry by entry
            assert got.rank == ref.rank
            assert got.rows_sampled == len(ref.row_pivots)
            assert np.array_equal(got.lowrank.U, ref.U)
            assert np.array_equal(got.lowrank.V, ref.V)
            np.testing.assert_allclose(got.lowrank.to_dense(), ref.U @ ref.V.T,
                                       rtol=0, atol=1e-12)
            hit_cap = (max_rank is not None
                       and len(ref.row_pivots) == max_rank < min(sub.shape))
            assert got.converged == (ref.stopped or not hit_cap)
            ranks.add(got.rank)
        if max_rank is None:
            assert 0 in ranks and max(ranks) > 8    # the mix is exercised

    def test_single_entry_matches_oracle(self):
        A = _kernel_block(seed=3)
        got = aca(*A.shape, *_fns(A), rel_tol=1e-8)
        ref = aca_loop(*A.shape, *_fns(A), rel_tol=1e-8)
        assert np.array_equal(got.lowrank.U, ref.U)
        assert np.array_equal(got.lowrank.V, ref.V)

    def test_block_alone_equals_block_inside_a_wave(self):
        K, rows, cols = _ragged_problem(7, n_blocks=50, max_side=16)
        op = DenseMatrixOperator(K)
        together = aca_blocks(op, rows, cols, rel_tol=1e-5)
        for b in (0, 3, 17, 49):
            alone = aca_blocks(op, rows[b:b + 1], cols[b:b + 1], rel_tol=1e-5)[0]
            assert np.array_equal(alone.lowrank.U, together[b].lowrank.U)
            assert np.array_equal(alone.lowrank.V, together[b].lowrank.V)
            assert alone.converged == together[b].converged
        # and any split of the wave gives the same blocks
        split = (aca_blocks(op, rows[:20], cols[:20], rel_tol=1e-5)
                 + aca_blocks(op, rows[20:], cols[20:], rel_tol=1e-5))
        for a, b in zip(split, together):
            assert np.array_equal(a.lowrank.U, b.lowrank.U)
            assert np.array_equal(a.lowrank.V, b.lowrank.V)

    def test_results_do_not_pin_the_wave_buffers(self):
        # Rank-1 and one-row factors are "contiguous" slices of the wave's
        # buffers; returned as views they would keep every wave alive.
        K, rows, cols = _ragged_problem(1)
        for res in aca_blocks(DenseMatrixOperator(K), rows, cols, max_rank=1):
            assert res.lowrank.U.base is None and res.lowrank.V.base is None

    def test_no_blocks_and_mismatched_ranges(self):
        op = DenseMatrixOperator(np.eye(4))
        assert aca_blocks(op, [], []) == []
        with pytest.raises(ValueError):
            aca_blocks(op, [(0, 2)], [(0, 2), (2, 4)])


def _segment_fns(op, rows, cols):
    """``row_fn`` / ``col_fn`` of ``op[r0:r1, c0:c1]`` through its segments."""
    (r0, r1), (c0, c1) = rows, cols

    def row_fn(i):
        return op.row_segments(np.array([r0 + i]), np.array([c0]),
                               np.array([c1 - c0]))

    def col_fn(j):
        return op.col_segments(np.array([c0 + j]), np.array([r0]),
                               np.array([r1 - r0]))
    return row_fn, col_fn


def _assert_as_oracle(op, rows, cols, oracle_op, **kwargs):
    """``aca_blocks`` of ``op`` equals the one-block loop fed through the
    segment extraction of ``oracle_op``, block by block and bit for bit."""
    results = aca_blocks(op, rows, cols, **kwargs)
    for block_rows, block_cols, got in zip(rows, cols, results):
        shape = (block_rows[1] - block_rows[0], block_cols[1] - block_cols[0])
        ref = aca_loop(*shape, *_segment_fns(oracle_op, block_rows, block_cols),
                       **kwargs)
        assert got.rank == ref.rank
        assert got.rows_sampled == len(ref.row_pivots)
        assert np.array_equal(got.lowrank.U, ref.U)
        assert np.array_equal(got.lowrank.V, ref.V)
        max_rank = kwargs.get("max_rank")
        hit_cap = (max_rank is not None
                   and len(ref.row_pivots) == max_rank < min(shape))
        assert got.converged == (ref.stopped or not hit_cap)
    return results


def _far_clusters(seed=0, m=70, n=50, d=20, gap=8.0):
    """Two Gaussian clouds whose kernel (h = 1) underflows between them;
    rows 40 .. 44 of the first cloud sit inside the second."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, d))
    B = rng.standard_normal((n, d)) + gap
    A[40:45] = B[:5] + 0.1 * rng.standard_normal((5, d))
    return np.vstack([A, B])


class TestRankZeroRowScan:
    """A block skipping rows at rank 0 screens them a chunk at a time; every
    result stays the row-by-row walk's (see ``repro.lowrank.aca``)."""

    def test_kernel_far_field_matches_the_oracle_bitwise(self):
        X = _far_clusters()
        kernel = GaussianKernel(h=1.0)
        # all-zero blocks, blocks whose pivot row comes after 1, 5, 40 skips,
        # and a wide and a tall one
        rows = [(0, 40), (0, 12), (39, 70), (35, 50), (0, 45), (38, 70), (60, 62)]
        cols = [(70, 120), (70, 73), (70, 120), (71, 90), (75, 120), (70, 74),
                (70, 120)]
        op = KernelOperator(X, kernel)
        results = _assert_as_oracle(op, rows, cols, KernelOperator(X, kernel),
                                    rel_tol=1e-8)
        assert [r.rank for r in results][:2] == [0, 0]
        assert all(r.rank > 0 for r in results[2:6])
        assert sum(r.rows_scanned for r in results) > 80
        _assert_as_oracle(op, rows, cols, KernelOperator(X, kernel),
                          rel_tol=1e-8, max_rank=3)

    @pytest.mark.parametrize("planted", [
        np.nextafter(FLOOR, 0.0), FLOOR, np.nextafter(FLOOR, 1.0),
        0.5 * FLOOR, 2.0 * FLOOR, -np.nextafter(FLOOR, 0.0), -FLOOR])
    def test_rows_at_the_floor_are_decided_as_the_oracle_decides(self, planted):
        rng = np.random.default_rng(0)
        A = np.zeros((128, 128))
        A[:80, 96:] = 1e-16 * rng.standard_normal((80, 32))
        rows, cols = [], []
        for b, k in enumerate((0, 1, 3, 6, 13)):        # planted after k rows
            A[16 * b + k, 96 + 5 * b] = planted
            rows.append((16 * b, 16 * b + 16))
            cols.append((96, 128))
        rows.append((0, 80))                            # all five in one block
        cols.append((96, 128))
        op = DenseMatrixOperator(A)
        results = _assert_as_oracle(op, rows, cols, DenseMatrixOperator(A))
        assert {r.rank for r in results[:5]} == ({0} if abs(planted) < FLOOR
                                                 else {1})

    @pytest.mark.parametrize("ratio", [0.3, 0.9, 0.999999, 1.000001, 1.1, 3.0])
    def test_kernel_rows_near_the_floor_are_decided_on_their_own_bits(
            self, ratio):
        # Row i sits at the distance where the Gaussian equals ratio *
        # FLOOR from its nearest column point; rows before it are far away.
        r = np.sqrt(-2.0 * np.log(ratio * FLOOR))
        cols = np.zeros((8, 3))
        cols[:, 1] = 1e-3 * np.arange(8)
        rows = np.zeros((24, 3))
        rows[:, 0] = 30.0 + np.arange(24)
        for k in (2, 7, 17):
            rows[k, 0] = r
        X = np.vstack([rows, cols])
        kernel = GaussianKernel(h=1.0)
        results = _assert_as_oracle(
            KernelOperator(X, kernel), [(0, 24), (3, 24), (8, 24)],
            [(24, 32)] * 3, KernelOperator(X, kernel))
        assert results[0].rows_scanned > 0

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 9])
    def test_nan_in_a_scanned_row_still_raises(self, k):
        A = np.zeros((20, 20))
        A[k, 13] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            aca_blocks(DenseMatrixOperator(A), [(0, 10)], [(10, 20)])
        with pytest.raises(ValueError, match="NaN"):
            aca(20, 20, *_fns(A))

    @pytest.mark.parametrize("shape", [(1, 5), (5, 1), (2, 9), (7, 30),
                                       (30, 7), (16, 16), (33, 40), (64, 65)])
    def test_zero_block_costs_the_walk_in_log_many_extractions(self, shape):
        m, n = shape
        op = _RecordingOperator(np.zeros((m + n, m + n)))
        result = aca_blocks(op, [(0, m)], [(m, m + n)])[0]
        assert result.rank == 0 and result.converged
        assert result.rows_sampled == min(m, n)
        assert op.element_evaluations == min(m, n) * n
        assert len(op.row_sizes) <= int(np.ceil(np.log2(min(m, n)))) + 1
        assert [row for _, row in op.row_log] == list(range(min(m, n)))
        # the kernel operator counts the same entries
        X = np.vstack([np.zeros((m, 4)), np.full((n, 4), 10.0)])
        kop = KernelOperator(X, GaussianKernel(h=1.0))
        assert aca_blocks(kop, [(0, m)], [(m, m + n)])[0].rank == 0
        assert kop.element_evaluations == min(m, n) * n

    @pytest.mark.parametrize("cap", [16, 64, 1000])
    @pytest.mark.parametrize("shape", [(40, 30), (30, 40), (200, 9),
                                       (9, 200), (97, 61)])
    def test_every_screen_stays_under_the_cap(self, monkeypatch, cap, shape):
        monkeypatch.setattr(aca_module, "_SCAN_ENTRIES", cap)
        m, n = shape
        op = _RecordingOperator(np.zeros((m + n, m + n)))
        result = aca_blocks(op, [(0, m)], [(m, m + n)])[0]
        assert result.rank == 0 and result.rows_sampled == min(m, n)
        assert op.element_evaluations == min(m, n) * n
        assert max(op.row_sizes) <= max(cap, n)
        rows = max(1, cap // n)
        assert len(op.row_sizes) <= (int(np.ceil(np.log2(min(m, n))))
                                     + int(np.ceil(min(m, n) / rows)))

    def test_a_large_zero_block_stays_under_the_default_cap(self):
        # a far field that underflows: 500 x 500 entries, all screened
        X = np.vstack([np.zeros((600, 4)), np.full((500, 4), 10.0)])
        op = KernelOperator(X, GaussianKernel(h=1.0))
        sizes = []
        screen_rows = op.screen_rows
        op.screen_rows = lambda firsts, counts, starts, lengths: (
            sizes.append(int(np.sum(counts * lengths)))
            or screen_rows(firsts, counts, starts, lengths))
        result = aca_blocks(op, [(0, 600)], [(600, 1100)])[0]
        assert result.rank == 0 and result.rows_sampled == 500
        assert op.element_evaluations == 500 * 500
        assert max(sizes) <= aca_module._SCAN_ENTRIES < 500 * 500

    def test_an_operator_without_the_screen_fails_on_every_input(self):
        class SegmentsOnly:
            def __init__(self, A):
                dense = DenseMatrixOperator(A)
                self.row_segments = dense.row_segments
                self.col_segments = dense.col_segments

        # this block never skips a row at rank 0, yet needs the screen
        A = _lowrank_matrix(20, 20, 3) + 1.0
        with pytest.raises(AttributeError, match="screen_rows"):
            aca_blocks(SegmentsOnly(A), [(0, 10)], [(10, 20)])

    @pytest.mark.parametrize("k", range(0, 40, 3))
    def test_a_pivot_after_k_skips_costs_at_most_k_extra_rows(self, k):
        rng = np.random.default_rng(k)
        A = np.zeros((96, 96))
        A[k:48, 48:] = rng.standard_normal((48 - k, 48))
        op = _RecordingOperator(A)
        ref = aca_loop(48, 48, lambda i: A[i, 48:], lambda j: A[:48, 48 + j],
                       rel_tol=1e-8)
        got = aca_blocks(op, [(0, 48)], [(48, 96)], rel_tol=1e-8)[0]
        assert np.array_equal(got.lowrank.U, ref.U)
        assert np.array_equal(got.lowrank.V, ref.V)
        assert len(op.row_log) <= len(ref.row_pivots) + k
        assert op.element_evaluations <= 48 * (len(ref.row_pivots) + k
                                               + len(ref.col_pivots))

    @pytest.mark.parametrize("name", sorted(KERNEL_REGISTRY))
    @pytest.mark.parametrize("d", [1, 3, 100])
    def test_the_screen_bounds_the_sampled_rows(self, name, d):
        kernel = (KERNEL_REGISTRY[name]() if name in ("polynomial", "linear")
                  else KERNEL_REGISTRY[name](h=0.7 * np.sqrt(d)))
        rng = np.random.default_rng(d)
        X = rng.standard_normal((90, d)) * rng.uniform(0.01, 3.0, (90, 1))
        X[60:63] = X[0]                                 # duplicate points
        op = KernelOperator(X, kernel)
        blocks = [(0, 30, 30, 60), (5, 1, 0, 90), (58, 8, 0, 64)]
        bound = op.screen_rows(*np.array(blocks).T)
        exact = np.concatenate([np.abs(op.row_segments(
            np.arange(first, first + count), np.full(count, start),
            np.full(count, length))).reshape(count, length).max(axis=1)
            for first, count, start, length in blocks])
        assert bound.shape == (39,)
        if kernel.decreasing:
            assert (bound >= exact).all()
        else:
            assert np.array_equal(bound, exact)
        # one block at a time, the same bounds
        assert np.array_equal(bound, np.concatenate(
            [op.screen_rows(*np.array([blk]).T) for blk in blocks]))

    @pytest.mark.parametrize("noise, zero_blocks", [(1e-9, 1), (1.5e-9, 0)])
    def test_polynomial_far_field_build_matches_the_oracle_bitwise(
            self, noise, zero_blocks):
        # Two clouds in orthogonal subspaces: the inner products between
        # them cancel to ~1e-7, around the floor once squared, so a GEMM
        # and the row GEMVs could decide differently.  At the larger noise
        # the far-field blocks find their pivot rows after skipping some.
        rng = np.random.default_rng(0)
        X = np.zeros((256, 6))
        X[:128, :3] = 10.0 + rng.standard_normal((128, 3))
        X[128:, 3:] = 10.0 + rng.standard_normal((128, 3))
        X[:128, 3:] = noise * rng.standard_normal((128, 3))
        X[128:, :3] = noise * rng.standard_normal((128, 3))
        result = cluster(X, method="two_means", leaf_size=16, seed=0)
        kernel = PolynomialKernel(degree=2, gamma=1.0, coef0=0.0)
        opts = HMatrixOptions(leaf_size=16, rel_tol=1e-6)
        with obs.trace.span("test.root") as root:
            hm = build_hmatrix(KernelOperator(result.X, kernel), result.X,
                               result.tree, opts)
        attrs = root.find("hmatrix.build").attributes
        assert attrs["rows_scanned"] > 0
        oracle_op = KernelOperator(result.X, kernel)
        # the ACA runs on the computed leaves; the others mirror them
        lowrank = [blk for blk in hm.blocks
                   if blk.lowrank is not None and blk.mirror_of is None]
        assert attrs["zero_blocks"] == zero_blocks == sum(
            b.lowrank.rank == 0 for b in lowrank)
        by_id = {blk.block_id: blk for blk in hm.blocks}
        for blk in hm.blocks:
            if blk.lowrank is not None and blk.mirror_of is not None:
                partner = by_id[blk.mirror_of].lowrank
                assert blk.lowrank.U is partner.V and blk.lowrank.V is partner.U
        for blk in lowrank:
            rows = (blk.row_slice.start, blk.row_slice.stop)
            cols = (blk.col_slice.start, blk.col_slice.stop)
            ref = aca_loop(rows[1] - rows[0], cols[1] - cols[0],
                           *_segment_fns(oracle_op, rows, cols),
                           rel_tol=opts.rel_tol, max_rank=opts.max_rank)
            assert np.array_equal(blk.lowrank.U, ref.U)
            assert np.array_equal(blk.lowrank.V, ref.V)


def _mixed_wave(seed=0, d=20):
    """Points and one wave of blocks of every kind, rows pairwise disjoint.

    The rows come from a cloud far from the columns' (the Gaussian, h = 1,
    underflows between them), except rows planted inside the column cloud
    after 1, 17 and 40 far rows; the last two blocks are near-field blocks
    inside the column cloud, which take ordinary crosses from row 0.
    """
    rng = np.random.default_rng(seed)
    far = rng.standard_normal((320, d))
    near = rng.standard_normal((200, d)) + 8.0
    for row in (121, 177, 270):                     # the late pivot rows
        far[row] = near[row % 200] + 0.1 * rng.standard_normal(d)
    X = np.vstack([far, near])
    rows = [(0, 40), (40, 100), (100, 103), (103, 110),     # zero blocks
            (120, 160), (160, 230), (230, 300),                 # late pivots
            (320, 360), (360, 420)]                             # ordinary
    cols = [(320, 360), (320, 520), (450, 460), (330, 520),
            (320, 520), (320, 400), (320, 520),
            (420, 470), (470, 520)]
    return X, rows, cols


def _evaluations(op, rows, cols):
    """Per block, the entries its logged rows and columns evaluated."""
    counts = []
    for (r0, r1), (c0, c1) in zip(rows, cols):
        n_rows = sum(s == c0 and r0 <= p < r1 for s, p in op.row_log)
        n_cols = sum(s == r0 and c0 <= p < c1 for s, p in op.col_log)
        counts.append(n_rows * (c1 - c0) + n_cols * (r1 - r0))
    return counts


class TestBatchedScreenWave:
    """Blocks of a wave that scan at rank 0 advance one stage together,
    through one screen per stage (per bounded buffer); each block screens,
    evaluates and factors exactly what it does alone."""

    @pytest.mark.parametrize("cap", [None, 64, 1000])
    @pytest.mark.parametrize("kind", ["kernel", "dense"])
    def test_a_mixed_wave_is_its_blocks_alone(self, monkeypatch, kind, cap):
        if cap is not None:
            monkeypatch.setattr(aca_module, "_SCAN_ENTRIES", cap)
        limit = aca_module._SCAN_ENTRIES
        X, rows, cols = _mixed_wave()
        kernel = GaussianKernel(h=1.0)
        K = kernel.matrix(X)

        def operator(base=None):
            if kind == "kernel":
                return (base or _RecordingKernelOperator)(X, kernel)
            return (base or _RecordingOperator)(K)

        op = operator()
        wave = _assert_as_oracle(
            op, rows, cols,
            operator(KernelOperator if kind == "kernel" else
                     DenseMatrixOperator), rel_tol=1e-8)
        ranks = [r.rank for r in wave]
        assert ranks[:4] == [0, 0, 0, 0] and min(ranks[4:]) > 0
        assert [r.rows_scanned > 0 for r in wave] == [True] * 7 + [False] * 2
        per_block = _evaluations(op, rows, cols)
        assert sum(per_block) == op.element_evaluations
        alone_screens = []
        for b, got in enumerate(wave):
            solo = operator()
            ref = aca_blocks(solo, rows[b:b + 1], cols[b:b + 1],
                             rel_tol=1e-8)[0]
            assert got.rows_scanned == ref.rows_scanned
            assert got.rows_sampled == ref.rows_sampled
            assert got.converged == ref.converged
            assert np.array_equal(got.lowrank.U, ref.lowrank.U)
            assert np.array_equal(got.lowrank.V, ref.lowrank.V)
            assert per_block[b] == solo.element_evaluations
            alone_screens.append(len(solo.screens))
        # one screen per stage for all the scanning blocks at once (at
        # the default constant the whole stage fits one buffer; at 64
        # every block's chunk needs a buffer of its own) ...
        assert len(op.screens) <= sum(alone_screens)
        if cap is None:
            assert len(op.screens) == max(alone_screens)
        elif cap == 1000:
            assert len(op.screens) < sum(alone_screens)
        # ... and every stage buffer under the constant (a block whose
        # one row is wider than it: alone)
        for counts, lengths in op.screens:
            entries = int(np.sum(counts * lengths))
            assert entries <= limit or (counts.tolist() == [1]
                                        and entries == lengths[0])

    def test_zero_blocks_scan_in_lock_step(self):
        # blocks that all skip from their first row take one screen per
        # doubling stage between them, however many there are
        X = np.vstack([np.zeros((400, 4)), np.full((300, 4), 10.0)])
        rows = [(k * 40, k * 40 + 40) for k in range(10)]
        cols = [(400, 700)] * 10
        op = _RecordingKernelOperator(X, GaussianKernel(h=1.0))
        results = aca_blocks(op, rows, cols)
        assert all(r.rank == 0 and r.rows_sampled == 40 for r in results)
        assert op.element_evaluations == 10 * 40 * 300
        solo = _RecordingKernelOperator(X, GaussianKernel(h=1.0))
        aca_blocks(solo, rows[:1], cols[:1])
        # every stage of the ten (at most 10 * 16 rows * 300 entries) fits
        # one buffer
        assert len(op.screens) == len(solo.screens) <= int(np.ceil(
            np.log2(40))) + 1
        assert [row for _, row in op.row_log if row < 40] == list(range(40))


class TestFullACA:
    def test_exact_on_lowrank(self):
        A = _lowrank_matrix(25, 18, 5, seed=3)
        result = aca_full(A, rel_tol=1e-12)
        np.testing.assert_allclose(result.lowrank.to_dense(), A,
                                   atol=1e-8 * np.abs(A).max())

    def test_rank_detection(self):
        A = _lowrank_matrix(30, 30, 7, seed=4)
        result = aca_full(A, rel_tol=1e-10)
        assert result.rank == 7

    def test_agrees_with_partial_on_kernel_block(self):
        A = _kernel_block(seed=5)
        partial = aca(*A.shape, *_fns(A), rel_tol=1e-8)
        full = aca_full(A, rel_tol=1e-8)
        err_p = np.linalg.norm(partial.lowrank.to_dense() - A)
        err_f = np.linalg.norm(full.lowrank.to_dense() - A)
        assert err_p <= 10 * max(err_f, 1e-8 * np.linalg.norm(A))

    def test_zero_matrix(self):
        result = aca_full(np.zeros((5, 5)))
        assert result.rank == 0

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            aca_full(np.zeros(5))

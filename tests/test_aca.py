"""Tests for adaptive cross approximation (partial and full pivoting)."""

from __future__ import annotations

import numpy as np
import pytest
from aca_oracle import aca_loop

from repro.kernels import DenseMatrixOperator, GaussianKernel
from repro.lowrank import aca, aca_blocks, aca_full


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


class _RecordingOperator(DenseMatrixOperator):
    """Dense operator that logs which row/column each segment call sampled."""

    def __init__(self, A):
        super().__init__(A)
        self.row_log, self.col_log = [], []

    def row_segments(self, rows, starts, lengths):
        self.row_log.extend(zip(starts.tolist(), rows.tolist()))
        return super().row_segments(rows, starts, lengths)

    def col_segments(self, cols, starts, lengths):
        self.col_log.extend(zip(starts.tolist(), cols.tolist()))
        return super().col_segments(cols, starts, lengths)


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

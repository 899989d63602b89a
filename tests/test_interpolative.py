"""Tests for the interpolative decompositions (row / column ID)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lowrank import column_id, rank_from_tolerance, row_id, rrqr


def _lowrank_matrix(m, n, r, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    if noise:
        A += noise * rng.standard_normal((m, n))
    return A


class TestRowID:
    def test_exact_reconstruction_of_lowrank(self):
        A = _lowrank_matrix(30, 50, 5)
        rid = row_id(A, rel_tol=1e-10)
        assert rid.rank == 5
        np.testing.assert_allclose(rid.interp @ A[rid.skeleton], A, atol=1e-7)

    def test_interp_contains_identity_on_skeleton(self):
        A = _lowrank_matrix(20, 25, 4, noise=1e-3)
        rid = row_id(A, rel_tol=1e-6)
        block = rid.interp[rid.skeleton]
        np.testing.assert_allclose(block, np.eye(rid.rank), atol=1e-10)

    def test_skeleton_indices_valid(self):
        A = _lowrank_matrix(15, 10, 3)
        rid = row_id(A, rel_tol=1e-8)
        assert np.all(rid.skeleton >= 0) and np.all(rid.skeleton < 15)
        assert len(np.unique(rid.skeleton)) == rid.rank

    def test_max_rank_cap(self):
        A = _lowrank_matrix(20, 20, 8)
        rid = row_id(A, rel_tol=1e-12, max_rank=3)
        assert rid.rank == 3

    def test_tolerance_controls_error(self):
        A = _lowrank_matrix(40, 40, 20, noise=0.0)
        loose = row_id(A, rel_tol=1e-1)
        tight = row_id(A, rel_tol=1e-8)
        err_loose = np.linalg.norm(loose.interp @ A[loose.skeleton] - A)
        err_tight = np.linalg.norm(tight.interp @ A[tight.skeleton] - A)
        assert err_tight <= err_loose + 1e-12
        assert tight.rank >= loose.rank

    def test_zero_matrix(self):
        rid = row_id(np.zeros((6, 4)), rel_tol=1e-8)
        assert rid.rank == 0
        assert rid.interp.shape == (6, 0)

    def test_empty_matrix(self):
        rid = row_id(np.zeros((0, 4)))
        assert rid.rank == 0

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            row_id(np.zeros(5))


class TestColumnID:
    def test_exact_reconstruction(self):
        A = _lowrank_matrix(40, 30, 6)
        cid = column_id(A, rel_tol=1e-10)
        assert cid.rank == 6
        np.testing.assert_allclose(A[:, cid.skeleton] @ cid.interp, A, atol=1e-7)

    def test_interp_identity_on_skeleton_columns(self):
        A = _lowrank_matrix(25, 20, 5, noise=1e-3)
        cid = column_id(A, rel_tol=1e-6)
        np.testing.assert_allclose(cid.interp[:, cid.skeleton], np.eye(cid.rank),
                                   atol=1e-10)

    def test_row_and_column_id_are_transposes(self):
        A = _lowrank_matrix(18, 22, 4, seed=7)
        rid = row_id(A, rel_tol=1e-9)
        cid = column_id(A.T, rel_tol=1e-9)
        np.testing.assert_array_equal(np.sort(rid.skeleton), np.sort(cid.skeleton))

    @settings(max_examples=20, deadline=None)
    @given(m=st.integers(3, 25), n=st.integers(3, 25), r=st.integers(1, 5),
           seed=st.integers(0, 10**6))
    def test_property_reconstruction_error_bounded(self, m, n, r, seed):
        A = _lowrank_matrix(m, n, min(r, m, n), seed=seed, noise=0.0)
        rid = row_id(A, rel_tol=1e-8)
        err = np.linalg.norm(rid.interp @ A[rid.skeleton] - A)
        scale = max(np.linalg.norm(A), 1e-12)
        assert err <= 1e-5 * scale


def _scipy_column_id(M, rel_tol, abs_tol, max_rank):
    """The ``scipy.linalg`` formulation the lean kernel replaced (the oracle)."""
    n = M.shape[1]
    if M.size == 0:
        return np.zeros((0, n)), np.zeros(0, dtype=np.intp), 0
    _, R, piv = scipy.linalg.qr(M, mode="economic", pivoting=True)
    rank = rank_from_tolerance(np.diag(R), rel_tol, abs_tol, max_rank)
    piv = np.asarray(piv, dtype=np.intp)
    if rank == 0:
        return np.zeros((0, n)), np.zeros(0, dtype=np.intp), 0
    if rank < n:
        T = scipy.linalg.solve_triangular(R[:rank, :rank], R[:rank, rank:],
                                          lower=False)
    else:
        T = np.zeros((rank, 0))
    P = np.empty((rank, n))
    P[:, piv[:rank]] = np.eye(rank)
    P[:, piv[rank:]] = T
    return P, piv[:rank].copy(), rank


#: (m, n, exact rank, noise, rel_tol, max_rank)
_ORACLE_SHAPES = [
    (12, 40, 5, 1e-9, 1e-6, None),      # m < n
    (40, 12, 5, 1e-9, 1e-6, None),      # m > n
    (32, 64, 20, 1e-3, 1e-1, None),     # the builder's loose tolerance
    (30, 30, 30, 0.0, 1e-12, None),     # full rank: T is empty
    (9, 30, 9, 0.0, 1e-12, None),       # rank == m < n
    (25, 18, 6, 1e-6, 1e-8, 1),         # rank 1: a 1 x 1 triangular solve
    (25, 18, 6, 1e-6, 1e-8, 3),         # capped below the numerical rank
    (16, 24, 0, 0.0, 1e-8, None),       # rank 0: the zero matrix
    (1, 7, 1, 0.0, 1e-8, None),
    (7, 1, 1, 0.0, 1e-8, None),
    (0, 5, 0, 0.0, 1e-8, None),         # no rows
    (5, 0, 0, 0.0, 1e-8, None),         # zero columns
]


class TestLeanKernelIsTheScipyFormulation:
    """``dgeqp3`` + ``dtrtrs`` on the packed factor: same bits, no ``Q``."""

    @pytest.mark.parametrize("layout", ["C", "F", "transposed_view", "strided"])
    @pytest.mark.parametrize("m,n,r,noise,rel_tol,max_rank", _ORACLE_SHAPES)
    def test_bitwise_equal_to_qr_plus_solve_triangular(
            self, m, n, r, noise, rel_tol, max_rank, layout):
        A = _lowrank_matrix(m, n, r, seed=m + 100 * n, noise=noise)
        if layout == "F":
            A = np.asfortranarray(A)
        elif layout == "transposed_view":
            A = np.ascontiguousarray(A.T).T
            assert not A.flags.c_contiguous or min(A.shape) <= 1
        elif layout == "strided":
            wide = np.zeros((m, 2 * n))
            wide[:, ::2] = A
            A = wide[:, ::2]

        P, J, rank = _scipy_column_id(A, rel_tol, 0.0, max_rank)
        cid = column_id(A, rel_tol=rel_tol, abs_tol=0.0, max_rank=max_rank)
        assert cid.rank == rank
        assert np.array_equal(cid.skeleton, J)
        assert np.array_equal(cid.interp, P)
        assert cid.interp.shape == (rank, n)

        P, J, rank = _scipy_column_id(A.T, rel_tol, 0.0, max_rank)
        rid = row_id(A, rel_tol=rel_tol, abs_tol=0.0, max_rank=max_rank)
        assert rid.rank == rank
        assert np.array_equal(rid.skeleton, J)
        assert np.array_equal(rid.interp, P.T)
        # memory order is part of the contract: BLAS products downstream
        # round by it
        assert rid.interp.flags.f_contiguous and cid.interp.flags.c_contiguous

    def test_rank_one_exercises_the_one_by_one_solve(self):
        m, n, r, noise, rel_tol, max_rank = _ORACLE_SHAPES[5]
        A = _lowrank_matrix(m, n, r, seed=m + 100 * n, noise=noise)
        assert column_id(A, rel_tol=rel_tol, max_rank=max_rank).rank == 1

    def test_input_is_not_modified(self):
        A = _lowrank_matrix(20, 30, 4, noise=1e-6)
        for M in (A, np.asfortranarray(A)):
            before = M.copy()
            row_id(M, rel_tol=1e-4)
            column_id(M, rel_tol=1e-4)
            assert np.array_equal(M, before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_refused(self, bad):
        A = _lowrank_matrix(10, 14, 3)
        A[4, 5] = bad
        for decompose in (row_id, column_id, rrqr):
            with pytest.raises(ValueError, match="infs or NaNs"):
                decompose(A)

    @pytest.mark.parametrize("m,n", [(12, 40), (40, 12), (20, 20), (1, 5)])
    def test_rrqr_shares_the_kernel_and_still_forms_q(self, m, n):
        A = _lowrank_matrix(m, n, 6, seed=3, noise=1e-7)
        Q0, R0, piv0 = scipy.linalg.qr(A, mode="economic", pivoting=True)
        Q, R, piv, rank = rrqr(A, rel_tol=1e-4)
        assert rank == rank_from_tolerance(np.diag(R0), 1e-4)
        assert np.array_equal(piv, piv0)
        assert np.array_equal(Q, Q0[:, :rank])
        assert np.array_equal(R, R0[:rank])

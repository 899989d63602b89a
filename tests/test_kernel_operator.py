"""Tests for the partially matrix-free kernel operators."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.kernels
from repro.kernels import (DenseMatrixOperator, GaussianKernel, KernelOperator,
                           PolynomialKernel)


@pytest.fixture()
def operator_and_dense():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((60, 5))
    kernel = GaussianKernel(h=1.2)
    op = KernelOperator(X, kernel, block_size=17)
    return op, kernel.matrix(X)


class TestKernelOperator:
    def test_shape_and_diag(self, operator_and_dense):
        op, K = operator_and_dense
        assert op.shape == (60, 60)
        assert op.n == 60
        np.testing.assert_allclose(op.diag(), np.ones(60))

    def test_block_matches_dense(self, operator_and_dense):
        op, K = operator_and_dense
        rows = np.array([0, 10, 59])
        cols = np.array([3, 4, 5, 6])
        np.testing.assert_allclose(op.block(rows, cols), K[np.ix_(rows, cols)],
                                   atol=1e-12)
        assert op.element_evaluations == rows.size * cols.size

    def test_element(self, operator_and_dense):
        op, K = operator_and_dense
        assert op.element(7, 12) == pytest.approx(K[7, 12])

    def test_matvec_and_matmat(self, operator_and_dense):
        op, K = operator_and_dense
        rng = np.random.default_rng(0)
        v = rng.standard_normal(60)
        V = rng.standard_normal((60, 4))
        np.testing.assert_allclose(op.matvec(v), K @ v, atol=1e-10)
        np.testing.assert_allclose(op.matmat(V), K @ V, atol=1e-10)
        assert op.matvec_sweeps >= 2

    def test_matvec_rejects_matrix_input(self, operator_and_dense):
        op, _ = operator_and_dense
        with pytest.raises(ValueError):
            op.matvec(np.zeros((60, 2)))

    def test_matmat_shape_check(self, operator_and_dense):
        op, _ = operator_and_dense
        with pytest.raises(ValueError):
            op.matmat(np.zeros((10, 2)))

    def test_to_dense(self, operator_and_dense):
        op, K = operator_and_dense
        np.testing.assert_allclose(op.to_dense(), K, atol=1e-12)

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            KernelOperator(np.zeros((4, 2)), GaussianKernel(), block_size=0)


class TestNoShiftedOperator:
    """Kernel operators are λ-free: the ridge shift is applied when the
    compressed matrix is factored, or added to the product by CG."""

    def test_kernels_package_does_not_export_a_shifted_operator(self):
        assert not hasattr(repro.kernels, "ShiftedKernelOperator")
        assert "ShiftedKernelOperator" not in repro.kernels.__all__

    @pytest.mark.parametrize("cls", [KernelOperator, DenseMatrixOperator])
    def test_operators_have_no_transpose_products(self, cls):
        assert not hasattr(cls, "rmatvec") and not hasattr(cls, "rmatmat")


class TestDenseMatrixOperator:
    def test_wraps_matrix(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((20, 20))
        op = DenseMatrixOperator(A)
        v = rng.standard_normal(20)
        np.testing.assert_allclose(op.matvec(v), A @ v)
        rows = np.array([1, 2])
        cols = np.array([3, 4, 5])
        np.testing.assert_allclose(op.block(rows, cols), A[np.ix_(rows, cols)])
        np.testing.assert_allclose(op.diag(), np.diag(A))
        assert op.element(3, 4) == A[3, 4]
        assert op.shape == (20, 20)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            DenseMatrixOperator(np.zeros((3, 4)))


def _on_eight_threads(task, n_tasks):
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(task, range(n_tasks)))


class TestCounterThreadSafety:
    """One operator may be shared by several threads; increments of its
    usage counters must not be lost."""

    def test_block_counter_exact_under_concurrency(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((64, 3))
        op = KernelOperator(X, GaussianKernel(h=1.0))
        rows = np.arange(8)
        cols = np.arange(8, 21)
        n_tasks = 400
        _on_eight_threads(lambda _i: op.block(rows, cols), n_tasks)
        assert op.element_evaluations == n_tasks * rows.size * cols.size

    def test_matvec_counter_exact_under_concurrency(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((48, 3))
        op = KernelOperator(X, GaussianKernel(h=1.0), block_size=7)
        v = rng.standard_normal(48)
        n_tasks = 200
        _on_eight_threads(lambda _i: op.matvec(v), n_tasks)
        assert op.matvec_sweeps == n_tasks

    def test_dense_operator_counters_under_concurrency(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((32, 32))
        op = DenseMatrixOperator(A)
        v = rng.standard_normal(32)
        rows = np.arange(4)
        cols = np.arange(4, 9)
        _on_eight_threads(lambda _i: (op.matvec(v), op.block(rows, cols)),
                          300)
        assert op.matvec_sweeps == 300
        assert op.element_evaluations == 300 * rows.size * cols.size


def _segments(seed, n, count=12):
    """Random (fixed index, start, length) triples, some empty, some on the diagonal."""
    rng = np.random.default_rng(seed)
    fixed = rng.integers(0, n, size=count)
    starts = rng.integers(0, n - 1, size=count)
    lengths = np.minimum(rng.integers(0, 20, size=count), n - starts)
    lengths[0] = 0
    starts[1], lengths[1] = max(int(fixed[1]) - 2, 0), 5   # crosses the diagonal
    return fixed, starts, lengths


class TestSegmentExtraction:
    """``row_segments`` / ``col_segments`` are ``block`` on contiguous pieces."""

    @pytest.mark.parametrize("kernel", [GaussianKernel(h=1.2),
                                        PolynomialKernel(degree=3, gamma=0.5)],
                             ids=["gaussian", "polynomial"])
    def test_matches_block_entry_for_entry(self, kernel):
        X = np.random.default_rng(3).standard_normal((60, 5))
        op = KernelOperator(X, kernel)
        fixed, starts, lengths = _segments(0, 60)
        before = op.element_evaluations
        rows = op.row_segments(fixed, starts, lengths)
        cols = op.col_segments(fixed, starts, lengths)
        # nothing padded: exactly the entries asked for were evaluated
        assert op.element_evaluations - before == 2 * lengths.sum()
        assert rows.shape == (lengths.sum(),)
        assert np.array_equal(rows, cols)      # symmetric to the last bit
        expected = np.concatenate([
            op.block(np.array([f]), np.arange(s, s + l)).ravel()
            for f, s, l in zip(fixed, starts, lengths)])
        np.testing.assert_allclose(rows, expected, rtol=1e-13, atol=1e-15)

    def test_dense_operator_is_not_assumed_symmetric(self):
        A = np.random.default_rng(5).standard_normal((30, 30))
        op = DenseMatrixOperator(A)
        fixed, starts, lengths = _segments(1, 30)
        rows = op.row_segments(fixed, starts, lengths)
        cols = op.col_segments(fixed, starts, lengths)
        assert op.element_evaluations == 2 * lengths.sum()
        assert np.array_equal(rows, np.concatenate(
            [A[f, s:s + l] for f, s, l in zip(fixed, starts, lengths)]))
        assert np.array_equal(cols, np.concatenate(
            [A[s:s + l, f] for f, s, l in zip(fixed, starts, lengths)]))

    def test_global_element_counter_counts_segments(self):
        from repro.obs import global_registry
        counter = global_registry().counter(
            "repro_kernel_element_evaluations_total")
        op = KernelOperator(np.random.default_rng(0).standard_normal((40, 3)),
                            GaussianKernel(h=1.0))
        before = counter.value
        op.row_segments(np.array([1, 2]), np.array([5, 9]), np.array([7, 11]))
        assert counter.value - before == 18


def test_block_uses_cached_norms_without_changing_values():
    """The norm cache is an optimisation of ``block``, not a new formula."""
    X = np.random.default_rng(8).standard_normal((200, 8))
    for kernel in (GaussianKernel(h=0.9), PolynomialKernel(degree=2)):
        op = KernelOperator(X, kernel)
        rows = np.array([0, 5, 5, 199, 17])
        cols = np.arange(40, 123)
        assert np.array_equal(op.block(rows, cols), kernel.block(X, rows, cols))
        assert np.array_equal(op.block(cols, cols), kernel.block(X, cols, cols))

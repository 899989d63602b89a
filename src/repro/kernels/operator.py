"""Matrix-free kernel operators: the "partially matrix-free interface".

The HSS construction in STRUMPACK needs two things from the matrix being
compressed (Section 1.1 of the paper):

1. a black-box matrix times (multiple) vector multiplication routine, used
   by the randomized sampling phase, and
2. access to selected elements of the matrix, used to form the diagonal
   blocks ``D_i`` and the coupling blocks ``B_ij``.

:class:`KernelOperator` provides exactly that interface for a kernel matrix
defined by a point set and a radial kernel, without ever materialising the
full ``n x n`` matrix.  :class:`DenseMatrixOperator` wraps an explicit dense
matrix behind the same interface (used for testing and for the exact
baseline).  Neither carries the ridge shift ``+ lambda I`` of kernel ridge
regression: the compression is of ``K`` alone, and the shift is applied
when the compressed matrix is factored
(:meth:`repro.hss.ULVFactorization.factor`).
"""

from __future__ import annotations

import threading
from typing import Optional

import numpy as np

from ..obs import global_registry
from ..utils.ragged import ragged_ranges, segment_offsets
from ..utils.validation import check_array_2d
from .base import Kernel
from .distance import sq_norms

#: ``u`` of float64 arithmetic: a rounded operation is within ``u`` relative
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def _screen_layout(firsts, counts, starts, lengths):
    """``(rows, row starts, row lengths)`` of the blocks of a row screen."""
    counts = np.asarray(counts, dtype=np.intp)
    rows, _ = ragged_ranges(np.asarray(firsts, dtype=np.intp), counts)
    return (rows, np.repeat(np.asarray(starts, dtype=np.intp), counts),
            np.repeat(np.asarray(lengths, dtype=np.intp), counts))


def _row_max(values: np.ndarray, row_lengths: np.ndarray) -> np.ndarray:
    """Largest entry of every (non-empty) row of a ragged row layout."""
    return np.maximum.reduceat(values, segment_offsets(row_lengths)[:-1])


class KernelOperator:
    """Implicit representation of the kernel matrix of a point set.

    Parameters
    ----------
    X:
        Data points, shape ``(n, d)``.  The operator represents
        ``K[i, j] = kernel(X[i], X[j])``.
    kernel:
        A :class:`repro.kernels.Kernel` instance.
    block_size:
        Row-block size used by the tiled matvec; bounds peak memory at
        ``O(block_size * n)``.
    col_tile:
        Column-tile size of the tiled ``matmat``.  ``None`` (default)
        keeps the historical one-big-GEMM-per-row-block sweep; a positive
        value splits every row block's product into column tiles (kernel
        tile assembly + partial GEMM each) whose partials are summed in
        tile order, so the tile geometry fixes the floating-point
        accumulation order.

    Notes
    -----
    ``matmat`` cost is ``O(n^2 k / block)`` GEMM work.  For large ``n`` the
    H-matrix sampler (:class:`repro.hmatrix.HMatrixSampler`) should be used
    instead, which is the paper's main engineering contribution.
    """

    def __init__(self, X: np.ndarray, kernel: Kernel, block_size: int = 2048,
                 col_tile: Optional[int] = None):
        self.X = check_array_2d(X, "X")
        self.kernel = kernel
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        if col_tile is not None and col_tile < 1:
            raise ValueError("col_tile must be >= 1 or None")
        self.block_size = int(block_size)
        self.col_tile = None if col_tile is None else int(col_tile)
        # ||x_i||^2 of every point, once: every element extraction needs the
        # norms of its rows and columns, and an H-matrix build makes tens of
        # thousands of extractions.  Read-only afterwards, so thread-safe.
        self._sq_norms = sq_norms(self.X)
        #: number of kernel element evaluations performed through ``block``
        #: and the segment extractions
        self.element_evaluations = 0
        #: number of full matrix-vector style sweeps performed
        self.matvec_sweeps = 0
        # One operator may be shared by several threads; ``+=`` on an int
        # is not atomic, so counter updates go through this lock.
        self._counter_lock = threading.Lock()
        reg = global_registry()
        self._m_elements = reg.counter(
            "repro_kernel_element_evaluations_total",
            "Kernel matrix entries evaluated through element extraction")
        self._m_sweeps = reg.counter(
            "repro_kernel_matvec_sweeps_total",
            "Full matrix-vector style sweeps over the kernel operator")

    # ------------------------------------------------------------------ shape
    @property
    def shape(self) -> tuple:
        """``(n, n)``."""
        n = self.X.shape[0]
        return (n, n)

    @property
    def n(self) -> int:
        """Number of data points (matrix dimension)."""
        return self.X.shape[0]

    @property
    def dtype(self):
        """Entry type of the represented matrix (``float64``)."""
        return np.dtype(np.float64)

    # -------------------------------------------------------------- elements
    def _count_elements(self, count: int) -> None:
        with self._counter_lock:
            self.element_evaluations += count
        self._m_elements.inc(count)

    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Extract the sub-block ``K[rows, cols]`` (element extraction)."""
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        self._count_elements(int(rows.size) * int(cols.size))
        return self.kernel.from_inner_products(
            self.X[rows] @ self.X[cols].T,
            self._sq_norms[rows][:, None], self._sq_norms[cols][None, :])

    def row_segments(self, rows: np.ndarray, starts: np.ndarray,
                     lengths: np.ndarray) -> np.ndarray:
        """Batched extraction of one contiguous row piece per segment.

        Segment ``b`` is ``K[rows[b], starts[b] : starts[b] + lengths[b]]``;
        the segments are returned concatenated in one 1-D array.  This is
        what the wavefront ACA (:func:`repro.lowrank.aca_blocks`) samples
        with: cluster ranges are contiguous in the permuted ordering, so a
        segment's inner products are one GEMV on a *view* of ``X`` — no
        gather of points — and everything after them (norms, distances,
        the kernel function) is one vectorised pass over all segments.
        Counts ``sum(lengths)`` element evaluations, the entries actually
        evaluated.

        Parameters
        ----------
        rows:
            Row index of every segment, shape ``(B,)``.
        starts, lengths:
            First column and number of columns of every segment.

        Returns
        -------
        numpy.ndarray
            The ``sum(lengths)`` kernel values, segment after segment.
        """
        rows = np.asarray(rows, dtype=np.intp)
        starts = np.asarray(starts, dtype=np.intp)
        lengths = np.asarray(lengths, dtype=np.intp)
        index, offsets = ragged_ranges(starts, lengths)
        self._count_elements(int(offsets[-1]))
        X = self.X
        dots = np.empty(offsets[-1])
        for row, start, lo, hi in zip(rows.tolist(), starts.tolist(),
                                      offsets[:-1].tolist(),
                                      offsets[1:].tolist()):
            np.dot(X[start:start + hi - lo], X[row], out=dots[lo:hi])
        return self.kernel.from_inner_products(
            dots, np.repeat(self._sq_norms[rows], lengths),
            self._sq_norms[index])

    def col_segments(self, cols: np.ndarray, starts: np.ndarray,
                     lengths: np.ndarray) -> np.ndarray:
        """Segment ``b`` is ``K[starts[b] : starts[b] + lengths[b], cols[b]]``.

        The kernel matrix is symmetric and so is its arithmetic, entry by
        entry: this is :meth:`row_segments`, to the last bit.
        """
        return self.row_segments(cols, starts, lengths)

    def screen_rows(self, firsts: np.ndarray, counts: np.ndarray,
                    starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Upper bounds on the rows of many blocks, one GEMM per block.

        Block ``b`` is rows ``firsts[b] .. firsts[b] + counts[b] - 1``,
        columns ``starts[b] .. starts[b] + lengths[b] - 1``.  Entry ``i``
        of the result is at least the largest ``|K[row, col]|`` of the
        ``i``-th of these rows (blocks in order, rows in order) as
        :meth:`row_segments` evaluates it, to the last bit.  The ACA
        (:func:`repro.lowrank.aca_blocks`) screens the rows of the blocks
        that have no cross yet with it, every block that is scanning at
        once; the values decide which rows are certainly below the pivot
        floor and are never stored.  Counts ``sum(counts * lengths)``
        element evaluations; every count and length must be positive.

        Each block's inner products are one GEMM into its piece of one
        buffer of ``sum(counts * lengths)`` entries, which the caller
        bounds; the rest is one vectorised pass over the buffer and a
        segment max per row.  The GEMM and :meth:`row_segments`' GEMVs
        sum the inner products in different orders.  Any two orders of a
        ``d``-term sum agree within ``2 gamma_d ||x|| ||y||``
        (``gamma_d = d u / (1 - d u)``), so for a kernel that is
        :attr:`~repro.kernels.Kernel.decreasing` the GEMM's inner products
        are raised by twice that (``4 gamma_d sqrt(||x||^2 max ||y||^2)``,
        the max over the block's columns) before the distance expansion:
        every squared distance then rounds to at most the exact one, and
        the kernel values, doubled to cover the last bits of the kernel
        function, bound the exact ones.  Other kernels (polynomial,
        linear) can cancel, so no such bound holds: their rows are
        evaluated exactly, one GEMV each.

        Parameters
        ----------
        firsts, counts:
            First row and number of rows of every block, shape ``(B,)``.
        starts, lengths:
            First column and number of columns of every block.

        Returns
        -------
        numpy.ndarray
            Shape ``(sum(counts),)``, non-negative (NaN where a row holds
            one).
        """
        rows, row_starts, row_lengths = _screen_layout(firsts, counts,
                                                       starts, lengths)
        if not self.kernel.decreasing:
            values = self.row_segments(rows, row_starts, row_lengths)
            return _row_max(np.abs(values, out=values), row_lengths)
        counts = np.asarray(counts, dtype=np.intp)
        col, offsets = ragged_ranges(row_starts, row_lengths)
        self._count_elements(int(offsets[-1]))
        X, sq = self.X, self._sq_norms
        dots = np.empty(offsets[-1])
        lo = 0
        for first, count, start, length in zip(
                np.asarray(firsts).tolist(), counts.tolist(),
                np.asarray(starts).tolist(), np.asarray(lengths).tolist()):
            hi = lo + count * length
            np.matmul(X[first:first + count], X[start:start + length].T,
                      out=dots[lo:hi].reshape(count, length))
            lo = hi
        sq_x, sq_y = sq[rows], sq[col]
        # max ||y||^2 of every block: a block's first row spans its columns
        block_rows = segment_offsets(counts)[:-1]
        sq_y_max = np.maximum.reduceat(sq_y, offsets[block_rows])
        du = X.shape[1] * _UNIT_ROUNDOFF
        gamma = du / (1.0 - du)
        raise_by = 4.0 * gamma * np.sqrt(sq_x * np.repeat(sq_y_max, counts))
        dots += np.repeat(raise_by, row_lengths)
        values = self.kernel.from_inner_products(
            dots, np.repeat(sq_x, row_lengths), sq_y)
        bounds = np.maximum.reduceat(values, offsets[:-1])
        bounds *= 2.0
        return bounds

    def diag(self) -> np.ndarray:
        """Diagonal of the kernel matrix (all ones for normalized kernels)."""
        return np.full(self.n, self.kernel.diagonal_value(), dtype=np.float64)

    def element(self, i: int, j: int) -> float:
        """Single entry ``K[i, j]``."""
        return float(self.block(np.array([i]), np.array([j]))[0, 0])

    # --------------------------------------------------------------- products
    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Compute ``K @ v`` for a single vector without forming ``K``."""
        v = np.asarray(v, dtype=np.float64)
        if v.ndim == 1:
            return self.matmat(v[:, None]).ravel()
        raise ValueError("matvec expects a 1-D vector; use matmat for blocks")

    def matmat(self, V: np.ndarray) -> np.ndarray:
        """Compute ``K @ V`` with a row-blocked sweep (``V`` is ``(n, k)``).

        With :attr:`col_tile` set, each row block is further split into
        column tiles; every ``(row block, column tile)`` kernel tile gets
        its own partial GEMM and the partial products are summed in fixed
        tile order.
        """
        V = np.asarray(V, dtype=np.float64)
        if V.ndim != 2 or V.shape[0] != self.n:
            raise ValueError(f"V must have shape ({self.n}, k), got {V.shape}")
        if self.col_tile is None:
            out = np.empty((self.n, V.shape[1]), dtype=np.float64)
            for r0 in range(0, self.n, self.block_size):
                r1 = min(r0 + self.block_size, self.n)
                out[r0:r1] = self._kernel_tile(r0, r1, 0, self.n) @ V
        else:
            out = self._matmat_tiled(V)
        with self._counter_lock:
            self.matvec_sweeps += 1
        self._m_sweeps.inc()
        return out

    def _kernel_tile(self, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        """The contiguous kernel block ``K[r0:r1, c0:c1]`` (one GEMM)."""
        return self.kernel.from_inner_products(
            self.X[r0:r1] @ self.X[c0:c1].T,
            self._sq_norms[r0:r1, None], self._sq_norms[None, c0:c1])

    def _matmat_tiled(self, V: np.ndarray) -> np.ndarray:
        """Column-tiled ``K @ V``: one partial per (row block, column tile)."""
        n = self.n
        tile = self.col_tile
        starts = list(range(0, n, tile))

        def partial(task):
            r0, r1, c0, c1 = task
            return self._kernel_tile(r0, r1, c0, c1) @ V[c0:c1]

        out = np.zeros((n, V.shape[1]), dtype=np.float64)
        for r0 in range(0, n, self.block_size):
            r1 = min(r0 + self.block_size, n)
            tasks = [(r0, r1, c0, min(c0 + tile, n)) for c0 in starts]
            partials = [partial(task) for task in tasks]
            # Fixed-order reduction: the sum over column tiles is
            # committed left to right.
            acc = partials[0]
            for block in partials[1:]:
                acc = acc + block
            out[r0:r1] = acc
        return out

    def to_dense(self) -> np.ndarray:
        """Materialise the full kernel matrix (testing / small problems only)."""
        return self.kernel.matrix(self.X)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{type(self).__name__}(n={self.n}, d={self.X.shape[1]}, "
                f"kernel={self.kernel!r})")


class DenseMatrixOperator:
    """Wrap an explicit dense matrix behind the partially matrix-free interface.

    Useful for unit tests (compress an arbitrary matrix) and as the exact
    baseline in the benchmark harness.
    """

    def __init__(self, A: np.ndarray):
        A = np.ascontiguousarray(A, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be a square matrix, got shape {A.shape}")
        self.A = A
        self.element_evaluations = 0
        self.matvec_sweeps = 0
        self._counter_lock = threading.Lock()

    @property
    def shape(self) -> tuple:
        return self.A.shape

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def dtype(self):
        return self.A.dtype

    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        with self._counter_lock:
            self.element_evaluations += int(rows.size) * int(cols.size)
        return self.A[np.ix_(rows, cols)]

    def _segments(self, fixed: np.ndarray, starts: np.ndarray,
                  lengths: np.ndarray):
        """``(repeated fixed index, ragged running index)`` of the segments."""
        lengths = np.asarray(lengths, dtype=np.intp)
        index, offsets = ragged_ranges(np.asarray(starts, dtype=np.intp),
                                       lengths)
        with self._counter_lock:
            self.element_evaluations += int(offsets[-1])
        return np.repeat(np.asarray(fixed, dtype=np.intp), lengths), index

    def row_segments(self, rows: np.ndarray, starts: np.ndarray,
                     lengths: np.ndarray) -> np.ndarray:
        """Concatenated ``A[rows[b], starts[b] : starts[b] + lengths[b]]``
        (see :meth:`KernelOperator.row_segments`)."""
        fixed, index = self._segments(rows, starts, lengths)
        return self.A[fixed, index]

    def col_segments(self, cols: np.ndarray, starts: np.ndarray,
                     lengths: np.ndarray) -> np.ndarray:
        """Concatenated ``A[starts[b] : starts[b] + lengths[b], cols[b]]``."""
        fixed, index = self._segments(cols, starts, lengths)
        return self.A[index, fixed]

    def screen_rows(self, firsts: np.ndarray, counts: np.ndarray,
                    starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Largest ``|A[row, start : start + length]|`` of every row of the
        blocks: the exact bound of :meth:`KernelOperator.screen_rows`."""
        rows, row_starts, row_lengths = _screen_layout(firsts, counts,
                                                       starts, lengths)
        fixed, index = self._segments(rows, row_starts, row_lengths)
        return _row_max(np.abs(self.A[fixed, index]), row_lengths)

    def diag(self) -> np.ndarray:
        return np.diag(self.A).copy()

    def element(self, i: int, j: int) -> float:
        return float(self.A[i, j])

    def _count_sweep(self) -> None:
        with self._counter_lock:
            self.matvec_sweeps += 1

    def matvec(self, v: np.ndarray) -> np.ndarray:
        self._count_sweep()
        return self.A @ np.asarray(v, dtype=np.float64)

    def matmat(self, V: np.ndarray) -> np.ndarray:
        self._count_sweep()
        return self.A @ np.asarray(V, dtype=np.float64)

    def to_dense(self) -> np.ndarray:
        return self.A.copy()

"""Adaptive Cross Approximation (ACA).

ACA builds a low-rank approximation ``A ~= U V^T`` of a block by sampling a
small number of its rows and columns, never touching the rest of the block.
The paper's prototype H-matrix code uses a "hybrid-ACA scheme" to compress
admissible (well separated) blocks of the kernel matrix; we implement the
classical partially pivoted ACA with the standard stopping criterion based
on an incrementally updated Frobenius-norm estimate, plus a fully pivoted
variant used as a reference in tests.

There is one partially pivoted implementation, a **wavefront** over many
blocks at once: every still-active block takes one cross step per
iteration, the blocks' rows and columns live side by side in ragged
(concatenated) arrays, and the residual updates, pivot searches, norm
recurrence and stopping test are each one vectorised call over all active
blocks.  An H matrix has a thousand admissible blocks of rank ~10; looping
over them in the interpreter cost more than the arithmetic.
:func:`aca_blocks` feeds the wavefront from an operator's batched segment
extraction, :func:`aca` is the same core with a single block.  The blocks
of a wavefront never interact: a block's factors do not depend on which
other blocks share its wave (``tests/test_aca.py`` pins this, and the
pivots, against the one-block-at-a-time loop kept in
``tests/aca_oracle.py``).

**The rank-0 row scan.**  A row whose largest residual entry is below
``min_pivot`` is skipped, and the walk moves on to the first unused row.
A block that skips while it still has rank 0 has no factors and no used
column, so its residual rows are its own rows and the walk visits them in
order.  A numerically zero far-field block (a kernel that underflows
between clusters) would prove itself zero one row, one wavefront step and
one GEMV at a time.  Instead the block screens its next rows a chunk at a
time and skips every leading row whose screen value is below the floor.
A chunk is as long as the rows skipped so far (1, 2, 4, ...), holds at
most ``_SCAN_ENTRIES`` = 65 536 entries (one row if the block is wider)
and never passes the step limit.  Every block of the wave that skips at
rank 0 in the same step scans together, one doubling stage at a time:
a stage is one call of the operator's batched ``screen_rows`` (one GEMM
per block into one buffer, then one vectorised bound pass and a segment
max per row for a kernel) over the chunks of all blocks still scanning,
split into consecutive runs of at most ``_SCAN_ENTRIES`` entries when
the stage is larger, so its buffer stays bounded.  A block's chunks, and
so its ``rows_scanned`` and the entries it evaluates, are those it
screens alone.  The screen returns upper bounds on the values the walk
samples, never the values themselves
(:meth:`repro.kernels.KernelOperator.screen_rows` says why they bound
them to the last bit), and they are never stored: the first row not
certainly below the floor is sampled as before and decided on its own
bits.  Every result — factors, rank, ``rows_sampled``, ``converged`` — is
therefore the row-by-row walk's.  A block whose rows all stay below the
floor evaluates the walk's ``min(m, n) * n`` entries in at most
``ceil(log2 min(m, n)) + ceil(min(m, n) / c)`` stages
(``c = max(1, _SCAN_ENTRIES // n)``, the chunk cap in rows); one that
finds its pivot row after ``k`` skips evaluates at most ``k`` rows more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..utils.ragged import ragged_ranges, segment_offsets
from .lowrank_matrix import LowRank

#: signature of the row/column samplers handed to :func:`aca`:
#: ``row_fn(i) -> (n,)`` returns row ``i`` of the block,
#: ``col_fn(j) -> (m,)`` returns column ``j``.
RowFn = Callable[[int], np.ndarray]
ColFn = Callable[[int], np.ndarray]
#: batched sampler of the wavefront: ``fetch(blocks, pivots)`` returns, for
#: the listed blocks in order, row (or column) ``pivots[k]`` of block
#: ``blocks[k]`` — all of them concatenated into one 1-D array.
SegmentFn = Callable[[np.ndarray, np.ndarray], np.ndarray]
#: row screen of the wavefront: ``screen(blocks, firsts, counts)`` returns,
#: for the listed blocks in order, a bound on the largest ``|entry|`` of each
#: of rows ``firsts[k] .. firsts[k] + counts[k] - 1`` of block ``blocks[k]``
#: — all of them concatenated into one 1-D array (see the module docstring).
ScreenFn = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]

#: factor rows allocated up front per wavefront; doubled when a rank exceeds it
_INITIAL_RANK_CAPACITY = 16
#: most entries one screen of the rank-0 row scan asks for (512 KiB of
#: values), so its memory stays bounded whatever the block's size
_SCAN_ENTRIES = 1 << 16


@dataclass
class ACAResult:
    """Outcome of an ACA compression.

    ``converged`` is ``True`` when the stopping rule was met or the block
    was exhausted (``min(m, n)`` cross steps attempted, or no unused row
    left), ``False`` when ``max_rank`` cut the iteration short.
    ``rows_sampled`` counts the cross steps attempted, ``cols_sampled``
    the ones that found a usable pivot (the rank), ``rows_scanned`` the
    rows the rank-0 row scan screened (see the module docstring).
    """

    lowrank: LowRank
    rank: int
    converged: bool
    rows_sampled: int
    cols_sampled: int
    rows_scanned: int = 0

    @property
    def nbytes(self) -> int:
        return self.lowrank.nbytes


def _segment_argmax(values: np.ndarray, offsets: np.ndarray,
                    lengths: np.ndarray) -> np.ndarray:
    """``np.argmax`` of every (non-empty) segment, first hit on ties."""
    peak = np.maximum.reduceat(values, offsets[:-1])
    if np.isnan(peak).any():
        raise ValueError("ACA sampled a NaN entry")
    hits = np.flatnonzero(values == np.repeat(peak, lengths))
    return hits[np.searchsorted(hits, offsets[:-1])] - offsets[:-1]


def _residual(sampled: np.ndarray, coef: np.ndarray, lengths: np.ndarray,
              factors: np.ndarray) -> np.ndarray:
    """``sampled - sum_k coef[k] * factors[k]``, subtracted in order of ``k``.

    ``coef`` holds one value per (cross step, segment); ``subtract.reduce``
    is a left fold, so every entry sees exactly the arithmetic of the
    one-block loop ``for k: sampled -= coef[k] * factors[k]``.
    """
    stack = np.empty((coef.shape[0] + 1, sampled.size))
    stack[0] = sampled
    np.multiply(np.repeat(coef, lengths, axis=1), factors, out=stack[1:])
    return np.subtract.reduce(stack, axis=0)


def _screen_stage(screen: ScreenFn, blocks: np.ndarray, first: np.ndarray,
                  count: np.ndarray, n: np.ndarray) -> np.ndarray:
    """One stage of the rank-0 row scan: the row bounds of every block.

    The blocks go to ``screen`` in consecutive runs of at most
    ``_SCAN_ENTRIES`` entries (a block whose chunk is larger — one row
    wider than that — alone), so a stage's buffer stays bounded however
    many blocks scan at once.
    """
    entries = count * n
    ends = np.cumsum(entries)
    if ends[-1] <= _SCAN_ENTRIES:
        return screen(blocks, first, count)
    bounds, lo = [], 0
    while lo < blocks.size:
        hi = max(lo + 1, int(np.searchsorted(
            ends, ends[lo] - entries[lo] + _SCAN_ENTRIES, side="right")))
        bounds.append(screen(blocks[lo:hi], first[lo:hi], count[lo:hi]))
        lo = hi
    return np.concatenate(bounds)


def _scan_rank_zero(screen: ScreenFn, blocks: np.ndarray, first: np.ndarray,
                    stop: np.ndarray, n: np.ndarray, min_pivot: float,
                    scanned: np.ndarray) -> np.ndarray:
    """The rank-0 row scan of ``blocks``, all of them a stage at a time.

    Block ``blocks[k]`` (``n[k]`` columns) skipped its rows
    ``0 .. first[k] - 1``.  Every stage screens the next
    ``min(first, stop - first, cap)`` rows of each block still scanning
    (see the module docstring) and adds them to ``scanned``; a block stops
    at its first row not certainly below ``min_pivot``, or at ``stop[k]``.

    Returns
    -------
    numpy.ndarray
        Per block, the first row the walk has to sample (``stop`` if none).
    """
    first = first.copy()
    cap = np.maximum(1, _SCAN_ENTRIES // n)
    going = np.flatnonzero(first < stop)
    while going.size:
        at = first[going]
        count = np.minimum(np.minimum(at, stop[going] - at), cap[going])
        scanned[blocks[going]] += count
        below = _screen_stage(screen, blocks[going], at, count,
                              n[going]) < min_pivot
        offsets = segment_offsets(count)
        clear = np.logical_and.reduceat(below, offsets[:-1])
        hit = _segment_argmax((~below).view(np.uint8), offsets, count)
        first[going] = at + np.where(clear, count, hit)
        going = going[clear & (first[going] < stop[going])]
    return first


def _wavefront(m: np.ndarray, n: np.ndarray, fetch_rows: SegmentFn,
               fetch_cols: SegmentFn, screen: ScreenFn, rel_tol: float,
               max_rank: Optional[int], min_pivot: float) -> List[ACAResult]:
    """Partially pivoted ACA of ``len(m)`` independent blocks in lock-step.

    Block ``b`` is ``m[b] x n[b]``.  Per block the iteration is the
    textbook one: take the residual of the pivot row, pick the largest
    unused entry as column pivot, skip to the first unused row when that
    entry is below ``min_pivot`` (a skipped row still counts as a step),
    otherwise take the residual column, append ``(column / pivot, row)``
    to the factors, update the Frobenius-norm estimate, stop when the new
    term is below ``rel_tol`` times it, and continue at the row where the
    new column is largest.  The blocks skipping at rank 0 in the same step
    scan ahead together with ``screen`` (see the module docstring).
    """
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    m = np.asarray(m, dtype=np.intp)
    n = np.asarray(n, dtype=np.intp)
    if (m < 0).any() or (n < 0).any():
        raise ValueError("block dimensions must be non-negative")
    exhausted_at = np.minimum(m, n)
    limit = exhausted_at if max_rank is None else np.minimum(
        exhausted_at, max(int(max_rank), 0))

    row_off, col_off = segment_offsets(m), segment_offsets(n)
    # Factors of all blocks side by side: cross step k of block b is
    # U[k, row_off[b]:row_off[b + 1]] and V[k, col_off[b]:col_off[b + 1]];
    # steps a block has not taken stay zero and drop out of every update.
    U = np.zeros((_INITIAL_RANK_CAPACITY, row_off[-1]))
    V = np.zeros((_INITIAL_RANK_CAPACITY, col_off[-1]))
    used_rows = np.zeros(row_off[-1], dtype=bool)
    used_cols = np.zeros(col_off[-1], dtype=bool)
    next_row = np.zeros(m.size, dtype=np.intp)
    rank = np.zeros(m.size, dtype=np.intp)
    steps = np.zeros(m.size, dtype=np.intp)
    scanned = np.zeros(m.size, dtype=np.intp)
    frob_sq = np.zeros(m.size)      # ||U V^T||_F^2 of the approximation so far
    finished = np.zeros(m.size, dtype=bool)     # stopping rule met / no row left

    active = np.flatnonzero(limit > 0)
    layout = None
    while active.size:
        if layout is None:
            layout = ragged_ranges(row_off[active], m[active]) \
                + ragged_ranges(col_off[active], n[active])
        ridx, roff, cidx, coff = layout
        blocks = active

        # --- residual of every block's pivot row
        pivots = next_row[blocks]
        pivot_rows = row_off[blocks] + pivots
        row = fetch_rows(blocks, pivots)
        terms = int(rank[blocks].max())
        if terms:
            v_act = V[:terms, cidx]
            row = _residual(row, U[:terms, pivot_rows], n[blocks], v_act)
        used_rows[pivot_rows] = True
        steps[blocks] += 1

        # --- column pivot: largest unused residual entry of that row
        masked = np.abs(row)
        masked[used_cols[cidx]] = 0.0
        j = _segment_argmax(masked, coff, n[blocks])
        pivot = row[coff[:-1] + j]
        small = np.abs(pivot) < min_pivot
        if small.any():
            # The row is (numerically) fully captured: those blocks move on
            # to their first unused row, the rest of the wave takes a cross.
            skipping = blocks[small]
            scan = skipping[rank[skipping] == 0]
            if scan.size:
                # Rows 0 .. steps - 1 of these blocks were all skipped:
                # scan on, and skip every leading row certainly below the
                # floor.
                visited = steps[scan]
                steps[scan] = _scan_rank_zero(
                    screen, scan, visited, limit[scan], n[scan], min_pivot,
                    scanned)
                used_rows[ragged_ranges(row_off[scan] + visited,
                                        steps[scan] - visited)[0]] = True
            sidx, soff = ragged_ranges(row_off[skipping], m[skipping])
            unused = ~used_rows[sidx]
            finished[skipping] = ~np.logical_or.reduceat(unused, soff[:-1])
            next_row[skipping] = _segment_argmax(
                unused.view(np.uint8), soff, m[skipping])
            keep = ~small
            in_keep = np.repeat(keep, n[blocks])
            blocks, j, pivot, row = blocks[keep], j[keep], pivot[keep], row[in_keep]
            if terms:
                v_act = v_act[:, in_keep]
            ridx, roff = ragged_ranges(row_off[blocks], m[blocks])
            cidx, coff = ragged_ranges(col_off[blocks], n[blocks])

        if blocks.size:
            # --- residual of the pivot columns
            pivot_cols = col_off[blocks] + j
            col = fetch_cols(blocks, j)
            if terms:
                u_act = U[:terms, ridx]
                col = _residual(col, V[:terms, pivot_cols], m[blocks], u_act)
            used_cols[pivot_cols] = True
            u_new = col / np.repeat(pivot, m[blocks])
            v_new = row

            # --- stopping criterion (standard ACA norm update)
            unorm = np.sqrt(np.add.reduceat(u_new * u_new, roff[:-1]))
            vnorm = np.sqrt(np.add.reduceat(v_new * v_new, coff[:-1]))
            step_norm = unorm * vnorm
            increment = step_norm * step_norm
            if terms:
                cross = (np.add.reduceat(u_act * u_new, roff[:-1], axis=1)
                         * np.add.reduceat(v_act * v_new, coff[:-1], axis=1))
                increment += 2.0 * cross.sum(axis=0)
            frob_sq[blocks] += increment
            frob = np.sqrt(np.maximum(frob_sq[blocks], 0.0))
            finished[blocks] = step_norm <= rel_tol * np.maximum(frob, 1e-300)

            # --- commit the cross and pick the next row pivot: largest
            # unused entry of the new column
            at = rank[blocks]
            if int(at.max()) >= U.shape[0]:
                U = np.concatenate([U, np.zeros_like(U)])
                V = np.concatenate([V, np.zeros_like(V)])
            U[np.repeat(at, m[blocks]), ridx] = u_new
            V[np.repeat(at, n[blocks]), cidx] = v_new
            rank[blocks] = at + 1
            masked = np.abs(u_new)
            masked[used_rows[ridx]] = -1.0
            next_row[blocks] = _segment_argmax(masked, roff, m[blocks])

        leaving = finished[active] | (steps[active] >= limit[active])
        if leaving.any():
            active = active[~leaving]
            layout = None

    converged = finished | (steps >= exhausted_at)
    results = []
    for b in range(m.size):
        r = int(rank[b])
        # Copies, never views: a rank-1 (or one-row) slice counts as
        # contiguous and would keep the whole wave's buffer alive.
        lowrank = LowRank(U[:r, row_off[b]:row_off[b + 1]].T.copy(),
                          V[:r, col_off[b]:col_off[b + 1]].T.copy())
        results.append(ACAResult(lowrank, r, bool(converged[b]),
                                 int(steps[b]), r, int(scanned[b])))
    return results


def aca_blocks(
    operator,
    row_ranges,
    col_ranges,
    rel_tol: float = 1e-6,
    max_rank: Optional[int] = None,
    min_pivot: float = 1e-14,
) -> List[ACAResult]:
    """Partially pivoted ACA of many contiguous blocks of one operator at once.

    Block ``b`` is ``operator[r0:r1, c0:c1]`` with
    ``(r0, r1) = row_ranges[b]`` and ``(c0, c1) = col_ranges[b]``.  All
    blocks advance together, one cross step per iteration (see the module
    docstring); each block's factors are those :func:`aca` computes for it
    alone.  Memory grows with the summed block dimensions, so callers with
    many blocks hand them over in bounded groups
    (:func:`repro.hmatrix.build_hmatrix` does).

    Parameters
    ----------
    operator:
        Anything with the batched segment extraction of
        :class:`repro.kernels.KernelOperator`:
        ``row_segments(rows, starts, lengths)``,
        ``col_segments(cols, starts, lengths)`` and the batched row screen
        ``screen_rows(firsts, counts, starts, lengths)``.
    row_ranges, col_ranges:
        ``(B, 2)`` integer arrays (or sequences of pairs) of half-open
        index ranges.
    rel_tol, max_rank, min_pivot:
        As in :func:`aca`, shared by all blocks.

    Returns
    -------
    list of ACAResult
        One per block, in input order.
    """
    rows = np.asarray(row_ranges, dtype=np.intp).reshape(-1, 2)
    cols = np.asarray(col_ranges, dtype=np.intp).reshape(-1, 2)
    if rows.shape != cols.shape:
        raise ValueError("row_ranges and col_ranges must pair up")
    r0, c0 = rows[:, 0], cols[:, 0]
    m, n = rows[:, 1] - r0, cols[:, 1] - c0

    def fetch_rows(blocks: np.ndarray, pivots: np.ndarray) -> np.ndarray:
        return operator.row_segments(r0[blocks] + pivots, c0[blocks], n[blocks])

    def fetch_cols(blocks: np.ndarray, pivots: np.ndarray) -> np.ndarray:
        return operator.col_segments(c0[blocks] + pivots, r0[blocks], m[blocks])

    # Bound now, not at the first zero row: an operator without the screen
    # fails on every input, not only on far-field data.
    screen_rows = operator.screen_rows

    def screen(blocks: np.ndarray, firsts: np.ndarray,
               counts: np.ndarray) -> np.ndarray:
        return screen_rows(r0[blocks] + firsts, counts, c0[blocks], n[blocks])

    return _wavefront(m, n, fetch_rows, fetch_cols, screen, rel_tol,
                      max_rank, min_pivot)


def aca(
    m: int,
    n: int,
    row_fn: RowFn,
    col_fn: ColFn,
    rel_tol: float = 1e-6,
    max_rank: Optional[int] = None,
    min_pivot: float = 1e-14,
) -> ACAResult:
    """Partially pivoted adaptive cross approximation of one block.

    Parameters
    ----------
    m, n:
        Block dimensions.
    row_fn, col_fn:
        Callables returning a single (dense) row or column of the block.
    rel_tol:
        Stopping tolerance: iteration stops when the norm of the new rank-1
        update falls below ``rel_tol`` times the running estimate of
        ``||A||_F``.
    max_rank:
        Hard cap on the number of cross steps (default ``min(m, n)``).
    min_pivot:
        A row whose largest unused residual entry is smaller than this (in
        absolute value) is skipped: it is numerically captured already.

    Returns
    -------
    ACAResult
        With ``lowrank.U`` of shape ``(m, r)`` and ``lowrank.V`` of shape
        ``(n, r)`` such that the block is approximately ``U @ V.T``.

    Raises
    ------
    ValueError
        On negative dimensions, non-positive ``rel_tol``, a sampled row or
        column of the wrong length, or a NaN entry.
    """
    def sampled(fn: Callable[[int], np.ndarray], index: int,
                length: int) -> np.ndarray:
        values = np.asarray(fn(index), dtype=np.float64).ravel()
        if values.size != length:
            raise ValueError(
                f"sampler returned {values.size} entries, expected {length}")
        return values

    def sampler(fn: Callable[[int], np.ndarray], length: int) -> SegmentFn:
        def fetch(blocks: np.ndarray, pivots: np.ndarray) -> np.ndarray:
            return sampled(fn, int(pivots[0]), length)
        return fetch

    def screen(blocks: np.ndarray, firsts: np.ndarray,
               counts: np.ndarray) -> np.ndarray:
        first = int(firsts[0])
        return np.abs([sampled(row_fn, i, n) for i in range(
            first, first + int(counts[0]))]).max(axis=1)

    return _wavefront([m], [n], sampler(row_fn, n), sampler(col_fn, m),
                      screen, rel_tol, max_rank, min_pivot)[0]


def aca_full(A: np.ndarray, rel_tol: float = 1e-6,
             max_rank: Optional[int] = None) -> ACAResult:
    """Fully pivoted ACA of an explicit dense block (reference implementation).

    Uses the true residual maximum as the pivot at every step, which gives
    near-optimal pivots at ``O(m n)`` cost per step.  Used for testing and
    for small blocks where the whole block is available anyway.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError(f"A must be 2-dimensional, got shape {A.shape}")
    m, n = A.shape
    limit = min(m, n) if max_rank is None else min(int(max_rank), m, n)
    if limit == 0:
        return ACAResult(LowRank.zero(m, n), 0, True, 0, 0)
    R = A.copy()
    norm_a = np.linalg.norm(A)
    us = []
    vs = []
    converged = False
    for _ in range(limit):
        idx = np.unravel_index(int(np.argmax(np.abs(R))), R.shape)
        pivot = R[idx]
        if abs(pivot) <= rel_tol * max(norm_a, 1e-300):
            converged = True
            break
        u = R[:, idx[1]].copy() / pivot
        v = R[idx[0], :].copy()
        us.append(u)
        vs.append(v)
        R -= np.outer(u, v)
    else:
        converged = np.linalg.norm(R) <= rel_tol * max(norm_a, 1e-300)
    if not us:
        return ACAResult(LowRank.zero(m, n), 0, True, 0, 0)
    U = np.column_stack(us)
    V = np.column_stack(vs)
    return ACAResult(LowRank(U, V), U.shape[1], converged, len(us), len(us))

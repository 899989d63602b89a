"""Interpolative decompositions (ID).

The randomized HSS construction does not store orthonormal bases directly:
it selects *representative rows and columns* (skeletons) of the sampled
off-diagonal blocks and expresses the remaining rows/columns as linear
combinations of them.  This is exactly a row (or column) interpolative
decomposition:

    row ID:     M  ~=  P @ M[J, :]      with  P[J, :] = I
    column ID:  M  ~=  M[:, J] @ P      with  P[:, J] = I

selecting ``|J| = r`` rows (columns) via a column-pivoted QR.  The skeleton
indices ``J`` are what makes the *partially matrix-free* construction work:
the coupling generators ``B_ij`` are later read off the original matrix at
the skeleton rows/columns only.

An ID needs the ``R`` factor and the pivots of that QR, never its ``Q``,
and the HSS construction runs one per tree node: the kernel calls
``dgeqp3`` and ``dtrtrs`` directly (:mod:`repro.lowrank.lapack`) and
returns bitwise what ``scipy.linalg.qr`` + ``solve_triangular`` would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .lapack import pivoted_qr, raise_trtrs_info
from .rrqr import rank_from_tolerance


@dataclass
class InterpolativeDecomposition:
    """Result of a row or column interpolative decomposition.

    Attributes
    ----------
    interp:
        The interpolation matrix ``P``.  For a row ID of an ``(m, k)``
        matrix this has shape ``(m, r)`` and satisfies ``M ~= P @ M[J, :]``
        with ``P[J, :] = I_r``.  For a column ID it has shape ``(r, k)`` and
        satisfies ``M ~= M[:, J] @ P`` with ``P[:, J] = I_r``.
    skeleton:
        Indices ``J`` of the selected rows (columns), length ``r``.
    rank:
        The interpolation rank ``r``.
    """

    interp: np.ndarray
    skeleton: np.ndarray
    rank: int

    def __post_init__(self) -> None:
        self.skeleton = np.asarray(self.skeleton, dtype=np.intp)
        self.interp = np.asarray(self.interp, dtype=np.float64)
        self.rank = int(self.rank)


def _column_interp(M: np.ndarray, rel_tol: float, abs_tol: float, max_rank
                   ) -> Tuple[np.ndarray, np.ndarray, int]:
    """``(P, J, r)`` of the column ID ``M ~= M[:, J] @ P``.

    The pivoted QR stays packed: the rank is read off its diagonal,
    ``R11`` and ``R12`` are views of it and no ``Q`` is formed.
    """
    m, n = M.shape
    if m == 0 or n == 0:
        return np.zeros((0, n)), np.zeros(0, dtype=np.intp), 0
    packed, piv, _ = pivoted_qr(M)
    rank = rank_from_tolerance(packed.diagonal(), rel_tol, abs_tol, max_rank)
    if rank == 0:
        return np.zeros((0, n)), np.zeros(0, dtype=np.intp), 0
    P = np.empty((rank, n), dtype=np.float64)
    P[:, piv[:rank]] = np.eye(rank)
    if rank < n:
        # T solves R11 T = R12 (well conditioned because R11 comes from
        # pivoted QR), as the transposed system: that is how scipy's
        # triangular solve hands over an R11 that is not Fortran-ordered,
        # and the no-transpose upper solve rounds differently.
        T, info = dtrtrs(packed[:rank, :rank].T, packed[:rank, rank:],
                         lower=1, trans=1)
        if info != 0:
            raise_trtrs_info(info)
        P[:, piv[rank:]] = T
    return P, piv[:rank].copy(), rank


def column_id(M: np.ndarray, rel_tol: float = 1e-8, abs_tol: float = 0.0,
              max_rank: int = None) -> InterpolativeDecomposition:
    """Column interpolative decomposition ``M ~= M[:, J] @ P``.

    Parameters
    ----------
    M:
        Dense matrix ``(m, n)``.
    rel_tol, abs_tol, max_rank:
        Truncation controls; the rank is determined from the pivoted-QR
        diagonal exactly as in :func:`repro.lowrank.rrqr.rrqr`.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError(f"M must be 2-dimensional, got shape {M.shape}")
    return InterpolativeDecomposition(
        *_column_interp(M, rel_tol, abs_tol, max_rank))


def row_id(M: np.ndarray, rel_tol: float = 1e-8, abs_tol: float = 0.0,
           max_rank: int = None) -> InterpolativeDecomposition:
    """Row interpolative decomposition ``M ~= P @ M[J, :]`` with ``P[J, :] = I``.

    Implemented as a column ID of ``M.T``.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError(f"M must be 2-dimensional, got shape {M.shape}")
    P, skeleton, rank = _column_interp(M.T, rel_tol, abs_tol, max_rank)
    return InterpolativeDecomposition(P.T, skeleton, rank)

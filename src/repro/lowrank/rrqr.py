"""Rank-revealing QR (column-pivoted QR) with tolerance-based truncation."""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy.linalg.lapack import dorgqr

from .lapack import pivoted_qr, with_optimal_workspace


def rank_from_tolerance(R_diag: np.ndarray, rel_tol: float, abs_tol: float = 0.0,
                        max_rank: int = None) -> int:
    """Numerical rank implied by the diagonal of the pivoted R factor.

    The diagonal magnitudes of a column-pivoted QR are non-increasing, so the
    rank is the count of entries above ``max(rel_tol * |R[0,0]|, abs_tol)``.
    """
    d = np.abs(np.asarray(R_diag, dtype=np.float64))
    if d.size == 0 or d[0] == 0.0:
        # An exactly zero leading pivot means the whole matrix is zero.
        return 0
    threshold = max(rel_tol * d[0], abs_tol)
    if threshold <= 0.0:
        rank = int(np.count_nonzero(d > 0.0))
    else:
        rank = int(np.count_nonzero(d > threshold))
    if max_rank is not None:
        rank = min(rank, int(max_rank))
    return rank


def rrqr(A: np.ndarray, rel_tol: float = 1e-8, abs_tol: float = 0.0,
         max_rank: int = None) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Column-pivoted QR truncated at the numerical rank.

    Parameters
    ----------
    A:
        Dense matrix of shape ``(m, n)``.
    rel_tol, abs_tol, max_rank:
        Truncation controls (see :func:`rank_from_tolerance`).

    Returns
    -------
    (Q, R, piv, rank):
        ``Q`` is ``(m, rank)`` with orthonormal columns, ``R`` is
        ``(rank, n)`` upper trapezoidal, ``piv`` is the column permutation
        such that ``A[:, piv] ~= Q @ R``.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError(f"A must be 2-dimensional, got shape {A.shape}")
    m, n = A.shape
    if m == 0 or n == 0:
        return (np.zeros((m, 0)), np.zeros((0, n)), np.arange(n, dtype=np.intp), 0)
    packed, piv, tau = pivoted_qr(A)
    k = min(m, n)
    rank = rank_from_tolerance(packed.diagonal(), rel_tol, abs_tol, max_rank)
    R = np.triu(packed[:k])
    Q, = with_optimal_workspace(dorgqr, packed[:, :k], tau, overwrite_a=1)
    return Q[:, :rank], R[:rank], piv, rank

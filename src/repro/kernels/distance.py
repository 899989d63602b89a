"""Squared norms and pairwise distances.

Every kernel in this library is evaluated from inner products and squared
norms through the ``||x - y||^2 = ||x||^2 + ||y||^2 - 2 x.y`` expansion,
which turns a block of kernel values into one GEMM plus elementwise passes
(:meth:`repro.kernels.Kernel.from_inner_products`).  This module holds the
norms that expansion needs and the plain distance matrix the clustering
quality measures read.

Negative values caused by floating point cancellation are clipped to zero so
that downstream ``sqrt``/``exp`` calls never see invalid inputs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def sq_norms(X: np.ndarray) -> np.ndarray:
    """Row-wise squared Euclidean norms ``||X[i]||^2``."""
    return np.einsum("ij,ij->i", X, X)


def pairwise_sq_dists(X: np.ndarray, Y: Optional[np.ndarray] = None) -> np.ndarray:
    """Dense matrix of squared Euclidean distances between rows of X and Y.

    Parameters
    ----------
    X:
        Array of shape ``(n, d)``.
    Y:
        Array of shape ``(m, d)``; defaults to ``X`` (symmetric case).

    Returns
    -------
    numpy.ndarray
        Array ``D`` of shape ``(n, m)`` with ``D[i, j] = ||X[i] - Y[j]||^2``.
    """
    X = np.asarray(X, dtype=np.float64)
    if Y is None or Y is X:
        sq = sq_norms(X)
        D = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
        np.maximum(D, 0.0, out=D)
        np.fill_diagonal(D, 0.0)
        return D
    Y = np.asarray(Y, dtype=np.float64)
    if X.shape[1] != Y.shape[1]:
        raise ValueError(
            f"X and Y must have the same dimension, got {X.shape[1]} and {Y.shape[1]}")
    D = sq_norms(X)[:, None] + sq_norms(Y)[None, :] - 2.0 * (X @ Y.T)
    np.maximum(D, 0.0, out=D)
    return D

"""The out-of-place kernel evaluation, kept as the test oracle.

This is how ``repro.kernels`` formed kernel values before the in-place,
row-tiled evaluator replaced it: a full ``||x||^2 + ||y||^2 - 2 x.y``
distance matrix built from fresh temporaries, then one out-of-place
expression per kernel.  It stays here, written the obvious way, to pin the
evaluator's bits: same operations in the same order, so every value must
match exactly, not to a tolerance.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

_SQRT3 = np.sqrt(3.0)
_SQRT5 = np.sqrt(5.0)


def sq_norms(X: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", X, X)


def sq_dists(X: np.ndarray, Y: Optional[np.ndarray] = None) -> np.ndarray:
    """Squared distances; the symmetric case has an exact zero diagonal."""
    X = np.asarray(X, dtype=np.float64)
    if Y is None:
        sq = sq_norms(X)
        D = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
        np.maximum(D, 0.0, out=D)
        np.fill_diagonal(D, 0.0)
        return D
    Y = np.asarray(Y, dtype=np.float64)
    D = sq_norms(X)[:, None] + sq_norms(Y)[None, :] - 2.0 * (X @ Y.T)
    np.maximum(D, 0.0, out=D)
    return D


def evaluate_sq(kernel, sq: np.ndarray) -> np.ndarray:
    """Kernel values of squared distances, one expression per kernel."""
    name, h = kernel.name, getattr(kernel, "h", None)
    if name == "gaussian":
        return np.exp((-0.5 / (h * h)) * sq)
    if name == "laplacian":
        return np.exp(-np.sqrt(sq) / h)
    if name == "matern32":
        r = np.sqrt(sq) / h
        return (1.0 + _SQRT3 * r) * np.exp(-_SQRT3 * r)
    if name == "matern52":
        r = np.sqrt(sq) / h
        return ((1.0 + _SQRT5 * r + (5.0 / 3.0) * sq / (h * h))
                * np.exp(-_SQRT5 * r))
    raise ValueError(f"no radial oracle for kernel {name!r}")


def from_inner_products(kernel, dots, sq_x, sq_y) -> np.ndarray:
    """Kernel values from inner products, leaving ``dots`` untouched."""
    if kernel.name in ("polynomial", "linear"):
        return (kernel.gamma * dots + kernel.coef0) ** kernel.degree
    D = sq_x + sq_y - 2.0 * dots
    np.maximum(D, 0.0, out=D)
    return evaluate_sq(kernel, D)


def matrix(kernel, X: np.ndarray, Y: Optional[np.ndarray] = None) -> np.ndarray:
    if kernel.name in ("polynomial", "linear"):
        X = np.asarray(X, dtype=np.float64)
        Y = X if Y is None else np.asarray(Y, dtype=np.float64)
        return from_inner_products(kernel, X @ Y.T, None, None)
    return evaluate_sq(kernel, sq_dists(X, Y))


def row_segments(kernel, X: np.ndarray, rows, starts, lengths) -> np.ndarray:
    """``K[rows[b], starts[b]:starts[b] + lengths[b]]``, concatenated."""
    sq = sq_norms(X)
    dots = [np.dot(X[s:s + n], X[r])
            for r, s, n in zip(rows, starts, lengths)]
    index = np.concatenate([np.arange(s, s + n)
                            for s, n in zip(starts, lengths)])
    return from_inner_products(kernel, np.concatenate(dots),
                               np.repeat(sq[rows], lengths), sq[index])


def decision_function(kernel, X_test, X_train, weights,
                      block_size: int) -> np.ndarray:
    """``K(X_test, X_train) @ weights`` in row blocks of ``block_size``."""
    out = np.empty((X_test.shape[0],) + weights.shape[1:])
    for start in range(0, X_test.shape[0], block_size):
        Xb = X_test[start:start + block_size]
        out[start:start + block_size] = matrix(kernel, Xb, X_train) @ weights
    return out

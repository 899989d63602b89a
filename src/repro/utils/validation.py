"""Input validation helpers used at public API boundaries.

The library performs validation at the entry points (classifiers, builders,
clustering front-ends) and then trusts its own internal invariants, keeping
the inner loops free of redundant checks as recommended for numerical code.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np


def check_array_2d(X, name: str = "X", dtype=np.float64) -> np.ndarray:
    """Validate and convert ``X`` to a C-contiguous 2-D float array.

    Parameters
    ----------
    X:
        Array-like of shape ``(n, d)``.
    name:
        Name used in error messages.
    dtype:
        Target dtype (default ``float64``).

    Returns
    -------
    numpy.ndarray
        A 2-D array of the requested dtype.

    Raises
    ------
    ValueError
        If the input is not 2-dimensional, is empty, or contains
        non-finite values.
    """
    arr = np.ascontiguousarray(X, dtype=dtype)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or infinite values")
    return arr


def check_vector(y, name: str = "y", dtype=np.float64, length: Optional[int] = None) -> np.ndarray:
    """Validate and convert ``y`` to a 1-D array, optionally of fixed length."""
    arr = np.ascontiguousarray(y, dtype=dtype)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    if length is not None and arr.shape[0] != length:
        raise ValueError(f"{name} must have length {length}, got {arr.shape[0]}")
    if np.issubdtype(arr.dtype, np.floating) and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or infinite values")
    return arr


def check_square(A, name: str = "A") -> np.ndarray:
    """Validate that ``A`` is a square 2-D array."""
    arr = check_array_2d(A, name=name)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    return arr


def check_index_array(idx, n: int, name: str = "indices") -> np.ndarray:
    """Validate a 1-D integer index array with entries in ``[0, n)``.

    Bool, float, string and object input is refused, not coerced: a cast
    would turn ``1.5`` and ``True`` into row 1 and ``"12"`` into rows 1
    and 2.  An empty sequence is valid and yields an empty array.
    """
    arr = np.asarray(idx)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"{name} must be integers, got dtype {arr.dtype}")
    arr = np.ascontiguousarray(arr, dtype=np.intp)
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise ValueError(f"{name} must lie in [0, {n}), got range "
                         f"[{arr.min()}, {arr.max()}]")
    return arr


def check_permutation(perm, n: int, name: str = "permutation") -> np.ndarray:
    """Validate that ``perm`` is a permutation of ``range(n)``."""
    arr = check_index_array(perm, n, name=name)
    if arr.shape[0] != n:
        raise ValueError(f"{name} must have length {n}, got {arr.shape[0]}")
    seen = np.zeros(n, dtype=bool)
    seen[arr] = True
    if not seen.all():
        raise ValueError(f"{name} is not a permutation of range({n})")
    return arr


def check_labels_binary(y, name: str = "y") -> np.ndarray:
    """Validate a vector of ±1 labels (the encoding used by Algorithm 1)."""
    arr = np.ascontiguousarray(y, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    values = np.unique(arr)
    if not np.all(np.isin(values, (-1.0, 1.0))):
        raise ValueError(
            f"{name} must contain only -1/+1 labels, got values {values[:10]}")
    return arr


def check_positive(value: float, name: str) -> float:
    """Validate a strictly positive scalar."""
    value = float(value)
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a positive finite number, got {value}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Validate a non-negative scalar."""
    value = float(value)
    if not np.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be a non-negative finite number, got {value}")
    return value


def check_same_dimension(X: np.ndarray, Y: np.ndarray,
                         names: Sequence[str] = ("X", "Y")) -> None:
    """Validate that two point sets live in the same feature dimension."""
    if X.shape[1] != Y.shape[1]:
        raise ValueError(
            f"{names[0]} and {names[1]} must have the same number of columns, "
            f"got {X.shape[1]} and {Y.shape[1]}")

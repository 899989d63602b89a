"""Polynomial and linear kernels.

These kernels are *not* radial: they depend on inner products rather than
distances.  They are provided for completeness of the KRR front-end (the
linear kernel recovers classical ridge regression) and bypass the
radial-distance machinery by overriding :meth:`Kernel.from_inner_products`,
the one method every kernel block goes through.
Because they are globally low-rank (rank <= d for the linear kernel), they
are also useful as sanity checks for the low-rank compression kernels.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..utils.validation import check_non_negative, check_positive
from .base import TILE_BYTES, Kernel, register_kernel


@register_kernel("polynomial")
class PolynomialKernel(Kernel):
    """Polynomial kernel ``K(x, y) = (gamma x.y + c)^degree``."""

    def __init__(self, degree: int = 2, gamma: float = 1.0, coef0: float = 1.0):
        if int(degree) < 1:
            raise ValueError("degree must be >= 1")
        self.degree = int(degree)
        self.gamma = check_positive(gamma, "gamma")
        self.coef0 = check_non_negative(coef0, "coef0")

    def _evaluate_sq(self, sq_dists: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError("polynomial kernels are not radial")

    def matrix(self, X: np.ndarray, Y: Optional[np.ndarray] = None) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        Yv = X if Y is None else np.asarray(Y, dtype=np.float64)
        return self.from_inner_products(X @ Yv.T, None, None)

    def from_inner_products(self, dots: np.ndarray, sq_x, sq_y) -> np.ndarray:
        """``(gamma <x, y> + c)^degree`` in place; the norms are not read."""
        step = TILE_BYTES // (dots[:1].nbytes or 1) or 1
        for lo in range(0, dots.shape[0], step):
            tile = dots[lo:lo + step]
            tile *= self.gamma
            tile += self.coef0
            tile **= self.degree
        return dots

    def diagonal_value(self) -> float:  # pragma: no cover - not well defined
        raise NotImplementedError("polynomial kernel diagonal depends on the point")


@register_kernel("linear")
class LinearKernel(PolynomialKernel):
    """Linear kernel ``K(x, y) = x.y`` (classical ridge regression)."""

    def __init__(self):
        super().__init__(degree=1, gamma=1.0, coef0=0.0)

"""Matérn kernels (nu = 3/2 and nu = 5/2).

These are standard kernels in Gaussian-process regression with the same
radial, exponentially decaying structure as the Gaussian kernel, so the
clustering-based reordering and hierarchical compression studied in the
paper apply unchanged.  They are included as extension kernels and are
exercised by the ablation benchmarks.
"""

from __future__ import annotations

import numpy as np

from ..utils.validation import check_positive
from .base import Kernel, register_kernel

_SQRT3 = np.sqrt(3.0)
_SQRT5 = np.sqrt(5.0)


@register_kernel("matern32")
class Matern32Kernel(Kernel):
    """Matérn kernel with smoothness ``nu = 3/2`` and length scale ``h``."""

    decreasing = True

    def __init__(self, h: float = 1.0):
        self.h = check_positive(h, "h")

    def _evaluate_sq(self, sq_dists: np.ndarray) -> np.ndarray:
        # (1 + sqrt(3) r) * exp(-sqrt(3) r), r = sqrt(sq) / h
        r = np.sqrt(sq_dists, out=sq_dists)
        r /= self.h
        decay = np.multiply(r, -_SQRT3)
        np.exp(decay, out=decay)
        r *= _SQRT3
        r += 1.0
        r *= decay
        return r


@register_kernel("matern52")
class Matern52Kernel(Kernel):
    """Matérn kernel with smoothness ``nu = 5/2`` and length scale ``h``."""

    decreasing = True

    def __init__(self, h: float = 1.0):
        self.h = check_positive(h, "h")

    def _evaluate_sq(self, sq_dists: np.ndarray) -> np.ndarray:
        # (1 + sqrt(5) r + 5/3 sq / h^2) * exp(-sqrt(5) r), r = sqrt(sq) / h
        r = np.sqrt(sq_dists)
        r /= self.h
        decay = np.multiply(r, -_SQRT5)
        np.exp(decay, out=decay)
        sq_dists *= 5.0 / 3.0
        sq_dists /= self.h * self.h
        r *= _SQRT5
        r += 1.0
        sq_dists += r
        sq_dists *= decay
        return sq_dists

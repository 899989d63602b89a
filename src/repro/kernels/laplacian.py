"""Laplacian (exponential) kernel.

``K(x, y) = exp(-||x - y|| / h)``

Not used in the paper's headline experiments but provided as a drop-in
alternative: it shares the radial structure exploited by the clustering
preprocessing and the hierarchical formats, and exercises the code path
where the kernel needs the distance itself rather than its square.
"""

from __future__ import annotations

import numpy as np

from ..utils.validation import check_positive
from .base import Kernel, register_kernel


@register_kernel("laplacian")
class LaplacianKernel(Kernel):
    """Laplacian kernel with bandwidth ``h``."""

    decreasing = True

    def __init__(self, h: float = 1.0):
        self.h = check_positive(h, "h")

    def _evaluate_sq(self, sq_dists: np.ndarray) -> np.ndarray:
        d = np.sqrt(sq_dists, out=sq_dists)
        np.negative(d, out=d)
        d /= self.h
        return np.exp(d, out=d)

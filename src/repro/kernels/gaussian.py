"""The Gaussian radial basis function kernel (Eq. (1.1) of the paper).

``K(x_i, x_j) = exp(-||x_i - x_j||^2 / (2 h^2))``

The bandwidth ``h`` interpolates between the identity matrix (``h -> 0``)
and the rank-one all-ones matrix (``h -> inf``); intermediate values —
the ones actually selected by cross-validation — are exactly the regime
where hierarchical low-rank structure, rather than global low rank,
is needed.
"""

from __future__ import annotations

import numpy as np

from ..utils.validation import check_positive
from .base import Kernel, register_kernel


@register_kernel("gaussian")
class GaussianKernel(Kernel):
    """Gaussian (RBF) kernel with bandwidth ``h``.

    Parameters
    ----------
    h:
        Bandwidth (Gaussian width).  Must be positive.

    Examples
    --------
    >>> import numpy as np
    >>> k = GaussianKernel(h=1.0)
    >>> X = np.array([[0.0], [1.0]])
    >>> K = k.matrix(X)
    >>> np.allclose(K, [[1.0, np.exp(-0.5)], [np.exp(-0.5), 1.0]])
    True
    """

    decreasing = True

    def __init__(self, h: float = 1.0):
        self.h = check_positive(h, "h")

    def _evaluate_sq(self, sq_dists: np.ndarray) -> np.ndarray:
        sq_dists *= -0.5 / (self.h * self.h)
        return np.exp(sq_dists, out=sq_dists)

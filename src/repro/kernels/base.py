"""Kernel function abstraction.

A :class:`Kernel` maps squared Euclidean distances to similarity scores.
Keeping the interface in terms of *squared* distances lets every kernel
reuse the same GEMM-based distance computation and avoids redundant
square roots for kernels (such as the Gaussian) that only need ``r^2``.

Every dense block of kernel values — a full matrix, an extracted block, a
batch of prediction rows — is formed by :meth:`Kernel.from_inner_products`
from the GEMM output its caller just computed, in place and tile by tile.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Optional, Type

import numpy as np

from .distance import sq_norms

#: Bytes of one row tile of the elementwise passes of
#: :meth:`Kernel.from_inner_products`: small enough that a tile stays in a
#: core's L2 cache across the four or five passes over it.
TILE_BYTES = 1 << 19


class Kernel(abc.ABC):
    """Abstract base class for radial kernels ``K(x, y) = f(||x - y||)``.

    Subclasses implement :meth:`_evaluate_sq`, mapping an array of squared
    distances to kernel values.  All public entry points (full matrices,
    rectangular blocks) are provided here.
    """

    #: short identifier used by :func:`get_kernel`
    name: str = "abstract"
    #: ``True`` when the kernel is non-negative and never grows with the
    #: distance.  :meth:`repro.kernels.KernelOperator.screen_rows` may then
    #: bound a block's rows from a larger squared distance; otherwise it
    #: returns their exact largest values.
    decreasing: bool = False

    @abc.abstractmethod
    def _evaluate_sq(self, sq_dists: np.ndarray) -> np.ndarray:
        """Map squared distances to kernel values.

        ``sq_dists`` is a contiguous float64 array the caller owns: the
        library's kernels overwrite it and return it.  A kernel returning a
        new array instead is copied back into it.
        """

    # ------------------------------------------------------------------ API
    def __call__(self, X: np.ndarray, Y: Optional[np.ndarray] = None) -> np.ndarray:
        """Dense kernel matrix between rows of ``X`` and rows of ``Y``."""
        return self.matrix(X, Y)

    def matrix(self, X: np.ndarray, Y: Optional[np.ndarray] = None) -> np.ndarray:
        """Dense kernel matrix ``K[i, j] = K(X[i], Y[j])``."""
        X = np.asarray(X, dtype=np.float64)
        if Y is None or Y is X:
            sq = sq_norms(X)
            dots = X @ X.T
            # A point's distance to itself is 0, not the GEMM's rounding
            # residue: with x.x replaced by ||x||^2 the expansion
            # ||x||^2 + ||x||^2 - 2 ||x||^2 is two exact doublings that
            # cancel exactly.
            np.fill_diagonal(dots, sq)
            return self.from_inner_products(dots, sq[:, None], sq[None, :])
        Y = np.asarray(Y, dtype=np.float64)
        if X.shape[1] != Y.shape[1]:
            raise ValueError(
                f"X and Y must have the same dimension, got {X.shape[1]} "
                f"and {Y.shape[1]}")
        return self.from_inner_products(X @ Y.T, sq_norms(X)[:, None],
                                        sq_norms(Y)[None, :])

    def from_inner_products(self, dots: np.ndarray, sq_x: np.ndarray,
                            sq_y: np.ndarray) -> np.ndarray:
        """Kernel values from inner products and squared norms, in place.

        ``dots`` holds ``<x, y>`` per entry (a C-contiguous float64 array
        the caller hands over, typically its GEMM output); ``sq_x`` /
        ``sq_y`` the matching ``||x||^2`` / ``||y||^2`` as arrays that
        broadcast against it.  ``dots`` is overwritten with the kernel
        values and returned.  This is the only place a block of kernel
        values is formed: the operators, the prediction paths and
        :meth:`matrix` all feed it their GEMM/GEMV results.

        Radial kernels expand ``||x - y||^2 = ||x||^2 + ||y||^2 - 2 x.y``
        (clipped at 0) and apply :meth:`_evaluate_sq`, one row tile of at
        most :data:`TILE_BYTES` at a time; inner-product kernels override
        it and ignore the norms.
        """
        # Element extraction makes this call tens of thousands of times per
        # fit, so the loop calls no function but _evaluate_sq (ufuncs and
        # slicing are not function calls to the profiler).
        n = dots.shape[0]
        step = TILE_BYTES // (dots[:1].nbytes or 1) or 1
        x_rows = sq_x.ndim == dots.ndim and sq_x.shape[0] == n
        y_rows = sq_y.ndim == dots.ndim and sq_y.shape[0] == n
        for lo in range(0, n, step):
            hi = lo + step
            tile = dots[lo:hi]
            outer = (sq_x[lo:hi] if x_rows else sq_x) + (
                sq_y[lo:hi] if y_rows else sq_y)
            tile *= -2.0
            tile += outer
            del outer  # freed before the kernel's own temporaries
            np.maximum(tile, 0.0, out=tile)
            values = self._evaluate_sq(tile)
            if values is not tile:
                tile[...] = values
        return dots

    def block(self, X: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Sub-block ``K[rows, cols]`` of the kernel matrix of ``X``.

        This is the element-extraction half of the partially matrix-free
        interface: only ``len(rows) * len(cols)`` kernel evaluations are
        performed.
        """
        return self.matrix(X[np.asarray(rows, dtype=np.intp)],
                           X[np.asarray(cols, dtype=np.intp)])

    def diagonal_value(self) -> float:
        """Value of ``K(x, x)`` (1.0 for all normalized radial kernels)."""
        return float(self._evaluate_sq(np.zeros(1))[0])

    # ---------------------------------------------------------------- misc
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(self.__dict__.items()))
        return f"{type(self).__name__}({params})"


KERNEL_REGISTRY: Dict[str, Callable[..., Kernel]] = {}


def register_kernel(name: str) -> Callable[[Type[Kernel]], Type[Kernel]]:
    """Class decorator adding a kernel class to :data:`KERNEL_REGISTRY`."""

    def deco(cls: Type[Kernel]) -> Type[Kernel]:
        KERNEL_REGISTRY[name] = cls
        cls.name = name
        return cls

    return deco


def get_kernel(name: str, **params) -> Kernel:
    """Instantiate a kernel by name.

    Parameters
    ----------
    name:
        One of ``"gaussian"``, ``"laplacian"``, ``"matern32"``,
        ``"matern52"``, ``"polynomial"``, ``"linear"``.
    **params:
        Passed to the kernel constructor (e.g. ``h=1.5`` for the Gaussian).
    """
    try:
        cls = KERNEL_REGISTRY[name]
    except KeyError as exc:
        known = ", ".join(sorted(KERNEL_REGISTRY))
        raise ValueError(f"unknown kernel {name!r}; known kernels: {known}") from exc
    return cls(**params)

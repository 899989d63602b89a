"""Kernel function abstraction.

A :class:`Kernel` maps squared Euclidean distances to similarity scores.
Keeping the interface in terms of *squared* distances lets every kernel
reuse the same GEMM-based distance computation and avoids redundant
square roots for kernels (such as the Gaussian) that only need ``r^2``.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Optional, Type

import numpy as np

from .distance import pairwise_sq_dists, row_sq_dists


class Kernel(abc.ABC):
    """Abstract base class for radial kernels ``K(x, y) = f(||x - y||)``.

    Subclasses implement :meth:`_evaluate_sq`, mapping an array of squared
    distances to kernel values.  All public entry points (full matrices,
    rectangular blocks, single rows) are provided here.
    """

    #: short identifier used by :func:`get_kernel`
    name: str = "abstract"

    @abc.abstractmethod
    def _evaluate_sq(self, sq_dists: np.ndarray) -> np.ndarray:
        """Map squared distances to kernel values (vectorised)."""

    # ------------------------------------------------------------------ API
    def __call__(self, X: np.ndarray, Y: Optional[np.ndarray] = None) -> np.ndarray:
        """Dense kernel matrix between rows of ``X`` and rows of ``Y``."""
        return self.matrix(X, Y)

    def matrix(self, X: np.ndarray, Y: Optional[np.ndarray] = None) -> np.ndarray:
        """Dense kernel matrix ``K[i, j] = K(X[i], Y[j])``."""
        return self._evaluate_sq(pairwise_sq_dists(X, Y))

    def from_inner_products(self, dots: np.ndarray, sq_x: np.ndarray,
                            sq_y: np.ndarray) -> np.ndarray:
        """Kernel values from inner products and squared norms.

        ``dots`` holds ``<x, y>`` per entry, ``sq_x`` / ``sq_y`` the
        matching ``||x||^2`` / ``||y||^2`` (anything broadcastable against
        ``dots``).  This is the hook that lets
        :class:`repro.kernels.KernelOperator` cache the norms once and
        feed every extraction from GEMM/GEMV results; radial kernels
        expand ``||x - y||^2`` exactly like
        :func:`repro.kernels.distance.pairwise_sq_dists`, inner-product
        kernels override it and ignore the norms.
        """
        D = sq_x + sq_y - 2.0 * dots
        np.maximum(D, 0.0, out=D)
        return self._evaluate_sq(D)

    def block(self, X: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Sub-block ``K[rows, cols]`` of the kernel matrix of ``X``.

        This is the element-extraction half of the partially matrix-free
        interface: only ``len(rows) * len(cols)`` kernel evaluations are
        performed.
        """
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        return self._evaluate_sq(pairwise_sq_dists(X[rows], X[cols]))

    def row(self, x: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Kernel values between a single point ``x`` and all rows of ``Y``.

        Used at prediction time (Step 3 of Algorithm 1) to form the kernel
        vector ``K'(i)`` of a test point against the training set.
        """
        return self._evaluate_sq(row_sq_dists(x, Y))

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

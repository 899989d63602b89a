"""Kernel functions and matrix-free kernel operators.

This package implements the kernels used in the paper (the Gaussian radial
basis function of Eq. (1.1) is the primary one) together with the *partially
matrix-free* interface that the HSS and H-matrix builders require: selected
element / block extraction plus matrix-vector products, without ever storing
the full ``n x n`` kernel matrix.
"""

from .base import Kernel, get_kernel, KERNEL_REGISTRY
from .gaussian import GaussianKernel
from .laplacian import LaplacianKernel
from .matern import Matern32Kernel, Matern52Kernel
from .polynomial import PolynomialKernel, LinearKernel
from .distance import pairwise_sq_dists
from .operator import KernelOperator, DenseMatrixOperator

__all__ = [
    "Kernel",
    "get_kernel",
    "KERNEL_REGISTRY",
    "GaussianKernel",
    "LaplacianKernel",
    "Matern32Kernel",
    "Matern52Kernel",
    "PolynomialKernel",
    "LinearKernel",
    "pairwise_sq_dists",
    "KernelOperator",
    "DenseMatrixOperator",
]

"""Kernel ridge regression for classification (Algorithm 1 of the paper).

The package provides:

* interchangeable solvers for the training system ``(K + lambda I) w = y``
  (:class:`DenseSolver` — exact Cholesky baseline, :class:`HSSSolver` — the
  compressed ULV direct solver, optionally with H-matrix accelerated
  sampling, and :class:`CGSolver` — matrix-free conjugate gradients),
* :class:`KernelRidgeClassifier` — the two-class classifier of Algorithm 1,
* :class:`OneVsAllClassifier` — the multi-class extension (Section 2),
* :class:`KernelRidgeRegressor` — plain regression with the same solvers
  (all three are target-encoding shells over the one lifecycle core in
  :mod:`repro.krr.estimator`),
* accuracy metrics (Eq. (2.1)).
"""

from .solvers import (DenseSolver, HSSSolver, CGSolver, make_solver,
                      SolveReport)
from .classifier import KernelRidgeClassifier
from .multiclass import OneVsAllClassifier
from .regression import KernelRidgeRegressor
from .metrics import accuracy, confusion_matrix, error_rate

__all__ = [
    "DenseSolver",
    "HSSSolver",
    "CGSolver",
    "make_solver",
    "SolveReport",
    "KernelRidgeClassifier",
    "OneVsAllClassifier",
    "KernelRidgeRegressor",
    "accuracy",
    "confusion_matrix",
    "error_rate",
]

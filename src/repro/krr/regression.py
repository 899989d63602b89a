"""Kernel ridge regression for real-valued targets.

The paper is about classification, but the training stage (Step 2 of
Algorithm 1) is identical for regression — only Step 4 (thresholding)
disappears.  Having a regressor alongside the classifier lets the test
suite check the solvers against analytic regression solutions and makes the
library usable for the broader class of kernel methods mentioned in the
introduction.
"""

from __future__ import annotations

import numpy as np

from ..utils.validation import check_vector
from .estimator import KernelRidgeEstimator


class KernelRidgeRegressor(KernelRidgeEstimator):
    """Kernel ridge regression with interchangeable hierarchical solvers.

    Parameters and lifecycle verbs are those of
    :class:`repro.krr.estimator.KernelRidgeEstimator` — the training
    stage is identical — with a real-valued target vector ``y``.  There
    is no artifact format for regressors: ``save`` raises
    :class:`repro.serving.ArtifactError`.
    """

    def _encode_targets(self, y, n_rows, name, fitting):
        return check_vector(y, name, length=n_rows)

    def predict(self, X_test: np.ndarray, block_size: int = 1024) -> np.ndarray:
        """Predicted real values for the test points."""
        return self.decision_function(X_test, block_size=block_size)

    def score(self, X_test: np.ndarray, y_test: np.ndarray) -> float:
        """Coefficient of determination (R^2) on a test set."""
        y_test = check_vector(y_test, "y_test")
        pred = self.predict(X_test)
        ss_res = float(np.sum((y_test - pred) ** 2))
        ss_tot = float(np.sum((y_test - y_test.mean()) ** 2))
        if ss_tot == 0.0:
            return 1.0 if ss_res == 0.0 else 0.0
        return 1.0 - ss_res / ss_tot

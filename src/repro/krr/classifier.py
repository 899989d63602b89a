"""Two-class kernel ridge regression classifier (Algorithm 1 of the paper).

The classifier performs all five steps of Algorithm 1:

0. preprocessing: reorder the training points with a clustering method so
   that nearby points get nearby indices (Section 4),
1. (implicitly) define the kernel matrix of the reordered training data,
2. solve ``(K + lambda I) w = y`` with the selected solver,
3. compute the kernel vector of every test point against the training set,
4. predict ``sign(w . K'(x'))``.

Steps 0–3 and the model's whole lifecycle are the shared
:class:`repro.krr.estimator.KernelRidgeEstimator`; this module adds the
±1 label encoding of the paper and Step 4.
:class:`repro.krr.OneVsAllClassifier` extends this to multi-class
problems.
"""

from __future__ import annotations

import numpy as np

from ..utils.validation import check_labels_binary
from .estimator import KernelRidgeEstimator


class KernelRidgeClassifier(KernelRidgeEstimator):
    """Gaussian kernel ridge regression classifier with ±1 labels.

    Parameters
    ----------
    h, lam, solver, clustering, kernel, leaf_size, seed, workers, shards,
    solver_options:
        See :class:`repro.krr.estimator.KernelRidgeEstimator`, which also
        provides ``fit`` / ``refit`` / ``refit_kernel`` / ``partial_fit``
        / ``recompress``, ``decision_function`` and ``save`` / ``load``.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.datasets import gaussian_mixture
    >>> X, y = gaussian_mixture(n=200, d=4, seed=0)
    >>> clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="dense")
    >>> _ = clf.fit(X, y)
    >>> acc = (clf.predict(X) == y).mean()
    >>> acc > 0.9
    True
    """

    def _encode_targets(self, y, n_rows, name, fitting):
        y = check_labels_binary(y, name)
        if y.shape[0] != n_rows:
            raise ValueError(
                f"{name} has {y.shape[0]} entries for {n_rows} rows")
        return y

    def predict(self, X_test: np.ndarray) -> np.ndarray:
        """Predicted ±1 labels (Step 4: the sign of the decision values)."""
        scores = self.decision_function(X_test)
        return np.where(scores >= 0.0, 1.0, -1.0)

    def score(self, X_test: np.ndarray, y_test: np.ndarray) -> float:
        """Prediction accuracy on a labelled test set (Eq. (2.1))."""
        y_test = check_labels_binary(y_test, "y_test")
        from .metrics import accuracy
        return accuracy(y_test, self.predict(X_test))

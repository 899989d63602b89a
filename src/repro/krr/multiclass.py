"""One-vs-all multi-class kernel ridge regression (Section 2 of the paper).

"To distinguish between c > 2 classes, we would need to construct c binary
classifiers, that differ from the Algorithm 1 only in Step 4", with the
absolute decision value interpreted as a confidence and the predicted class
taken as the argmax over the per-class confidences.

The per-class binary classifiers share the same clustering and kernel
hyper-parameters; when the underlying solver is the HSS one, the expensive
compression and factorization depend only on ``(h, lambda)`` and therefore
can be shared across all the classes: only the right-hand side changes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .estimator import KernelRidgeEstimator


class OneVsAllClassifier(KernelRidgeEstimator):
    """Multi-class classifier built from shared-factorization binary KRR.

    Parameters
    ----------
    h, lam, solver, clustering, kernel, leaf_size, seed, workers, shards,
    solver_options:
        See :class:`repro.krr.estimator.KernelRidgeEstimator`, which also
        provides the lifecycle verbs, ``decision_function`` (one signed
        score column per class) and ``save`` / ``load``.

    Notes
    -----
    The training system ``(K + lambda I)`` does not depend on the class, so
    a *single* factorization is computed and reused to solve for the ``c``
    one-vs-all weight vectors — the natural multi-class extension of the
    paper's pipeline, and much cheaper than fitting ``c`` independent
    classifiers.  All ``c`` right-hand sides are solved in one multi-RHS
    call, which on the distributed path costs one multi-RHS solve per
    shard against the already-factorized capacitance system instead of one
    per class.
    """

    #: sorted label vocabulary of the last fit (one weight column each)
    classes_: Optional[np.ndarray] = None

    def _encode_targets(self, y, n_rows, name, fitting):
        y = np.asarray(y)
        if y.ndim != 1 or y.shape[0] != n_rows:
            raise ValueError(
                f"{name} must be 1-D with one label per row ({n_rows})")
        if fitting:
            classes = np.unique(y)
            if classes.size < 2:
                raise ValueError("need at least two distinct classes")
            self.classes_ = classes
        else:
            unseen = np.setdiff1d(np.unique(y), self.classes_)
            if unseen.size:
                raise ValueError(
                    f"labels {unseen.tolist()} were not present at fit "
                    "time; adding a new class requires a full fit()")
        # One ±1 target column per class.
        return np.where(y[:, None] == self.classes_[None, :], 1.0, -1.0)

    def _decode_targets(self, targets):
        return self.classes_[np.argmax(targets, axis=1)]

    def fit(self, X: np.ndarray, y: np.ndarray) -> "OneVsAllClassifier":
        """Train on integer / string class labels (2 or more classes)."""
        classes = self.classes_
        try:
            return super().fit(X, y)
        except BaseException:
            # A failed fit keeps the label vocabulary of the old weights.
            self.classes_ = classes
            raise

    def predict(self, X_test: np.ndarray) -> np.ndarray:
        """Predicted class labels: argmax of the per-class decision scores.

        The paper's Section 2 writes the per-class confidence as
        ``|w(c) . K'(i)|``; we use the signed score, which coincides with
        the usual one-vs-all rule and with the sign rule in the two-class
        case (a strongly negative score indicates the point does *not*
        belong to the class, so its absolute value should not be rewarded).
        """
        raw = self.decision_function(X_test)
        return self.classes_[np.argmax(raw, axis=1)]

    def score(self, X_test: np.ndarray, y_test: np.ndarray) -> float:
        """Multi-class accuracy."""
        y_test = np.asarray(y_test)
        from .metrics import accuracy
        return accuracy(y_test, self.predict(X_test))

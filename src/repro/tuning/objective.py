"""The KRR tuning objective: validation accuracy as a function of (h, lambda).

Two practical details from the paper are reflected here:

* the objective is the accuracy on a *validation* set held out from the
  training data (the test set is only touched once, after tuning);
* "When the parameter lambda changes, we only need to update the diagonal
  entries of the HSS matrix, and there is no need to perform HSS
  construction again.  However, a change to h requires to perform HSS
  reconstruction from scratch, which is costly." (Section 5.3).

The objective trains the model it tunes: every evaluation drives a
:class:`repro.krr.KernelRidgeClassifier` through its lifecycle verbs, so
the three move prices are the model's own.  A fitted classifier is kept
per ``h`` (LRU); an evaluation at a resident ``h`` is a λ-only
:meth:`~repro.krr.KernelRidgeClassifier.refit`, an ``h``-miss with a full
cache re-targets the oldest classifier with
:meth:`~repro.krr.KernelRidgeClassifier.refit_kernel` (clustering and
block cluster tree kept), and anything else is a cold ``fit``.  The
validation kernel block is kept beside each resident classifier, so a
λ-move scores without evaluating the kernel.  Each is
bitwise the cold fit at the same ``(h, lambda)`` on the serial solvers,
so the move only changes the price of a value, never the value.  The
evaluation counter still counts every (h, lambda) pair as one run,
exactly like the paper's "runs".

All three searchers (:class:`repro.tuning.GridSearch` orders its grid so
λ varies fastest, :class:`repro.tuning.RandomSearch` can sweep several λ
values per sampled h, and :class:`repro.tuning.BanditTuner` carries a
λ-perturbation technique) are shaped to produce λ-only moves, so most of
a tuning run rides the cheap refit path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..hss.streaming import removal_factors, solve_kept
from ..krr.classifier import KernelRidgeClassifier
from ..krr.metrics import accuracy
from ..utils.validation import check_array_2d, check_labels_binary

#: rows per validation kernel block: ``decision_function``'s default, so a
#: kept block's product is the one ``clf.score`` forms
_SCORE_BLOCK = 1024


@dataclass
class EvaluationRecord:
    """One objective evaluation (a single "run" in the paper's terminology).

    Attributes
    ----------
    h, lam:
        The evaluated configuration.
    accuracy:
        Validation accuracy of that configuration.
    move:
        Cost class of the evaluation, cheapest first:

        * ``"lam_move"`` — a classifier fitted at this ``h`` was resident:
          :meth:`~repro.krr.KernelRidgeClassifier.refit` paid only a
          factorization + solve, and the score reused the validation
          kernel block;
        * ``"h_move"`` — the least recently used classifier was
          re-targeted to the new ``h`` with
          :meth:`~repro.krr.KernelRidgeClassifier.refit_kernel` (its
          clustering, permutation and block cluster tree were kept, only
          the kernel numerics were redone);
        * ``"cold"`` — a new classifier was fitted, clustering included.
    """

    h: float
    lam: float
    accuracy: float
    move: str = "cold"


class KRRObjective:
    """Validation-accuracy objective for (h, lambda) tuning.

    Parameters
    ----------
    X_train, y_train:
        Training data with ±1 labels.
    X_val, y_val:
        Validation data with ±1 labels (drives the tuning).
    cache_size:
        Number of distinct ``h`` values whose fitted classifier is kept
        resident (LRU-evicted beyond that).  The default of 1 is all that
        λ-grouped searchers (λ-fastest grid order, ``lam_sweep`` random
        search) need.  Interleaving searchers benefit from a deeper
        cache: :class:`repro.tuning.BanditTuner`'s λ-perturb technique
        revisits the incumbent between exploration moves, so a
        ``cache_size`` of ~6 (one slot per technique-rotation step) keeps
        the incumbent resident at a cost of ``cache_size`` fitted models
        and (with ``cv = 1``) as many ``n_val x n`` validation kernel
        blocks.
    solver:
        The classifier's solver.  ``"dense"`` (default) removes
        compression noise from the strategy comparison, which is what
        Figure 6 is about.  ``"hss"`` runs the paper's actual training
        stack: one λ-free compression per ``h``, and every λ-only move
        refits the resident compression — one ``O(n r^2)`` ULV instead of
        a full build.
    leaf_size, seed:
        The classifier's leaf size and seed (clustering and sampling).
    clustering:
        Ordering: a method name, reordered at ``leaf_size`` / ``seed``, or
        a full :class:`repro.config.ClusteringOptions` (which then
        supplies its own leaf size) — tune on the ordering the model will
        be trained with.
    hss_options, hmatrix_options, use_hmatrix_sampling:
        Compression options of the ``"hss"`` solver.
    cv:
        With the default 1 each evaluation scores the held-out validation
        split.  With ``cv = K > 1`` the objective instead returns K-fold
        cross-validation accuracy on the *training* set (folds assign
        original index ``i`` to fold ``i % K``) and the validation split
        is ignored.  Each fold is solved against the classifier's
        full-data factorization: removing a fold from the training set is
        a principal-submatrix update
        (:func:`repro.hss.streaming.solve_kept`), so a fold costs one
        multi-RHS solve of the fold's unit columns, one of its masked
        labels and a small dense fold-sized LU instead of a fresh
        compression + factorization.  That is algebraically identical to
        training each fold's complement from scratch.
    """

    def __init__(self, X_train: np.ndarray, y_train: np.ndarray,
                 X_val: np.ndarray, y_val: np.ndarray,
                 cache_size: int = 1,
                 solver: str = "dense",
                 leaf_size: int = 16,
                 seed=0,
                 hss_options=None,
                 hmatrix_options=None,
                 use_hmatrix_sampling: bool = True,
                 cv: int = 1,
                 clustering="two_means"):
        self.X_train = check_array_2d(X_train, "X_train")
        self.y_train = check_labels_binary(y_train, "y_train")
        self.X_val = check_array_2d(X_val, "X_val")
        self.y_val = check_labels_binary(y_val, "y_val")
        if self.X_train.shape[0] != self.y_train.shape[0]:
            raise ValueError("X_train and y_train size mismatch")
        if self.X_val.shape[0] != self.y_val.shape[0]:
            raise ValueError("X_val and y_val size mismatch")
        if self.X_train.shape[1] != self.X_val.shape[1]:
            raise ValueError("train and validation dimensions differ")
        solver = str(solver).strip().lower()
        if solver not in ("dense", "hss"):
            raise ValueError(f"solver must be 'dense' or 'hss', got {solver!r}")
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        cv = int(cv)
        if cv < 1:
            raise ValueError("cv must be >= 1")
        if cv > self.X_train.shape[0]:
            raise ValueError(
                f"cv={cv} exceeds the number of training points "
                f"({self.X_train.shape[0]})")
        self.solver = solver
        self.cache_size = int(cache_size)
        self.leaf_size = int(leaf_size)
        self.seed = seed
        self.clustering = clustering
        self.hss_options = hss_options
        self.hmatrix_options = hmatrix_options
        self.use_hmatrix_sampling = bool(use_hmatrix_sampling)
        self.cv = cv
        self.records: List[EvaluationRecord] = []
        #: LRU cache: h -> the classifier fitted at that h
        self._cache: "dict[float, KernelRidgeClassifier]" = {}
        #: h -> the validation kernel blocks of that classifier (cv = 1)
        self._val_blocks: "dict[float, List[np.ndarray]]" = {}
        #: the runtime config cold classifiers are built from (set by
        #: :meth:`from_config`; ``None`` = the constructor arguments)
        self._config = None

    @classmethod
    def from_config(cls, config, X_train: np.ndarray, y_train: np.ndarray,
                    X_val: np.ndarray, y_val: np.ndarray) -> "KRRObjective":
        """Build an objective from a :class:`repro.runtime.RuntimeConfig`.

        Every cold classifier is built the way ``repro train`` builds its
        model (:meth:`repro.krr.KernelRidgeClassifier.from_config`) with
        ``tuning.backend`` as the solver, so the kernel family, the
        clustering, the compression options and ``distributed.*`` reach
        the tuner; the tuning section supplies the per-``h`` cache size
        and ``cv``.  The ``"dense"`` backend trains in one process
        whatever ``distributed.shards`` says.

        Parameters
        ----------
        config:
            The resolved :class:`repro.runtime.RuntimeConfig`.
        X_train, y_train:
            Training split (±1 labels).
        X_val, y_val:
            Validation split scored by each evaluation.

        Returns
        -------
        KRRObjective
            The configured objective.
        """
        t = config.tuning
        objective = cls(X_train, y_train, X_val, y_val,
                        cache_size=t.cache_size,
                        solver=t.backend,
                        leaf_size=config.clustering.leaf_size,
                        seed=config.clustering.seed,
                        hss_options=config.hss,
                        hmatrix_options=config.hmatrix,
                        use_hmatrix_sampling=config.solver.use_hmatrix_sampling,
                        cv=t.cv,
                        clustering=config.clustering)
        distributed = config.distributed
        if t.backend != "hss":
            distributed = replace(distributed, shards=None)
        objective._config = replace(
            config, solver=replace(config.solver, name=t.backend),
            distributed=distributed)
        return objective

    def _classifier(self, h: float, lam: float) -> KernelRidgeClassifier:
        """The unfitted classifier a cold evaluation at ``(h, lam)`` fits.

        Parameters
        ----------
        h, lam:
            The configuration.

        Returns
        -------
        KernelRidgeClassifier
            Built from the runtime config for :meth:`from_config`
            objectives, from the constructor arguments otherwise.
        """
        if self._config is not None:
            return KernelRidgeClassifier.from_config(self._config, h=h,
                                                     lam=lam)
        options = {}
        if self.solver == "hss":
            options = {"hss_options": self.hss_options,
                       "hmatrix_options": self.hmatrix_options,
                       "use_hmatrix_sampling": self.use_hmatrix_sampling}
        return KernelRidgeClassifier(
            h=h, lam=lam, solver=self.solver, clustering=self.clustering,
            leaf_size=self.leaf_size, seed=self.seed, solver_options=options)

    # ------------------------------------------------------------------ call
    def __call__(self, config: Dict[str, float]) -> float:
        """Evaluate the validation accuracy of one (h, lambda) configuration.

        Parameters
        ----------
        config:
            Dictionary with ``"h"`` and ``"lam"`` entries.

        Returns
        -------
        float
            Validation accuracy in ``[0, 1]``.
        """
        h = float(config["h"])
        lam = float(config["lam"])
        if h <= 0 or lam < 0:
            raise ValueError(f"invalid configuration h={h}, lam={lam}")
        clf = self._cache.pop(h, None)
        if clf is not None:
            move = "lam_move"
            clf.refit(lam)
        elif len(self._cache) >= self.cache_size:
            move = "h_move"
            oldest = next(iter(self._cache))
            clf = self._cache.pop(oldest)
            self._val_blocks.pop(oldest, None)
            clf.refit_kernel(h, lam)
        else:
            move = "cold"
            clf = self._classifier(h, lam).fit(self.X_train, self.y_train)
        self._cache[h] = clf  # (re-)inserted: most recently used
        acc = self._cv_score(clf) if self.cv > 1 else self._score(h, clf)
        self.records.append(EvaluationRecord(h=h, lam=lam, accuracy=acc,
                                             move=move))
        from ..obs import global_registry
        global_registry().counter(
            "repro_tune_moves_total",
            "Tuning evaluations by move cost class",
            labelnames=("move",)).labels(move=move).inc()
        return acc

    def _score(self, h: float, clf: KernelRidgeClassifier) -> float:
        """``clf.score(X_val, y_val)``, bitwise, from the kernel blocks kept
        for ``h``.

        The validation kernel block depends on ``h`` and the training
        points only, so it is evaluated once per resident classifier, in
        :meth:`~repro.krr.KernelRidgeClassifier.decision_function`'s row
        blocks, and a λ-move scores with GEMVs alone.
        """
        blocks = self._val_blocks.get(h)
        if blocks is None:
            X = self.X_val
            blocks = self._val_blocks[h] = [
                clf.kernel.matrix(X[start:start + _SCORE_BLOCK], clf.X_train_)
                for start in range(0, X.shape[0], _SCORE_BLOCK)]
        scores = np.concatenate([block @ clf.weights_ for block in blocks])
        return accuracy(self.y_val, np.where(scores >= 0.0, 1.0, -1.0))

    def _cv_score(self, clf: KernelRidgeClassifier) -> float:
        """K-fold CV accuracy of ``clf``'s training set, one fit for all folds.

        Training on a fold's complement ``C`` solves the principal
        submatrix system ``A[C, C] w = y[C]`` of the already-factored
        ``A = K + λI``; :func:`repro.hss.streaming.solve_kept` applies
        ``A[C, C]^{-1}`` through ``clf.solver_`` without touching the
        factorization or counting a streamed update.
        """
        solve = clf.solver_.solve
        perm = clf.clustering_.perm  # original index at each permuted slot
        y = self.y_train[perm]
        X = clf.X_train_
        preds = np.empty(y.shape[0])
        for fold in range(self.cv):
            mask = (perm % self.cv) == fold
            F, C = np.flatnonzero(mask), np.flatnonzero(~mask)
            w_C = solve_kept(solve, C, F, y[C, None],
                             removal_factors(solve, y.shape[0], F))[:, 0]
            preds[F] = np.where(clf.kernel.matrix(X[F], X[C]) @ w_C >= 0.0,
                                1.0, -1.0)
        return accuracy(y, preds)

    # ------------------------------------------------------------- reporting
    @property
    def evaluations(self) -> int:
        """Number of (h, lambda) evaluations performed so far."""
        return len(self.records)

    @property
    def last_move(self) -> Optional[str]:
        """Cost class of the most recent evaluation (``None`` before any)."""
        return self.records[-1].move if self.records else None

    @property
    def move_counts(self) -> Dict[str, int]:
        """Evaluation counts per move cost class (``cold``/``h_move``/``lam_move``)."""
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.move] = counts.get(record.move, 0) + 1
        return counts

    def close(self) -> None:
        """Drop the resident classifiers.

        Only LRU evictions release them during a run, so call this (or use
        the objective as a context manager) when the tuning run is done.
        The objective remains usable afterwards — later evaluations
        simply start cold.
        """
        self._cache = {}
        self._val_blocks = {}

    def __enter__(self) -> "KRRObjective":
        """Context-manager entry (returns ``self``)."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: :meth:`close` the cached state."""
        self.close()

    def best(self) -> Tuple[Dict[str, float], float]:
        """Best configuration seen so far and its accuracy.

        Returns
        -------
        tuple
            ``(config, accuracy)`` of the incumbent.
        """
        if not self.records:
            raise RuntimeError("no evaluations performed yet")
        best = max(self.records, key=lambda r: r.accuracy)
        return {"h": best.h, "lam": best.lam}, best.accuracy

"""The KRR tuning objective: validation accuracy as a function of (h, lambda).

Two practical details from the paper are reflected here:

* the objective is the accuracy on a *validation* set held out from the
  training data (the test set is only touched once, after tuning);
* "When the parameter lambda changes, we only need to update the diagonal
  entries of the HSS matrix, and there is no need to perform HSS
  construction again.  However, a change to h requires to perform HSS
  reconstruction from scratch, which is costly." (Section 5.3).  The
  objective therefore detects λ-only moves — consecutive evaluations that
  share every parameter except ``lam`` — and takes the *refit path*: with
  the dense backend it reuses the cached λ-free kernel matrices and only
  re-factors; with the ``"hss"`` backend it reuses the resident λ-free
  HSS matrix and redoes only the ULV
  factorization (:meth:`repro.krr.solvers.KernelSystemSolver.refit`).
  The evaluation counter still counts every (h, lambda) pair as one run,
  exactly like the paper's "runs".

All three searchers (:class:`repro.tuning.GridSearch` orders its grid so
λ varies fastest, :class:`repro.tuning.RandomSearch` can sweep several λ
values per sampled h, and :class:`repro.tuning.BanditTuner` carries a
λ-perturbation technique) are shaped to produce λ-only moves, so most of
a tuning run rides the cheap refit path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.linalg

from ..config import ClusteringOptions
from ..kernels.gaussian import GaussianKernel
from ..krr.metrics import accuracy
from ..utils.validation import check_array_2d, check_labels_binary


@dataclass
class EvaluationRecord:
    """One objective evaluation (a single "run" in the paper's terminology).

    Attributes
    ----------
    h, lam:
        The evaluated configuration.
    accuracy:
        Validation accuracy of that configuration.
    reused_kernel:
        Whether resident λ-independent kernel state was reused (no kernel
        build / compression happened).
    refit:
        Whether the evaluation rode the refit path: it reused a resident
        λ-free kernel/compression and paid only factorization + solve.
        λ-only moves always do; with ``cache_size > 1`` an ``h``-move
        returning to a still-cached ``h`` does too (the hss backend
        literally calls ``solver.refit`` there), so this flag counts
        *avoided rebuilds*, not strictly consecutive λ-only pairs.
    move:
        Cost class of the evaluation, cheapest first:

        * ``"lam_move"`` — the per-``h`` cache held the λ-free state, only
          a factorization + solve was paid;
        * ``"h_move"`` — a resident solver was re-targeted to the new
          ``h`` via :meth:`~repro.krr.solvers.KernelSystemSolver.refit_kernel`
          (a fit on its retained tree: the clustering, permutation and
          block cluster tree were kept, only the kernel numerics were
          redone);
        * ``"cold"`` — everything was built from scratch.
    """

    h: float
    lam: float
    accuracy: float
    reused_kernel: bool
    refit: bool = False
    move: str = "cold"


class KRRObjective:
    """Validation-accuracy objective for (h, lambda) tuning.

    Parameters
    ----------
    X_train, y_train:
        Training data with ±1 labels.
    X_val, y_val:
        Validation data with ±1 labels (drives the tuning).
    cache_kernels:
        Reuse the λ-independent kernel state across evaluations that share
        ``h`` (the cheap-lambda-update optimization).
    cache_size:
        Number of distinct ``h`` values whose λ-independent state is kept
        resident (LRU-evicted beyond that).  The default of 1 matches the
        historical single-``h`` memory profile and is all that
        λ-grouped searchers (λ-fastest grid order, ``lam_sweep`` random
        search) need.  Interleaving searchers benefit from a deeper
        cache: :class:`repro.tuning.BanditTuner`'s λ-perturb technique
        revisits the incumbent between exploration moves, so a
        ``cache_size`` of ~6 (one slot per technique-rotation step) keeps
        the incumbent's state resident at a cost of ``cache_size`` kernel
        matrices (dense backend) or compressions (hss backend).
    solver:
        Evaluation backend.  ``"dense"`` (default) removes compression
        noise from the strategy comparison, which is what Figure 6 is
        about; a λ-only move then skips the two kernel-matrix builds.
        ``"hss"`` runs the paper's actual training stack: one λ-free
        compression per ``h`` (:class:`repro.krr.HSSSolver`), and every
        λ-only move refits the resident compression — one ``O(n r^2)``
        ULV instead of a full build.
    leaf_size, seed:
        Clustering / sampling knobs of the ``"hss"`` backend (the
        clustering depends on neither ``h`` nor ``lam``, so it is computed
        exactly once).
    clustering:
        Ordering of the ``"hss"`` backend: a method name, reordered at
        ``leaf_size`` / ``seed``, or a full
        :class:`repro.config.ClusteringOptions` (which then supplies its
        own leaf size and seed) — tune on the ordering the model will be
        trained with.
    hss_options, hmatrix_options, use_hmatrix_sampling:
        Compression options of the ``"hss"`` backend.
    cv:
        With the default 1 each evaluation scores the held-out validation
        split.  With ``cv = K > 1`` the objective instead returns K-fold
        cross-validation accuracy on the *training* set (folds assign
        original index ``i`` to fold ``i % K``) and the validation split
        is ignored.  Each fold is solved against the **shared** full-data
        factorization: removing a fold from the training set is a
        principal-submatrix update, so per fold the hss backend performs
        one multi-RHS solve (fold-indicator columns plus the masked
        labels) and a small dense fold-sized correction solve instead of
        a fresh compression + factorization; the dense backend solves the
        exact complement submatrix system.  Both are algebraically
        identical to training each fold's complement from scratch.
    """

    def __init__(self, X_train: np.ndarray, y_train: np.ndarray,
                 X_val: np.ndarray, y_val: np.ndarray,
                 cache_kernels: bool = True,
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
        self.cache_kernels = bool(cache_kernels)
        self.cache_size = int(cache_size)
        self.leaf_size = int(leaf_size)
        self.seed = seed
        self.clustering = clustering
        self.hss_options = hss_options
        self.hmatrix_options = hmatrix_options
        self.use_hmatrix_sampling = bool(use_hmatrix_sampling)
        self.cv = cv
        self.records: List[EvaluationRecord] = []
        # LRU cache of λ-independent per-h state: dense -> (K, K_val),
        # hss -> (HSSSolver holding the λ-free compression, K_val).
        self._cache: "dict[float, tuple]" = {}
        # clustering is (h, λ)-independent, computed exactly once (hss)
        self._clustering = None

    @classmethod
    def from_config(cls, config, X_train: np.ndarray, y_train: np.ndarray,
                    X_val: np.ndarray, y_val: np.ndarray) -> "KRRObjective":
        """Build an objective from a :class:`repro.runtime.RuntimeConfig`.

        The tuning section supplies the backend (``tuning.backend``) and
        per-``h`` cache size; the clustering / compression sections are
        handed to the ``"hss"`` backend whole, so it tunes on the ordering
        and tolerances ``repro train`` will use.

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
        return cls(X_train, y_train, X_val, y_val,
                   cache_kernels=True,
                   cache_size=config.tuning.cache_size,
                   solver=config.tuning.backend,
                   leaf_size=config.clustering.leaf_size,
                   seed=config.clustering.seed,
                   hss_options=config.hss,
                   hmatrix_options=config.hmatrix,
                   use_hmatrix_sampling=config.solver.use_hmatrix_sampling,
                   cv=config.tuning.cv,
                   clustering=config.clustering)

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
        if self.solver == "hss":
            acc, reused, refit, move = self._evaluate_hss(h, lam)
        else:
            acc, reused, refit, move = self._evaluate_dense(h, lam)
        self.records.append(EvaluationRecord(h=h, lam=lam, accuracy=acc,
                                             reused_kernel=reused,
                                             refit=refit, move=move))
        from ..obs import global_registry
        registry = global_registry()
        registry.counter(
            "repro_tuning_evaluations_total",
            "Hyper-parameter configurations evaluated",
            labelnames=("mode",)).labels(
                mode="refit" if refit else "fit").inc()
        registry.counter(
            "repro_tune_moves_total",
            "Tuning evaluations by move cost class",
            labelnames=("move",)).labels(move=move).inc()
        if reused:
            registry.counter(
                "repro_tune_cache_hits_total",
                "Tuning evaluations served from the per-h state cache").inc()
        else:
            registry.counter(
                "repro_tune_cache_misses_total",
                "Tuning evaluations that missed the per-h state cache").inc()
        return acc

    def _cache_get(self, h: float):
        """Fetch (and LRU-refresh) the λ-independent state cached for ``h``."""
        if not self.cache_kernels or h not in self._cache:
            return None
        state = self._cache.pop(h)
        self._cache[h] = state  # re-insert: most recently used
        return state

    def _cache_put(self, h: float, state: tuple) -> None:
        """Insert per-h state, evicting the least recently used beyond size."""
        if not self.cache_kernels:
            return
        self._cache[h] = state
        while len(self._cache) > self.cache_size:
            del self._cache[next(iter(self._cache))]

    def _pop_for_reuse(self):
        """Pop the LRU-oldest per-h state when the cache is at capacity.

        Returns the resident state to be *re-targeted* (an ``h``-move)
        instead of discarded: the hss backend hands the popped solver to
        :meth:`~repro.krr.solvers.KernelSystemSolver.refit_kernel`, which
        re-fits it on its retained tree (block cluster tree reused).
        Returns ``None`` while the cache still has room (the new ``h``
        then gets a cold build without sacrificing a resident one).
        """
        if not self.cache_kernels or len(self._cache) < self.cache_size:
            return None
        oldest = next(iter(self._cache))
        state = self._cache.pop(oldest)
        return state[0]

    def _evaluate_dense(self, h: float, lam: float) -> Tuple[float, bool, bool, str]:
        """Exact dense evaluation; λ-only moves reuse the cached kernels."""
        cached = self._cache_get(h)
        reused = cached is not None
        if cached is not None:
            K, K_val = cached
        else:
            kernel = GaussianKernel(h=h)
            K = kernel.matrix(self.X_train)
            K_val = (None if self.cv > 1
                     else kernel.matrix(self.X_val, self.X_train))
            self._cache_put(h, (K, K_val))
        # A dense h-miss rebuilds the kernel matrix outright — there is no
        # reusable structure, so the move is cold, never "h_move".
        move = "lam_move" if reused else "cold"

        if self.cv > 1:
            return self._cv_score_dense(K, lam), reused, reused, move
        A = K + lam * np.eye(K.shape[0])
        weights = scipy.linalg.solve(A, self.y_train, assume_a="pos")
        scores = K_val @ weights
        pred = np.where(scores >= 0.0, 1.0, -1.0)
        return accuracy(self.y_val, pred), reused, reused, move

    def _evaluate_hss(self, h: float, lam: float) -> Tuple[float, bool, bool, str]:
        """HSS evaluation: compress once per h, ULV-refit per λ.

        ``h``-misses with a full cache ride the ``refit_kernel`` path: the
        LRU-oldest resident solver is re-fitted on its retained tree,
        keeping its block cluster tree and redoing only the kernel
        numerics (bitwise identical to a cold build on the same tree) —
        the ``h_move`` rung of the move-cost ladder.
        """
        from ..clustering.api import cluster
        from ..krr.solvers import HSSSolver

        if self._clustering is None:
            if isinstance(self.clustering, ClusteringOptions):
                self._clustering = cluster(self.X_train,
                                           options=self.clustering)
            else:
                self._clustering = cluster(self.X_train,
                                           method=self.clustering,
                                           leaf_size=self.leaf_size,
                                           seed=self.seed)
        clustering = self._clustering
        y_perm = clustering.permute_labels(self.y_train)

        kernel = GaussianKernel(h=h)
        cached = self._cache_get(h)
        refit = cached is not None
        if cached is not None:
            solver, K_val = cached
            move = "lam_move"
            solver.refit(lam)
        else:
            resident = self._pop_for_reuse()
            if resident is not None:
                move = "h_move"
                solver = resident
                solver.refit_kernel(kernel, lam)
            else:
                move = "cold"
                solver = HSSSolver(hss_options=self.hss_options,
                                   hmatrix_options=self.hmatrix_options,
                                   use_hmatrix_sampling=self.use_hmatrix_sampling,
                                   seed=self.seed)
                solver.fit(clustering.X, clustering.tree, kernel, lam)
            K_val = (None if self.cv > 1
                     else kernel.matrix(self.X_val, clustering.X))
            self._cache_put(h, (solver, K_val))

        if self.cv > 1:
            acc = self._cv_score_hss(solver, kernel, clustering, y_perm)
        else:
            weights = solver.solve(y_perm)
            scores = K_val @ weights
            pred = np.where(scores >= 0.0, 1.0, -1.0)
            acc = accuracy(self.y_val, pred)
        return acc, refit, refit, move

    # ----------------------------------------------------------------- k-fold
    def _cv_score_dense(self, K: np.ndarray, lam: float) -> float:
        """Exact K-fold CV: solve each fold-complement submatrix system."""
        n = K.shape[0]
        idx = np.arange(n)
        preds = np.empty(n)
        for fold in range(self.cv):
            mask = (idx % self.cv) == fold
            F, C = idx[mask], idx[~mask]
            A = K[np.ix_(C, C)].copy()
            A[np.diag_indices_from(A)] += lam
            w = scipy.linalg.solve(A, self.y_train[C], assume_a="pos")
            preds[F] = np.where(K[np.ix_(F, C)] @ w >= 0.0, 1.0, -1.0)
        return accuracy(self.y_train, preds)

    def _cv_score_hss(self, solver, kernel, clustering, y_perm) -> float:
        """K-fold CV against the shared full-data factorization.

        Training on a fold's complement solves the principal submatrix
        system ``A[C, C] w = y[C]`` of the already-factored full matrix
        ``A = K + λI``.  With ``B = A^{-1}`` the block-inverse identity
        gives ``w = (B y~)[C] - (B[:, F] t)[C]`` where ``y~`` is the
        fold-masked label vector and ``t = B[F, F]^{-1} (B y~)[F]`` — so
        each fold costs ONE multi-RHS solve on the shared factorization
        (the ``|F|`` fold-indicator columns and ``y~`` together) plus a
        dense ``|F| x |F|`` correction solve, never a recompression or
        refactorization.
        """
        n = y_perm.shape[0]
        orig = clustering.tree.perm  # original index at each permuted slot
        pos = np.arange(n)
        preds = np.empty(n)
        for fold in range(self.cv):
            mask = (orig % self.cv) == fold
            F, C = pos[mask], pos[~mask]
            m = F.shape[0]
            rhs = np.zeros((n, m + 1))
            rhs[F, np.arange(m)] = 1.0
            rhs[C, m] = y_perm[C]
            G = solver.solve(rhs)
            z = G[:, m]                       # B @ y~
            t = scipy.linalg.solve(G[F, :m], z[F])
            w_C = (z - G[:, :m] @ t)[C]
            K_FC = kernel.matrix(clustering.X[F], clustering.X[C])
            preds[F] = np.where(K_FC @ w_C >= 0.0, 1.0, -1.0)
        return accuracy(y_perm, preds)

    # ------------------------------------------------------------- reporting
    @property
    def evaluations(self) -> int:
        """Number of (h, lambda) evaluations performed so far."""
        return len(self.records)

    @property
    def kernel_constructions(self) -> int:
        """Number of kernel matrix (re)constructions / compressions (h changes)."""
        return sum(1 for r in self.records if not r.reused_kernel)

    @property
    def refits(self) -> int:
        """Evaluations that rode the refit path (no rebuild; see record docs)."""
        return sum(1 for r in self.records if r.refit)

    @property
    def last_was_refit(self) -> bool:
        """Whether the most recent evaluation rode the refit path."""
        return bool(self.records) and self.records[-1].refit

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
        """Drop the cached per-h state (solvers and validation kernels).

        Only LRU evictions release it during a run, so call this (or use
        the objective as a context manager) when the tuning run is done.
        The objective remains usable afterwards — later evaluations
        simply rebuild.
        """
        self._cache = {}

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

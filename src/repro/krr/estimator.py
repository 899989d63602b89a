"""The shared lifecycle core of the kernel ridge estimators.

Algorithm 1 is the same recipe whatever the targets mean — reorder the
training points (Step 0), solve ``(K + lambda I) W = T`` (Step 2), apply
the test kernel rows to ``W`` (Step 3) — so everything about a fitted
model's *lifecycle* lives here exactly once: ``fit``, the λ-only
``refit``, the bandwidth move ``refit_kernel``, streamed ``partial_fit``
updates, folding them back with ``recompress``, the decision values and
persistence.  :class:`repro.krr.KernelRidgeClassifier`,
:class:`repro.krr.OneVsAllClassifier` and
:class:`repro.krr.KernelRidgeRegressor` only translate their labels to
and from the real-valued target array ``T`` (Step 4).

Every verb adopts its result — hyper-parameters, weights and stored
targets together — only after the solver call *and* the training solve
succeeded, so a failure leaves the model describing the state it was in
before the call.  A solver that already moved when the training solve
fails is moved back by the inverse step, so the model and its solver keep
describing the same system.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..clustering.api import ClusteringResult, cluster
from ..config import ClusteringOptions
from ..kernels.base import Kernel, get_kernel
from ..utils.validation import (check_array_2d, check_index_array,
                                check_non_negative, check_positive,
                                check_same_dimension)
from .solvers import KernelSystemSolver, build_training_solver


class KernelRidgeEstimator:
    """Lifecycle core shared by the classifiers and the regressor.

    Subclasses implement :meth:`_encode_targets` (labels → real-valued
    targets, with their validation) and, where labels are not the targets
    themselves, :meth:`_decode_targets`.

    Parameters
    ----------
    h:
        Kernel bandwidth; an explicit ``kernel`` instance's own ``h``
        takes its place (as in :meth:`refit_kernel`).
    lam:
        Ridge regularization parameter ``lambda``.
    solver:
        Solver name (``"dense"``, ``"hss"``, ``"cg"``) or a pre-constructed
        :class:`repro.krr.solvers.KernelSystemSolver` instance.
    clustering:
        Name of the preprocessing ordering (``"two_means"``, ``"kd"``,
        ``"pca"``, ``"natural"``, ...) or a :class:`ClusteringOptions`,
        whose own ``leaf_size`` takes the place of ``leaf_size``.
    kernel:
        Kernel name or :class:`repro.kernels.Kernel` instance;
        default Gaussian with bandwidth ``h``.
    leaf_size:
        Leaf size of the cluster / HSS tree (paper default 16).
    seed:
        Seed controlling the random parts (two-means seeding, HSS sampling).
    workers:
        Ignored and read by nothing: training runs in one thread.  Kept
        only so existing ``workers=`` calls still construct.
    shards:
        Worker *processes* for the training phases when ``solver`` is the
        ``"hss"`` name: the training solve then runs through
        :class:`repro.distributed.DistributedSolver`, each process owning
        a subtree of the cluster tree.  ``None`` defers to
        ``REPRO_SHARDS`` (single process when unset); see
        :func:`repro.distributed.resolve_shards`.  Prediction is
        unaffected — the trained weights live in this process either way.
    solver_options:
        Extra keyword arguments forwarded to
        :func:`repro.krr.solvers.build_training_solver` when ``solver`` is
        given by name (e.g. ``hss_options``, or ``grid`` for the sharded
        path).
    """

    def __init__(
        self,
        h: float = 1.0,
        lam: float = 1.0,
        solver: Union[str, KernelSystemSolver] = "hss",
        clustering: Union[str, ClusteringOptions] = "two_means",
        kernel: Union[str, Kernel, None] = None,
        leaf_size: int = 16,
        seed=0,
        workers: Optional[int] = None,
        shards: Optional[int] = None,
        solver_options: Optional[dict] = None,
    ):
        if isinstance(kernel, Kernel):
            h = getattr(kernel, "h", h)
        #: the options given as ``clustering`` (``None`` for a method name)
        self._clustering_options = (
            clustering if isinstance(clustering, ClusteringOptions) else None)
        if self._clustering_options is not None:
            leaf_size = clustering.leaf_size
        self.h = check_positive(h, "h")
        self.lam = check_non_negative(lam, "lam")
        self.leaf_size = int(leaf_size)
        self.seed = seed
        self.shards = shards
        self.kernel = (kernel if isinstance(kernel, Kernel)
                       else get_kernel(kernel or "gaussian", h=self.h))
        self._solver_spec = solver
        self._solver_options = dict(solver_options or {})
        self._clustering_spec = clustering
        # Fitted state
        self.solver_: Optional[KernelSystemSolver] = None
        self.clustering_: Optional[ClusteringResult] = None
        #: ``(n_train,)`` or ``(n_train, n_targets)``, permuted ordering
        self.weights_: Optional[np.ndarray] = None
        self.X_train_: Optional[np.ndarray] = None
        #: permuted real-valued training targets (same leading shape as
        #: ``weights_``), kept so every later verb can re-solve; ``None``
        #: for artifacts saved before they were persisted
        self._targets_perm: Optional[np.ndarray] = None
        #: drift bookkeeping of the last partial_fit (None = never streamed)
        self.stream_info_: Optional[dict] = None

    @classmethod
    def from_config(cls, config, h: Optional[float] = None,
                    lam: Optional[float] = None):
        """Build the unfitted estimator a runtime config describes.

        Maps the config's sections onto the constructor arguments — the
        ``clustering`` / ``hss`` / ``hmatrix`` sections are passed whole,
        being the option objects themselves — so an estimator built here
        trains bitwise-identical weights to the same explicit constructor
        call (enforced by ``tests/test_runtime_config.py``).  The solver
        options only reach an ``"hss"`` solver.

        Parameters
        ----------
        config:
            The resolved :class:`repro.runtime.RuntimeConfig`.
        h, lam:
            Optional hyper-parameter overrides (e.g. the dataset's paper
            values, or a tuning result) taking precedence over the
            config's kernel section.

        Returns
        -------
        KernelRidgeEstimator
            The configured, unfitted estimator.
        """
        d = config.distributed
        solver_options = {}
        if config.solver.name == "hss":
            solver_options = {
                "hss_options": config.hss,
                "hmatrix_options": config.hmatrix,
                "use_hmatrix_sampling": config.solver.use_hmatrix_sampling,
                "coupling_rel_tol": d.coupling_rel_tol,
                "coupling_max_rank": d.coupling_max_rank,
                "cut_level": d.cut_level}
        return cls(
            h=config.kernel.h if h is None else h,
            lam=config.kernel.lam if lam is None else lam,
            solver=config.solver.name, clustering=config.clustering,
            kernel=config.kernel.name,
            seed=config.clustering.seed, shards=d.shards,
            solver_options=solver_options)

    @property
    def clustering_options(self) -> ClusteringOptions:
        """The options :meth:`fit` reorders the data with.

        A method name given as ``clustering`` stands for the default
        options of that method at this estimator's ``leaf_size`` and
        ``seed``.
        """
        if self._clustering_options is not None:
            return self._clustering_options
        return ClusteringOptions(method=self._clustering_spec,
                                 leaf_size=self.leaf_size, seed=self.seed)

    # ------------------------------------------------------- target encoding
    def _encode_targets(self, y, n_rows: int, name: str,
                        fitting: bool) -> np.ndarray:
        """Validate ``y`` (``n_rows`` labels) and return its float targets.

        ``fitting`` is true for a full :meth:`fit`, which may (re)define
        the label vocabulary, and false for rows appended by
        :meth:`partial_fit`, which must fit the existing one.
        """
        raise NotImplementedError

    def _decode_targets(self, targets: np.ndarray) -> np.ndarray:
        """Labels whose encoding is ``targets`` (identity by default)."""
        return targets

    # ------------------------------------------------------------------ fit
    def _require_fitted(self, verb: str) -> None:
        if self.solver_ is None or self.weights_ is None:
            raise RuntimeError(
                f"{type(self).__name__} must be fitted before {verb}")
        if self._targets_perm is None:
            raise RuntimeError(
                f"no training targets available for {verb} (artifact saved "
                "by an older version); call fit() instead")

    def _build_solver(self) -> KernelSystemSolver:
        """The training solver of this model's solver knobs: the one
        :meth:`fit` trains and an artifact of the model is restored onto."""
        return build_training_solver(
            self._solver_spec, seed=self.seed, shards=self.shards,
            solver_options=self._solver_options)

    @staticmethod
    def _train(solver: KernelSystemSolver, step, targets: np.ndarray,
               undo=None) -> np.ndarray:
        """Run one solver ``step`` plus the training solve; return the weights.

        If the solve fails after ``step`` succeeded, ``undo`` (the inverse
        step, if any) puts the solver back at the model's state before the
        error propagates.  Done or failed, the solver's worker processes
        are released afterwards (a later ``solve()`` re-creates them or
        falls back as needed).
        """
        try:
            step()
            try:
                return np.ascontiguousarray(solver.solve(targets),
                                            dtype=np.float64)
            except BaseException:
                if undo is not None:
                    undo()
                raise
        finally:
            close = getattr(solver, "close", None)
            if close is not None:
                close()

    def fit(self, X: np.ndarray, y: np.ndarray):
        """Train on ``(X, y)``.

        The data is reordered (Step 0), the training system is factored
        (Step 2) and the weights are stored in the permuted ordering,
        together with the permuted training points needed at prediction
        time.  All targets are solved against the one factorization in a
        single multi-right-hand-side call.
        """
        X = check_array_2d(X, "X")
        targets = self._encode_targets(y, X.shape[0], "y", fitting=True)

        if self._clustering_options is None:
            clustering = cluster(X, method=self._clustering_spec,
                                 leaf_size=self.leaf_size, seed=self.seed)
        else:
            clustering = cluster(X, options=self._clustering_options)
        targets_perm = targets[clustering.perm]

        solver = self._build_solver()
        weights = self._train(
            solver, lambda: solver.fit(clustering.X, clustering.tree,
                                       self.kernel, self.lam), targets_perm)
        self.solver_ = solver
        self.clustering_ = clustering
        self.weights_ = weights
        self.X_train_ = clustering.X
        self._targets_perm = targets_perm
        self.stream_info_ = None
        return self

    def refit(self, lam: float):
        """Re-train at a new ridge parameter without recompressing.

        The clustering, the kernel and the solver's λ-independent state
        (the λ-free HSS matrix for the HSS path, the kernel matrix for the
        dense path) are reused; only the
        shift-dependent factorization and the training solve are redone,
        so a λ sweep costs one compression plus one cheap refit per value.
        The resulting weights are identical to a cold :meth:`fit` at the
        same ``lam`` (bitwise for the serial solvers).  Also works on a
        model reloaded from an artifact saved by this version (the
        permuted training targets ride in the archive).

        Parameters
        ----------
        lam:
            The new ridge parameter.

        Returns
        -------
        KernelRidgeEstimator
            ``self``, refitted at ``lam``.

        Raises
        ------
        RuntimeError
            If the model is unfitted, the solver does not support
            λ-only refits, or a legacy artifact lacks the training
            targets / a λ-free compression.
        """
        self._require_fitted("refit()")
        lam = check_non_negative(lam, "lam")
        weights = self._train(self.solver_, lambda: self.solver_.refit(lam),
                              self._targets_perm,
                              undo=lambda: self.solver_.refit(self.lam))
        self.lam = lam
        self.weights_ = weights
        return self

    def refit_kernel(self, h, lam: Optional[float] = None):
        """Re-train at a new bandwidth on the retained clustering.

        The clustering and permutation are kernel-independent and stay
        resident; the solver is re-fitted for the new kernel on the tree
        it already holds (see
        :meth:`repro.krr.solvers.KernelSystemSolver.refit_kernel` — the
        HSS path also reuses its H-matrix block cluster tree).  The
        resulting weights are identical to a cold :meth:`fit` at the same
        ``(h, lam)`` (bitwise for the serial solvers): this is the
        *h*-move of a 2-D hyperparameter sweep, sitting between the cheap
        λ-only :meth:`refit` and a full cold fit.

        Parameters
        ----------
        h:
            New bandwidth (same kernel family), or a
            :class:`repro.kernels.Kernel` instance to swap in directly.
        lam:
            Optional new ridge parameter; ``None`` keeps the current one.

        Returns
        -------
        KernelRidgeEstimator
            ``self``, refitted for the new kernel.

        Raises
        ------
        RuntimeError
            If the model is unfitted, streamed updates are in effect, or
            a legacy artifact lacks the training targets.
        """
        self._require_fitted("refit_kernel()")
        stream = self.solver_.stream
        if stream is not None and stream.active:
            raise RuntimeError(
                "streamed updates are in effect; the Woodbury corrections "
                "were built against the old kernel and cannot survive a "
                "kernel change — call recompress() first")
        if isinstance(h, Kernel):
            kernel = h
            new_h = float(getattr(kernel, "h", self.h))
        else:
            new_h = check_positive(h, "h")
            kernel = get_kernel(self.kernel.name, h=new_h)
        new_lam = self.lam if lam is None else check_non_negative(lam, "lam")
        weights = self._train(
            self.solver_, lambda: self.solver_.refit_kernel(kernel, new_lam),
            self._targets_perm,
            undo=lambda: self.solver_.refit_kernel(self.kernel, self.lam))
        self.kernel = kernel
        self.h = new_h
        self.lam = new_lam
        self.weights_ = weights
        return self

    # ------------------------------------------------------------- streaming
    def _validate_update(self, X_new, y_new, remove):
        """Shared add/remove validation; returns ``(X_new, t_add, idx)``."""
        if (X_new is None) != (y_new is None):
            raise ValueError("X_new and y_new must be given together")
        t_add = None
        if X_new is not None:
            X_new = check_array_2d(X_new, "X_new")
            check_same_dimension(X_new, self.X_train_, ("X_new", "X_train"))
            t_add = self._encode_targets(y_new, X_new.shape[0], "y_new",
                                         fitting=False)
        idx = None
        if remove is not None:
            raw = check_index_array(remove, self.X_train_.shape[0], "remove")
            idx = np.unique(raw)
            if idx.size != raw.size:
                raise ValueError("remove contains duplicate indices")
        if X_new is None and (idx is None or not idx.size):
            raise ValueError(
                "nothing to update: pass X_new/y_new and/or remove")
        return X_new, t_add, idx

    def _apply_stream_update(self, X_new, targets, idx):
        """Mutate the solver and re-solve; roll the stream back on failure."""
        prev = None
        if self.solver_.stream is not None:
            prev = self.solver_.stream.state_arrays()
        try:
            return self._train(
                self.solver_,
                lambda: self.solver_.partial_fit(X_add=X_new, remove=idx),
                targets)
        except BaseException:
            stream = self.solver_.stream
            if stream is not None:
                if prev is not None:
                    stream.restore_state(**prev)
                else:
                    stream.restore_state(
                        np.arange(stream.n_base, dtype=np.intp),
                        np.empty((0, stream.X_base.shape[1])))
            raise

    def partial_fit(self, X_new=None, y_new=None, remove=None, budget=None):
        """Stream rows into / out of the fitted model without refitting.

        Removals (``remove``, indices into the *current* training-set
        ordering — the rows of ``X_train_``) are applied first, then
        ``(X_new, y_new)`` rows are appended; both land as Woodbury
        corrections around the existing factors and the weights are
        re-solved against the updated system in one multi-RHS pass (see
        :class:`repro.hss.StreamingULVSolver`).  ``stream_info_`` records
        the resulting correction rank and whether the drift budget is
        breached — a breached budget calls for :meth:`recompress`.

        Parameters
        ----------
        X_new, y_new:
            Rows to append and their labels (given together).  Labels
            follow the estimator's :meth:`fit` encoding; a multi-class
            label unseen at fit time is rejected (a new class changes the
            weight matrix shape and needs a full fit).
        remove:
            Indices into the current training ordering to drop.
        budget:
            Optional :class:`repro.hss.DriftBudget` overriding the
            stream's thresholds.

        Returns
        -------
        KernelRidgeEstimator
            ``self``, serving the updated training set.
        """
        self._require_fitted("partial_fit()")
        X_new, t_add, idx = self._validate_update(X_new, y_new, remove)
        targets = self._targets_perm
        if idx is not None and idx.size:
            targets = np.delete(targets, idx, axis=0)
        if t_add is not None:
            targets = np.concatenate([targets, t_add])
        weights = self._apply_stream_update(X_new, targets, idx)
        stream = self.solver_.stream
        if budget is not None:
            stream.budget = budget
        self._targets_perm = targets
        self.X_train_ = stream.X_effective
        self.weights_ = weights
        residual = None
        if stream.budget.residual_tol > 0:
            residual = stream.residual_estimate(weights, targets)
        breached, reason = stream.budget.check(stream, residual)
        self.stream_info_ = dict(stream.drift_stats())
        self.stream_info_.update(
            {"breached": breached, "breach_reason": reason,
             "residual": residual})
        return self

    def recompress(self):
        """Cold-refit on the current effective training set.

        Re-clusters, recompresses and re-factors from scratch, dropping
        every streamed correction.  Because the clustering is
        deterministic in the row order, the result is bitwise identical
        to a cold :meth:`fit` on ``(X_train_, labels)`` in the same row
        order — this is the drift-budget escape hatch, and what the
        serving tier hot-swaps in after a breach.
        """
        self._require_fitted("recompress()")
        from ..hss.streaming import record_recompression
        self.fit(self.X_train_.copy(),
                 self._decode_targets(self._targets_perm.copy()))
        record_recompression()
        return self

    # -------------------------------------------------------------- predict
    def decision_function(self, X_test: np.ndarray,
                          block_size: int = 1024) -> np.ndarray:
        """Real-valued scores ``K'(x') . W`` for every test point (Step 3).

        One column per target; computed in row blocks so the ``m x n``
        test kernel matrix is never fully materialised.
        """
        if self.weights_ is None:
            raise RuntimeError(
                f"{type(self).__name__} must be fitted before predicting")
        X_test = check_array_2d(X_test, "X_test")
        check_same_dimension(X_test, self.X_train_, ("X_test", "X_train"))
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        m = X_test.shape[0]
        scores = np.empty((m,) + self.weights_.shape[1:], dtype=np.float64)
        for start in range(0, m, block_size):
            rows = slice(start, min(start + block_size, m))
            scores[rows] = (self.kernel.matrix(X_test[rows], self.X_train_)
                            @ self.weights_)
        return scores

    # ---------------------------------------------------------- persistence
    def save(self, path: str, metadata: Optional[dict] = None,
             include_factorization: bool = True):
        """Persist the fitted model to a checksummed ``.npz`` artifact.

        See :func:`repro.serving.save_model` (which defines the model
        kinds that have an artifact format); the returned
        :class:`repro.serving.ModelArtifact` describes the written file.
        """
        from ..serving import save_model
        return save_model(self, path, metadata=metadata,
                          include_factorization=include_factorization)

    @classmethod
    def load(cls, path: str):
        """Load a model saved with :meth:`save` (checksum-verified).

        The reloaded model reproduces the original's predictions exactly.
        """
        from ..serving import load_model_as
        return load_model_as(path, cls)

    # ------------------------------------------------------------ reporting
    @property
    def report(self):
        """The :class:`repro.krr.SolveReport` of the training solve."""
        if self.solver_ is None:
            raise RuntimeError(f"{type(self).__name__} must be fitted first")
        return self.solver_.report

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        solver = (self._solver_spec if isinstance(self._solver_spec, str)
                  else type(self._solver_spec).__name__)
        return (f"{type(self).__name__}(h={self.h}, lam={self.lam}, "
                f"solver={solver!r}, clustering={self._clustering_spec!r})")

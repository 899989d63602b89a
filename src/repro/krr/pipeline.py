"""End-to-end KRR experiment pipeline.

:class:`KRRPipeline` bundles the full Algorithm-1 workflow — clustering
preprocessing, kernel construction, compressed factorization, training
solve, prediction, evaluation — and reports exactly the quantities the
paper's tables are built from: memory (MB), maximum rank, accuracy (%),
and per-phase timings.  The benchmark harness (one module per table /
figure in :mod:`repro.experiments`) is a thin layer over this class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

import numpy as np

from ..config import ClusteringOptions, HMatrixOptions, HSSOptions
from ..utils.timing import TimingLog
from .classifier import KernelRidgeClassifier
from .metrics import accuracy


@dataclass
class PipelineReport:
    """Everything the paper reports about one train/test run."""

    dataset: str = ""
    clustering: str = ""
    solver: str = ""
    kernel: str = "gaussian"
    h: float = 0.0
    lam: float = 0.0
    n_train: int = 0
    n_test: int = 0
    dim: int = 0
    accuracy: float = 0.0
    memory_mb: float = 0.0
    hss_memory_mb: float = 0.0
    hmatrix_memory_mb: float = 0.0
    max_rank: int = 0
    #: worker processes (subtree shards) used by the training phases
    shards: int = 1
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def accuracy_percent(self) -> float:
        """Accuracy in percent, as printed in the paper's tables."""
        return 100.0 * self.accuracy

    def phase(self, name: str) -> float:
        return self.timings.get(name, 0.0)

    def row(self) -> Dict[str, object]:
        """Flat dictionary suitable for tabular printing / CSV export."""
        out = {
            "dataset": self.dataset,
            "clustering": self.clustering,
            "solver": self.solver,
            "kernel": self.kernel,
            "h": self.h,
            "lambda": self.lam,
            "n_train": self.n_train,
            "n_test": self.n_test,
            "dim": self.dim,
            "accuracy_percent": round(self.accuracy_percent, 2),
            "memory_mb": round(self.memory_mb, 3),
            "hss_memory_mb": round(self.hss_memory_mb, 3),
            "hmatrix_memory_mb": round(self.hmatrix_memory_mb, 3),
            "max_rank": self.max_rank,
            "shards": self.shards,
        }
        for name, sec in sorted(self.timings.items()):
            out[f"time_{name}_s"] = round(sec, 4)
        return out


class KRRPipeline:
    """Run the full KRR classification experiment on one dataset.

    Parameters
    ----------
    h, lam:
        Kernel bandwidth and ridge parameter.
    clustering:
        Ordering method name (``"natural"``, ``"two_means"``, ``"kd"``,
        ``"pca"``, ...) or a full :class:`repro.config.ClusteringOptions`,
        whose leaf size, seed and per-method knobs (``max_iter``,
        ``balance_threshold``) then drive the reordering.
    solver:
        ``"dense"``, ``"hss"`` or ``"cg"``.
    leaf_size:
        Cluster-tree / HSS leaf size (with ``clustering`` given by name).
    hss_options, hmatrix_options:
        Compression options used when ``solver == "hss"``.
    use_hmatrix_sampling:
        Whether the HSS sampling goes through the H matrix (paper default).
    seed:
        Seed shared by all random components.
    shards:
        Worker *processes* for the training phases, each owning a subtree
        of the cluster tree as in the paper's MPI runs.  An explicit
        count above one requires the ``"hss"`` solver; ``None`` defers to
        ``REPRO_SHARDS`` (1 when unset), which the other solvers ignore.
        With more than one shard the training solve goes through
        :class:`repro.distributed.DistributedSolver` and the reported
        ``shards`` field records the process count; the trained
        ``classifier_`` serves through a plain
        :class:`repro.serving.PredictionEngine`.  Sharded and serial
        runs agree within the compression tolerance (see
        :mod:`repro.distributed`).
    coupling_rel_tol, coupling_max_rank, cut_level:
        Inter-shard coupling compression knobs forwarded to the
        distributed solver (ignored when ``shards`` resolves to 1).
    collect_factors:
        Whether a sharded fit ships the per-shard factors back into this
        process (see :class:`repro.distributed.DistributedSolver`; ignored
        when ``shards`` resolves to 1).
    grid:
        Optional warm :class:`repro.distributed.WorkerGrid` for the
        sharded path: repeated :meth:`run` calls (hyper-parameter sweeps)
        then reuse its worker processes instead of respawning them.  The
        grid must have been built over the same data, clustering, leaf
        size, seed and shard count (see
        :meth:`repro.distributed.WorkerGrid.from_data`); it is never shut
        down by the pipeline.  Ignored when ``shards`` resolves to 1.
    kernel:
        Kernel family name understood by :func:`repro.kernels.get_kernel`
        (default Gaussian, as in the paper).
    """

    def __init__(
        self,
        h: float = 1.0,
        lam: float = 1.0,
        clustering: Union[str, ClusteringOptions] = "two_means",
        solver: str = "hss",
        leaf_size: int = 16,
        hss_options: Optional[HSSOptions] = None,
        hmatrix_options: Optional[HMatrixOptions] = None,
        use_hmatrix_sampling: bool = True,
        seed=0,
        shards: Optional[int] = None,
        coupling_rel_tol: Optional[float] = None,
        coupling_max_rank: Optional[int] = None,
        cut_level: Optional[int] = None,
        grid=None,
        kernel: str = "gaussian",
        collect_factors: bool = True,
    ):
        self.h = float(h)
        self.lam = float(lam)
        self.clustering = clustering
        self.solver_name = solver
        self.kernel_name = str(kernel)
        self.leaf_size = int(leaf_size)
        self.hss_options = hss_options
        self.hmatrix_options = hmatrix_options
        self.use_hmatrix_sampling = bool(use_hmatrix_sampling)
        self.seed = seed
        self.shards = shards
        self.coupling_rel_tol = coupling_rel_tol
        self.coupling_max_rank = coupling_max_rank
        self.cut_level = cut_level
        self.collect_factors = bool(collect_factors)
        self.grid = grid
        self.classifier_: Optional[KernelRidgeClassifier] = None
        self.report_: Optional[PipelineReport] = None

    @classmethod
    def from_config(cls, config, h: Optional[float] = None,
                    lam: Optional[float] = None,
                    grid=None) -> "KRRPipeline":
        """Build a pipeline from a :class:`repro.runtime.RuntimeConfig`.

        Maps the config's sections onto the constructor arguments — the
        ``clustering`` / ``hss`` / ``hmatrix`` sections are passed whole,
        being the option objects themselves — so a pipeline built here
        produces bitwise-identical results to the same explicit
        constructor call (enforced by ``tests/test_runtime_config.py``).
        Explicit constructor-style overrides always win over the config.

        Parameters
        ----------
        config:
            The resolved :class:`repro.runtime.RuntimeConfig`.
        h, lam:
            Optional hyper-parameter overrides (e.g. the dataset's paper
            values, or a tuning result) taking precedence over the
            config's kernel section.
        grid:
            Optional warm :class:`repro.distributed.WorkerGrid` for the
            sharded path, forwarded as-is.

        Returns
        -------
        KRRPipeline
            The configured pipeline.
        """
        d = config.distributed
        return cls(
            h=float(h) if h is not None else config.kernel.h,
            lam=float(lam) if lam is not None else config.kernel.lam,
            clustering=config.clustering,
            solver=config.solver.name,
            leaf_size=config.clustering.leaf_size,
            hss_options=config.hss,
            hmatrix_options=config.hmatrix,
            use_hmatrix_sampling=config.solver.use_hmatrix_sampling,
            seed=config.clustering.seed,
            shards=d.shards,
            coupling_rel_tol=d.coupling_rel_tol,
            coupling_max_rank=d.coupling_max_rank,
            cut_level=d.cut_level,
            grid=grid,
            kernel=config.kernel.name,
            collect_factors=d.collect_factors,
        )

    def _solver_options(self) -> dict:
        """Constructor keywords of the named solver (hss-only knobs)."""
        if self.solver_name != "hss":
            return {}
        return {"hss_options": self.hss_options,
                "hmatrix_options": self.hmatrix_options,
                "use_hmatrix_sampling": self.use_hmatrix_sampling,
                "coupling_rel_tol": self.coupling_rel_tol,
                "coupling_max_rank": self.coupling_max_rank,
                "cut_level": self.cut_level,
                "collect_factors": self.collect_factors,
                "grid": self.grid}

    def _report(self, log: TimingLog, X_test, y_test,
                dataset_name: Optional[str]) -> PipelineReport:
        """Evaluate ``classifier_`` and build the report of its last verb.

        The one place a :class:`PipelineReport` is assembled: the model's
        current hyper-parameters and size, the solver's memory / rank
        statistics and phase timings, overlaid with the pipeline's own
        ``log``.  Accuracy is ``nan`` without a test set; the dataset tag
        defaults to the previous report's.
        """
        clf = self.classifier_
        acc, n_test = float("nan"), 0
        if X_test is not None and y_test is not None:
            with log.phase("predict_total"):
                y_pred = clf.predict(X_test)
            acc = accuracy(np.asarray(y_test, dtype=np.float64), y_pred)
            n_test = int(np.asarray(X_test).shape[0])
        if dataset_name is None:
            dataset_name = self.report_.dataset if self.report_ else ""
        solve = clf.report
        timings = dict(solve.timings)
        timings.update(log.as_dict())
        self.report_ = PipelineReport(
            dataset=dataset_name,
            clustering=getattr(self.clustering, "method", self.clustering),
            solver=self.solver_name, kernel=self.kernel_name,
            h=clf.h, lam=clf.lam,
            n_train=int(clf.X_train_.shape[0]), n_test=n_test,
            dim=int(clf.X_train_.shape[1]), accuracy=acc,
            memory_mb=solve.memory_mb, hss_memory_mb=solve.hss_memory_mb,
            hmatrix_memory_mb=solve.hmatrix_memory_mb,
            max_rank=solve.max_rank, shards=solve.shards, timings=timings)
        return self.report_

    def _trained(self, verb: str) -> KernelRidgeClassifier:
        if self.classifier_ is None:
            raise RuntimeError(f"pipeline must run() before {verb}()")
        return self.classifier_

    def run(
        self,
        X_train: np.ndarray,
        y_train: np.ndarray,
        X_test: np.ndarray,
        y_test: np.ndarray,
        dataset_name: str = "",
    ) -> PipelineReport:
        """Train, predict and evaluate; return the full report."""
        log = TimingLog()
        clf = KernelRidgeClassifier(
            h=self.h, lam=self.lam, solver=self.solver_name,
            clustering=self.clustering, kernel=self.kernel_name,
            leaf_size=self.leaf_size, seed=self.seed, shards=self.shards,
            solver_options=self._solver_options())
        with log.phase("train_total"):
            clf.fit(X_train, y_train)
        self.classifier_ = clf
        return self._report(log, X_test, y_test, dataset_name)

    def evaluate(
        self,
        X_test: Optional[np.ndarray] = None,
        y_test: Optional[np.ndarray] = None,
        dataset_name: Optional[str] = None,
    ) -> PipelineReport:
        """Re-score the last :meth:`run`'s classifier in its current state.

        The lifecycle verbs live on the classifier
        (:meth:`~repro.krr.KernelRidgeClassifier.refit`,
        ``refit_kernel``, ``partial_fit``, ``recompress``); after any of
        them this builds the matching report, so a regularization sweep is
        ``pipeline.classifier_.refit(lam); pipeline.evaluate(Xt, yt)``.

        Parameters
        ----------
        X_test, y_test:
            Optional test set; when both are given the model is
            re-evaluated and the report carries the new accuracy
            (otherwise the accuracy field is ``nan``).
        dataset_name:
            Optional dataset tag of the returned report; defaults to the
            last report's.

        Returns
        -------
        PipelineReport
            A fresh report: ``h`` / ``lam`` / ``n_train`` are read from the
            classifier, the timings are the phases of its last verb (plus
            ``predict_total``), so comparing it against the cold run's
            report shows what the verb saved.
        """
        self._trained("evaluate")
        return self._report(TimingLog(), X_test, y_test, dataset_name)

    # -------------------------------------------------------------- persistence
    def save(self, path: str, metadata: Optional[dict] = None,
             include_factorization: bool = True):
        """Persist the classifier trained by the last :meth:`run`.

        The :class:`PipelineReport` of that run (dataset, accuracy, memory,
        maximum rank, timings) is flattened into the artifact metadata, so
        a :class:`repro.serving.ModelStore` listing shows the headline
        numbers without opening the archive.
        """
        self._trained("save")
        from ..serving import metadata_from_report
        meta = metadata_from_report(self.report_) if self.report_ is not None else {}
        meta.update(metadata or {})
        return self.classifier_.save(path, metadata=meta,
                                     include_factorization=include_factorization)

    @staticmethod
    def load(path: str) -> KernelRidgeClassifier:
        """Load a classifier saved by :meth:`save` (ready to predict/serve)."""
        return KernelRidgeClassifier.load(path)

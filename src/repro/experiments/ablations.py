"""Ablation studies for the design choices DESIGN.md calls out.

These experiments do not correspond to a specific table in the paper; they
quantify the impact of the knobs the paper fixes or discusses in passing:

* dense vs H-matrix sampling for the HSS construction (the paper's main
  engineering contribution — Section 3.2 / Table 4),
* HSS leaf size (fixed to 16 in the paper),
* compression tolerance (fixed to 0.1),
* the solver used for the training system (ULV vs dense Cholesky vs CG),
* mean vs median splitting in the k-d tree ordering (Section 4.3),
* normalization scheme (z-score vs max-abs vs none — Section 5.2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..config import HSSOptions
from ..clustering.api import cluster
from ..clustering.kd_tree import kd_tree
from ..datasets import load_dataset
from ..datasets.normalize import minmax_scale, standardize
from ..diagnostics.report import Table
from ..hss.compressed import compress_kernel
from ..kernels.gaussian import GaussianKernel
from ..krr.classifier import KernelRidgeClassifier
from ..obs import global_registry


# --------------------------------------------------------------------------
# Sampling strategy ablation
# --------------------------------------------------------------------------
@dataclass
class SamplingAblationResult:
    dataset: str
    n: int
    rows: List[Dict[str, object]] = field(default_factory=list)

    def table(self) -> Table:
        return Table(title=f"Ablation — dense vs H-matrix sampling "
                           f"({self.dataset}, N={self.n})", rows=self.rows)


def run_ablation_sampling(dataset: str = "susy", n_train: int = 2048,
                          hss_options: Optional[HSSOptions] = None,
                          seed: int = 0) -> SamplingAblationResult:
    """Compare exact (dense) sampling with H-matrix accelerated sampling.

    Both arms are :func:`repro.hss.compress_kernel` on the λ-free kernel,
    differing only in ``use_hmatrix_sampling``; the element evaluations
    are the ``repro_kernel_element_evaluations_total`` delta of the call
    (the H-matrix assembly included).
    """
    data = load_dataset(dataset, n_train=n_train, n_test=64, seed=seed)
    clustering = cluster(data.X_train, method="two_means",
                         leaf_size=16, seed=seed)
    result = SamplingAblationResult(dataset=dataset, n=n_train)
    evaluations = global_registry().counter(
        "repro_kernel_element_evaluations_total")

    for label, use_h in (("dense sampling", False), ("hmatrix sampling", True)):
        before = evaluations.value
        report = compress_kernel(clustering.X, clustering.tree,
                                 GaussianKernel(h=data.h),
                                 hss_options=hss_options,
                                 use_hmatrix_sampling=use_h, seed=seed).report
        timings = report.timings
        result.rows.append({
            "strategy": label,
            "h_construction_s": round(timings.get("h_construction", 0.0), 4),
            "sampling_s": round(timings.get("hss_sampling", 0.0), 4),
            "other_s": round(timings.get("hss_other", 0.0), 4),
            "memory_mb": round(report.hss_memory_mb, 3),
            "max_rank": report.max_rank,
            "element_evals": int(evaluations.value - before),
        })
    return result


# --------------------------------------------------------------------------
# Leaf size ablation
# --------------------------------------------------------------------------
@dataclass
class LeafSizeAblationResult:
    dataset: str
    rows: List[Dict[str, object]] = field(default_factory=list)

    def table(self) -> Table:
        return Table(title=f"Ablation — HSS leaf size ({self.dataset})",
                     rows=self.rows)


def run_ablation_leafsize(dataset: str = "gas", n_train: int = 1024,
                          leaf_sizes: Sequence[int] = (8, 16, 32, 64, 128),
                          seed: int = 0) -> LeafSizeAblationResult:
    """Sweep the HSS leaf size and report memory / rank / accuracy."""
    data = load_dataset(dataset, n_train=n_train, n_test=256, seed=seed)
    result = LeafSizeAblationResult(dataset=dataset)
    for leaf in leaf_sizes:
        clf = KernelRidgeClassifier(
            h=data.h, lam=data.lam, clustering="two_means", solver="hss",
            leaf_size=int(leaf), seed=seed,
            solver_options={"use_hmatrix_sampling": False})
        clf.fit(data.X_train, data.y_train)
        rep = clf.report
        result.rows.append({
            "leaf_size": int(leaf),
            "memory_mb": round(rep.hss_memory_mb, 3),
            "max_rank": rep.max_rank,
            "accuracy_percent": round(
                100.0 * clf.score(data.X_test, data.y_test), 2),
            "factorization_s": round(rep.phase("factorization"), 4),
        })
    return result


# --------------------------------------------------------------------------
# Compression tolerance ablation
# --------------------------------------------------------------------------
@dataclass
class ToleranceAblationResult:
    dataset: str
    rows: List[Dict[str, object]] = field(default_factory=list)

    def table(self) -> Table:
        return Table(title=f"Ablation — HSS compression tolerance ({self.dataset})",
                     rows=self.rows)


def run_ablation_tolerance(dataset: str = "pen", n_train: int = 1024,
                           tolerances: Sequence[float] = (0.5, 0.1, 0.01, 1e-4),
                           seed: int = 0) -> ToleranceAblationResult:
    """Sweep the compression tolerance: accuracy should saturate near 0.1."""
    data = load_dataset(dataset, n_train=n_train, n_test=256, seed=seed)
    result = ToleranceAblationResult(dataset=dataset)
    for tol in tolerances:
        opts = HSSOptions(rel_tol=float(tol))
        clf = KernelRidgeClassifier(
            h=data.h, lam=data.lam, clustering="two_means", solver="hss",
            seed=seed, solver_options={"hss_options": opts,
                                       "use_hmatrix_sampling": False})
        clf.fit(data.X_train, data.y_train)
        result.rows.append({
            "rel_tol": float(tol),
            "memory_mb": round(clf.report.hss_memory_mb, 3),
            "max_rank": clf.report.max_rank,
            "accuracy_percent": round(
                100.0 * clf.score(data.X_test, data.y_test), 2),
        })
    return result


# --------------------------------------------------------------------------
# Solver ablation
# --------------------------------------------------------------------------
@dataclass
class SolverAblationResult:
    dataset: str
    rows: List[Dict[str, object]] = field(default_factory=list)

    def table(self) -> Table:
        return Table(title=f"Ablation — training-system solver ({self.dataset})",
                     rows=self.rows)


def run_ablation_solvers(dataset: str = "letter", n_train: int = 1024,
                         solvers: Sequence[str] = ("dense", "hss", "cg"),
                         seed: int = 0) -> SolverAblationResult:
    """Compare the dense, HSS and CG solvers on the same problem."""
    data = load_dataset(dataset, n_train=n_train, n_test=256, seed=seed)
    result = SolverAblationResult(dataset=dataset)
    for solver in solvers:
        clf = KernelRidgeClassifier(
            h=data.h, lam=data.lam, clustering="two_means", solver=solver,
            seed=seed, solver_options=(
                {"use_hmatrix_sampling": False} if solver == "hss" else {}))
        t0 = time.perf_counter()
        clf.fit(data.X_train, data.y_train)
        train_s = time.perf_counter() - t0
        result.rows.append({
            "solver": solver,
            "accuracy_percent": round(
                100.0 * clf.score(data.X_test, data.y_test), 2),
            "memory_mb": round(clf.report.memory_mb, 3),
            "train_s": round(train_s, 4),
        })
    return result


# --------------------------------------------------------------------------
# K-d tree split rule ablation
# --------------------------------------------------------------------------
@dataclass
class KDSplitAblationResult:
    dataset: str
    rows: List[Dict[str, object]] = field(default_factory=list)

    def table(self) -> Table:
        return Table(title=f"Ablation — k-d tree split at mean vs median "
                           f"({self.dataset})", rows=self.rows)


def run_ablation_kd_split(dataset: str = "covtype", n_train: int = 1024,
                          seed: int = 0) -> KDSplitAblationResult:
    """Compare mean-split and median-split k-d tree orderings."""
    data = load_dataset(dataset, n_train=n_train, n_test=64, seed=seed)
    result = KDSplitAblationResult(dataset=dataset)
    for label, use_median in (("mean split", False), ("median split", True)):
        tree = kd_tree(data.X_train, leaf_size=16,
                       use_median=use_median, seed=seed)
        report = compress_kernel(tree.apply_permutation(data.X_train), tree,
                                 GaussianKernel(h=data.h), seed=seed).report
        sizes = tree.leaf_sizes()
        result.rows.append({
            "split": label,
            "memory_mb": round(report.hss_memory_mb, 3),
            "max_rank": report.max_rank,
            "max_leaf": int(sizes.max()),
            "min_leaf": int(sizes.min()),
            "depth": tree.depth(),
        })
    return result


# --------------------------------------------------------------------------
# Normalization ablation
# --------------------------------------------------------------------------
@dataclass
class NormalizationAblationResult:
    dataset: str
    rows: List[Dict[str, object]] = field(default_factory=list)

    def table(self) -> Table:
        return Table(title=f"Ablation — dataset normalization ({self.dataset})",
                     rows=self.rows)


def run_ablation_normalization(dataset: str = "gas", n_train: int = 1024,
                               seed: int = 0) -> NormalizationAblationResult:
    """Compare z-score, max-abs and no normalization (Section 5.2)."""
    data = load_dataset(dataset, n_train=n_train, n_test=256, seed=seed,
                        normalize=False)
    result = NormalizationAblationResult(dataset=dataset)
    variants = {
        "zscore": standardize(data.X_train, data.X_test),
        "maxabs": minmax_scale(data.X_train, data.X_test),
        "none": (data.X_train, data.X_test),
    }
    for label, (X_tr, X_te) in variants.items():
        clf = KernelRidgeClassifier(h=data.h, lam=data.lam, solver="dense",
                                    clustering="two_means", seed=seed)
        clf.fit(X_tr, data.y_train)
        acc = clf.score(X_te, data.y_test)
        result.rows.append({
            "normalization": label,
            "accuracy_percent": round(100 * acc, 2),
        })
    return result

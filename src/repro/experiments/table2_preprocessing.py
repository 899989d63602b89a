"""Table 2: HSS memory and classification accuracy per preprocessing method.

The paper's main table: for seven datasets (10K train / 1K test), the HSS
memory in MB under the four orderings (NP, KD, PCA, 2MN) and the test
accuracy at the per-dataset ``(h, lambda)``.  Expected shape (Section 5.2):

* memory ordering ``2MN <= PCA <= KD <= NP`` on nearly every dataset, with
  up to ~10x reduction from NP to 2MN and ~4x versus KD on the best cases,
* the prediction accuracy is essentially independent of the ordering and
  matches the uncompressed (dense) kernel baseline,
* the 2MN numbers are averaged over several runs because the random
  seeding gives it a higher variance.

Problem sizes default to 2,048 / 512 so the full sweep runs in minutes in
pure Python; pass larger sizes to approach the paper's setting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..config import HSSOptions
from ..datasets import load_dataset
from ..diagnostics.report import Table
from ..krr.classifier import KernelRidgeClassifier
from ..utils.random import spawn_generators

#: Orderings in the column order of the paper's Table 2.
TABLE2_ORDERINGS = ("natural", "kd", "pca", "two_means")


@dataclass
class Table2Row:
    """One dataset's results across all orderings."""

    dataset: str
    dim: int
    h: float
    lam: float
    memory_mb: Dict[str, float] = field(default_factory=dict)
    max_rank: Dict[str, int] = field(default_factory=dict)
    accuracy: Dict[str, float] = field(default_factory=dict)
    dense_accuracy: Optional[float] = None


@dataclass
class Table2Result:
    """All rows of the preprocessing-comparison table."""

    n_train: int
    n_test: int
    rows: List[Table2Row] = field(default_factory=list)

    def table(self) -> Table:
        table = Table(title=f"Table 2 — HSS memory (MB) and accuracy, "
                            f"{self.n_train} train / {self.n_test} test")
        for row in self.rows:
            entry: Dict[str, object] = {
                "dataset": f"{row.dataset.upper()} ({row.dim})",
                "h": row.h, "lambda": row.lam,
            }
            for ordering in TABLE2_ORDERINGS:
                entry[f"mem {ordering}"] = round(row.memory_mb.get(ordering, float("nan")), 3)
            best = min(row.memory_mb, key=row.memory_mb.get) if row.memory_mb else ""
            entry["best"] = best
            entry["acc %"] = round(100 * np.mean(list(row.accuracy.values())), 1)
            if row.dense_accuracy is not None:
                entry["dense acc %"] = round(100 * row.dense_accuracy, 1)
            table.rows.append(entry)
        return table

    def memory_improvement(self, dataset: str, against: str = "natural") -> float:
        """Memory reduction factor of 2MN relative to another ordering."""
        for row in self.rows:
            if row.dataset == dataset:
                base = row.memory_mb[against]
                best = row.memory_mb["two_means"]
                return base / best if best > 0 else float("inf")
        raise KeyError(dataset)


def run_table2_preprocessing(
    datasets: Sequence[str] = ("susy", "letter", "pen", "hepmass", "covtype",
                               "gas", "mnist"),
    n_train: int = 2048,
    n_test: int = 512,
    orderings: Sequence[str] = TABLE2_ORDERINGS,
    two_means_repeats: int = 3,
    include_dense_baseline: bool = False,
    hss_options: Optional[HSSOptions] = None,
    use_hmatrix_sampling: bool = False,
    seed: int = 0,
    mnist_ambient_dim: Optional[int] = 196,
) -> Table2Result:
    """Run the preprocessing comparison over the requested datasets.

    Parameters
    ----------
    datasets:
        Dataset names (Table 2 uses all seven).
    n_train, n_test:
        Scaled-down sizes (the paper uses 10,000 / 1,000).
    orderings:
        Preprocessing methods to compare.
    two_means_repeats:
        The 2MN ordering is random; its memory is averaged over this many
        runs, mirroring the paper's protocol.
    include_dense_baseline:
        Also fit the exact dense solver to verify the accuracy parity claim
        (slower; off by default).
    hss_options:
        HSS compression options.  The default tolerance here is 0.05: the
        paper requires "at most 0.1", and at the reduced problem sizes used
        in this reproduction the slightly tighter setting keeps the
        accuracy-parity-across-orderings claim intact even for the natural
        ordering, whose per-block errors accumulate the most.
    use_hmatrix_sampling:
        Sample through the H matrix (slower in pure Python for these sizes,
        so off by default here; Table 4 exercises it).
    seed:
        Base seed.
    mnist_ambient_dim:
        Reduced ambient dimension for the MNIST-like dataset (784 is very
        slow in pure Python); ``None`` keeps the full 784.
    """
    opts = hss_options if hss_options is not None else HSSOptions(rel_tol=0.05)
    result = Table2Result(n_train=n_train, n_test=n_test)

    def fit(data, ordering, solver="hss", seed=seed):
        """Train one classifier; return its solve report and accuracy."""
        options = ({"hss_options": opts,
                    "use_hmatrix_sampling": use_hmatrix_sampling}
                   if solver == "hss" else {})
        clf = KernelRidgeClassifier(h=data.h, lam=data.lam,
                                    clustering=ordering, solver=solver,
                                    seed=seed, solver_options=options)
        clf.fit(data.X_train, data.y_train)
        return clf.report, clf.score(data.X_test, data.y_test)

    for d_idx, name in enumerate(datasets):
        kwargs = {}
        if name == "mnist" and mnist_ambient_dim is not None:
            kwargs["ambient_dim"] = int(mnist_ambient_dim)
        data = load_dataset(name, n_train=n_train, n_test=n_test,
                            seed=seed + d_idx, **kwargs)
        row = Table2Row(dataset=name, dim=data.dim, h=data.h, lam=data.lam)

        for ordering in orderings:
            if ordering == "two_means" and two_means_repeats > 1:
                rngs = spawn_generators(seed + 1000 + d_idx, two_means_repeats)
                runs = [fit(data, ordering, seed=int(rng.integers(2**31 - 1)))
                        for rng in rngs]
                row.memory_mb[ordering] = float(np.mean(
                    [rep.hss_memory_mb for rep, _ in runs]))
                row.max_rank[ordering] = int(np.mean(
                    [rep.max_rank for rep, _ in runs]))
                row.accuracy[ordering] = float(np.mean(
                    [acc for _, acc in runs]))
            else:
                rep, acc = fit(data, ordering)
                row.memory_mb[ordering] = rep.hss_memory_mb
                row.max_rank[ordering] = rep.max_rank
                row.accuracy[ordering] = acc

        if include_dense_baseline:
            row.dense_accuracy = fit(data, "two_means", solver="dense")[1]
        result.rows.append(row)
    return result

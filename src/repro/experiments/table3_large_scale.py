"""Table 3: large-scale prediction accuracy.

The paper trains on millions of points (SUSY 4.5M, MNIST 1.6M, COVTYPE
0.5M, HEPMASS 1.0M) and reports the test accuracy at tuned ``(h, lambda)``.
A pure-Python single-node reproduction cannot reach millions of points, so
this experiment runs the same four datasets at the largest size the host
can handle (default 8,192 training points — already far beyond what a dense
``O(n^2)`` kernel would allow in the same memory envelope) and reports both
the accuracy and the compressed-vs-dense memory ratio, which is the point
of the table: hierarchical compression makes these problem sizes reachable
at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import HMatrixOptions, HSSOptions
from ..datasets import load_dataset
from ..diagnostics.report import Table
from ..krr.classifier import KernelRidgeClassifier
from ..utils.bytes import dense_matrix_bytes, megabytes

#: The paper's Table 3 rows: dataset -> (N, h, lambda, accuracy).
PAPER_TABLE3 = {
    "susy": (4_500_000, 0.08, 10.0, 0.73),
    "mnist": (1_600_000, 1.1, 10.0, 0.99),
    "covtype": (500_000, 0.07, 0.3, 0.99),
    "hepmass": (1_000_000, 0.7, 0.5, 0.90),
}


@dataclass
class Table3Row:
    dataset: str
    n_train: int
    dim: int
    h: float
    lam: float
    accuracy: float
    hss_memory_mb: float
    dense_memory_mb: float
    max_rank: int
    paper_accuracy: float
    #: worker processes (subtree shards) the training ran with
    shards: int = 1

    @property
    def compression_ratio(self) -> float:
        return (self.dense_memory_mb / self.hss_memory_mb
                if self.hss_memory_mb > 0 else float("inf"))


@dataclass
class Table3Result:
    rows: List[Table3Row] = field(default_factory=list)

    def table(self) -> Table:
        table = Table(title="Table 3 — large-scale prediction (scaled-down sizes)")
        for row in self.rows:
            table.add_row(
                dataset=row.dataset.upper(),
                N=row.n_train,
                d=row.dim,
                h=row.h,
                **{"lambda": row.lam},
                accuracy_percent=round(100 * row.accuracy, 1),
                paper_accuracy_percent=round(100 * row.paper_accuracy, 1),
                hss_memory_mb=round(row.hss_memory_mb, 2),
                dense_memory_mb=round(row.dense_memory_mb, 1),
                compression=f"{row.compression_ratio:.0f}x",
                max_rank=row.max_rank,
                shards=row.shards,
            )
        return table


def run_table3_large_scale(
    datasets: Sequence[str] = ("susy", "mnist", "covtype", "hepmass"),
    n_train: int = 8192,
    n_test: int = 1024,
    use_paper_hyperparameters: bool = False,
    hss_options: Optional[HSSOptions] = None,
    use_hmatrix_sampling: bool = True,
    seed: int = 0,
    mnist_ambient_dim: Optional[int] = 196,
    shards: Optional[int] = None,
) -> Table3Result:
    """Run the large-scale prediction experiment at reduced sizes.

    Parameters
    ----------
    use_paper_hyperparameters:
        The paper's (h, lambda) for Table 3 were tuned on million-point
        datasets; on the smaller synthetic analogues the Table 2 values
        generalise better, so by default those are used and the paper's
        values are only reported for reference.
    shards:
        Worker processes for the training solve (the paper ran this table
        on distributed-memory MPI grids; ``shards > 1`` uses the
        process-sharded path of :mod:`repro.distributed`).  ``None``
        defers to ``REPRO_SHARDS`` / single process.
    """
    opts = hss_options if hss_options is not None else HSSOptions()
    result = Table3Result()
    for idx, name in enumerate(datasets):
        paper_n, paper_h, paper_lam, paper_acc = PAPER_TABLE3[name]
        kwargs = {}
        if name == "mnist" and mnist_ambient_dim is not None:
            kwargs["ambient_dim"] = int(mnist_ambient_dim)
        data = load_dataset(name, n_train=n_train, n_test=n_test, seed=seed + idx,
                            **kwargs)
        h, lam = (paper_h, paper_lam) if use_paper_hyperparameters else (data.h, data.lam)
        clf = KernelRidgeClassifier(
            h=h, lam=lam, clustering="two_means", solver="hss", seed=seed,
            shards=shards,
            solver_options={"hss_options": opts,
                            "use_hmatrix_sampling": use_hmatrix_sampling})
        clf.fit(data.X_train, data.y_train)
        rep = clf.report
        result.rows.append(Table3Row(
            dataset=name,
            n_train=data.n_train,
            dim=data.dim,
            h=h,
            lam=lam,
            accuracy=clf.score(data.X_test, data.y_test),
            hss_memory_mb=rep.hss_memory_mb,
            dense_memory_mb=megabytes(dense_matrix_bytes(data.n_train)),
            max_rank=rep.max_rank,
            paper_accuracy=paper_acc,
            shards=rep.shards,
        ))
    return result

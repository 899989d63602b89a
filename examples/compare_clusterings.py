#!/usr/bin/env python
"""Compare the preprocessing orderings (the paper's Table 2, in miniature).

For a chosen dataset, this example builds the HSS approximation of the
kernel matrix under each ordering (natural, k-d tree, PCA tree, recursive
two-means, ball tree) and reports the three quantities the paper uses to
judge a preprocessing method: memory of the compressed matrix, maximum
off-diagonal rank, and classification accuracy.

Run it with:  python examples/compare_clusterings.py [dataset] [n_train]
e.g.          python examples/compare_clusterings.py covtype 2048
"""

from __future__ import annotations

import sys
import time

from repro.datasets import dataset_names, load_dataset
from repro.diagnostics import Table
from repro.krr import KernelRidgeClassifier


def main(dataset: str = "gas", n_train: int = 1024, n_test: int = 256) -> None:
    if dataset not in dataset_names():
        raise SystemExit(f"unknown dataset {dataset!r}; choose from {dataset_names()}")
    data = load_dataset(dataset, n_train=n_train, n_test=n_test, seed=0)
    print(f"{dataset.upper()}: {n_train} train / {n_test} test, d={data.dim}, "
          f"h={data.h}, lambda={data.lam}\n")

    table = Table(title="Preprocessing comparison (paper Table 2, scaled down)")
    orderings = ("natural", "kd", "pca", "two_means", "ball")
    for ordering in orderings:
        clf = KernelRidgeClassifier(
            h=data.h, lam=data.lam, clustering=ordering, solver="hss", seed=0,
            solver_options={"use_hmatrix_sampling": False})
        start = time.perf_counter()
        clf.fit(data.X_train, data.y_train)
        train_seconds = time.perf_counter() - start
        table.add_row(
            ordering=ordering,
            memory_mb=round(clf.report.hss_memory_mb, 3),
            max_rank=clf.report.max_rank,
            accuracy_percent=round(
                100.0 * clf.score(data.X_test, data.y_test), 1),
            train_seconds=round(train_seconds, 2),
        )
    print(table.render())
    rows = {r["ordering"]: r for r in table.rows}
    gain = rows["natural"]["memory_mb"] / rows["two_means"]["memory_mb"]
    print(f"\nMemory reduction natural -> two-means: {gain:.1f}x "
          "(the paper reports up to ~10x on the best datasets)")


if __name__ == "__main__":
    name = sys.argv[1] if len(sys.argv) > 1 else "gas"
    n = int(sys.argv[2]) if len(sys.argv) > 2 else 1024
    main(dataset=name, n_train=n)

#!/usr/bin/env python
"""λ sweep: compress the kernel once, refit the factorization per λ.

The training system is ``K + lambda I``, and everything expensive about
its hierarchical approximation depends only on ``K`` — so a
regularization sweep should pay the H-matrix + HSS compression exactly
once.  This script demonstrates the compress-once/refit-many API on a
synthetic SUSY-like dataset, configured through the layered
:class:`repro.runtime.RuntimeConfig` (the same spine the ``repro`` CLI
uses, so ``REPRO_*`` env vars and a ``./repro.toml`` apply here too):

1. resolve the runtime config and build the classifier from it,
2. fit cold at the first λ (clustering + λ-free compression + ULV
   factorization + solve),
3. sweep the remaining λ values with ``clf.refit(lam)`` — each point
   reuses the resident λ-free HSS matrix (``clf.solver_.hss_``; the H
   matrix of the compression is long gone) and redoes only the
   ``O(n r^2)`` ULV factorization and the training solve.

Every refit is numerically identical (bitwise) to a cold fit at that λ.
The shell equivalent of one sweep step:  ``repro refit --new-lam 2.0``.

Run it with:  PYTHONPATH=src python examples/sweep_lambda.py [n_train]
"""

from __future__ import annotations

import sys
import time

from repro.datasets import load_dataset
from repro.krr import KernelRidgeClassifier
from repro.runtime import resolve_runtime_config


def main(n_train: int = 2048, n_test: int = 512) -> None:
    lambdas = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
    config = resolve_runtime_config(flags={
        "dataset.name": "susy",
        "dataset.n_train": n_train,
        "dataset.n_test": n_test,
    })
    d = config.dataset
    print(f"Loading SUSY-like dataset: {d.n_train} train / {d.n_test} test "
          f"samples")
    data = load_dataset(d.name, n_train=d.n_train, n_test=d.n_test,
                        seed=d.seed, normalize=d.normalize)

    clf = KernelRidgeClassifier(
        h=data.h, lam=lambdas[0], solver=config.solver.name,
        clustering=config.clustering, seed=config.clustering.seed,
        solver_options={"hss_options": config.hss,
                        "hmatrix_options": config.hmatrix,
                        "use_hmatrix_sampling":
                            config.solver.use_hmatrix_sampling})
    t0 = time.perf_counter()
    clf.fit(data.X_train, data.y_train)
    cold_seconds = time.perf_counter() - t0
    acc = clf.score(data.X_test, data.y_test)
    print(f"\ncold fit   lam={lambdas[0]:<6g} accuracy={100 * acc:6.2f}%  "
          f"{cold_seconds:6.3f}s  (clustering + compression + ULV + solve)")

    best = (acc, lambdas[0])
    for lam in lambdas[1:]:
        t1 = time.perf_counter()
        clf.refit(lam)           # reuses the λ-free compression
        refit_seconds = time.perf_counter() - t1
        acc = clf.score(data.X_test, data.y_test)
        best = max(best, (acc, lam))
        print(f"refit      lam={lam:<6g} accuracy={100 * acc:6.2f}%  "
              f"{refit_seconds:6.3f}s  ({cold_seconds / refit_seconds:4.1f}x "
              f"faster than the cold fit)")

    solver = clf.solver_
    print(f"\ncompressions performed : {solver.compression_count} "
          f"(for {len(lambdas)} lambda values)")
    print(f"lambda refits          : {solver.report.refits}")
    print(f"best                   : lam={best[1]:g} "
          f"accuracy={100 * best[0]:.2f}%")


if __name__ == "__main__":
    main(*(int(a) for a in sys.argv[1:3]))

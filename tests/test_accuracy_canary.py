"""Opt-in canary for the HSS-vs-dense accuracy gap (ROADMAP, first item).

The paper's claim (Section 5.2) is that a loose HSS tolerance costs no
classification accuracy.  Here the gap *widens* with n: the perf ledger's
``accuracy_vs_dense`` reads 0.978 on ``lowdim`` at n = 2560.  This is the
``lowdim`` recipe scaled to n = 4096, with the dense reference fitted in
the same test, where it read 0.7813 when the test was committed (hss
0.6771, dense 0.8666; the same recipe gives 0.9946 / 0.9780 / 0.9772 at
n = 1536 / 2560 / 3072).  It takes a dense n = 4096 fit, so it carries
the ``slow`` marker and runs only with ``-m slow``.  It is expected to
fail until the accuracy work lands — its assertion is that PR's
acceptance line.
"""

import pytest

from repro.datasets import load_dataset
from repro.krr import KernelRidgeClassifier

#: generator seed of the ledger's fixed datasets (benchmarks/ledger/workloads.py)
DATASET_SEED = 20180521


@pytest.mark.slow
@pytest.mark.xfail(strict=False,
                   reason="open accuracy gap: accuracy_vs_dense reads 0.7813 "
                          "at n = 4096 (ROADMAP first item)")
def test_hss_matches_dense_accuracy_at_n4096(record_property):
    data = load_dataset("susy", n_train=4096, n_test=16384, seed=DATASET_SEED)
    accuracy = {}
    for solver in ("hss", "dense"):
        clf = KernelRidgeClassifier(h=data.h, lam=data.lam, solver=solver,
                                    clustering="two_means", leaf_size=16,
                                    seed=0)
        clf.fit(data.X_train, data.y_train)
        accuracy[solver] = float(clf.score(data.X_test, data.y_test))
    ratio = accuracy["hss"] / accuracy["dense"]
    record_property("accuracy_vs_dense", ratio)
    print(f"n=4096 accuracy: hss {accuracy['hss']:.4f}, "
          f"dense {accuracy['dense']:.4f}, accuracy_vs_dense {ratio:.4f}")
    assert ratio >= 0.99

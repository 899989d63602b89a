"""Streaming updates: Woodbury ``partial_fit`` vs cold refits.

The streaming contract (``KernelRidgeClassifier.partial_fit``): picking
up a batch of new/removed training rows costs one kernel block plus one
capacitance solve against the *existing* factorization — no clustering,
no compression, no ULV — so it must be far cheaper than the cold fit it
replaces.  This benchmark measures that on the real training stack:

* **cold fit** — full cluster + compress + factor + solve at ``n``;
* **partial_fit** — a stream of add/remove batches against the fitted
  model (mean per-update wall time, correction-rank growth);
* **recompress** — folding the accumulated corrections back into a
  fresh factorization (the drift-budget escape hatch), which should cost
  about one cold fit;

and asserts the headline acceptance bar: a streaming update is at least
**5x** faster than the cold fit at ``n = 2000``, while the streamed
decisions match a cold fit on the same effective data.

Everything lands in ``BENCH_streaming_updates.json`` via
:mod:`benchmarks._harness`.

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_streaming_updates.py -q
"""

from __future__ import annotations

import os

# Pin BLAS to one thread so timings compare single axes of parallelism
# (must happen before NumPy loads its BLAS).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import time

import numpy as np
from _harness import write_bench_json
from conftest import scaled

from repro.datasets import susy_like
from repro.krr import KernelRidgeClassifier

N_TRAIN = 2000
N_UPDATES = 8
ADD_PER_UPDATE = 16
REMOVE_PER_UPDATE = 4
SPEEDUP_BAR = 5.0


def test_partial_fit_beats_cold_fit():
    n = scaled(N_TRAIN)
    X, y = susy_like(n, seed=0)
    pool_X, pool_y = susy_like(N_UPDATES * ADD_PER_UPDATE, seed=900)
    X_test, _ = susy_like(200, seed=901)
    rng = np.random.default_rng(2)

    clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="hss", seed=0)
    t0 = time.perf_counter()
    clf.fit(X, y)
    cold_fit_s = time.perf_counter() - t0

    update_seconds = []
    ranks = []
    cursor = 0
    for _ in range(N_UPDATES):
        add_X = pool_X[cursor:cursor + ADD_PER_UPDATE]
        add_y = pool_y[cursor:cursor + ADD_PER_UPDATE]
        cursor += ADD_PER_UPDATE
        drop = sorted(int(i) for i in rng.choice(
            clf.X_train_.shape[0], size=REMOVE_PER_UPDATE, replace=False))
        t1 = time.perf_counter()
        clf.partial_fit(X_new=add_X, y_new=add_y, remove=drop)
        update_seconds.append(time.perf_counter() - t1)
        ranks.append(int(clf.stream_info_["correction_rank"]))

    mean_update_s = float(np.mean(update_seconds))
    speedup = cold_fit_s / mean_update_s

    # correctness alongside the speed claim: the streamed model matches a
    # cold fit on the final effective data (within compression tolerance)
    eff_X, eff_y = clf.X_train_.copy(), clf._targets_perm.copy()
    t2 = time.perf_counter()
    cold = KernelRidgeClassifier(h=1.0, lam=1.0, solver="hss",
                                 seed=0).fit(eff_X, eff_y)
    cold_fit_effective_s = time.perf_counter() - t2
    decision_diff = float(np.abs(clf.decision_function(X_test)
                                 - cold.decision_function(X_test)).max())

    # recompress folds the corrections back in (~ one cold fit)
    t3 = time.perf_counter()
    clf.recompress()
    recompress_s = time.perf_counter() - t3
    assert np.array_equal(clf.weights_, cold.weights_), \
        "recompression must be bitwise-identical to the cold build"

    results = {
        "cold_fit_s": cold_fit_s,
        "cold_fit_effective_s": cold_fit_effective_s,
        "partial_fit_mean_s": mean_update_s,
        "partial_fit_per_update_s": [float(s) for s in update_seconds],
        "partial_fit_speedup_vs_cold_fit": float(speedup),
        "speedup_bar": SPEEDUP_BAR,
        "final_correction_rank": ranks[-1],
        "correction_rank_per_update": ranks,
        "recompress_s": recompress_s,
        "streamed_vs_cold_decision_diff": decision_diff,
        "recompress_bitwise_equal": True,
    }
    write_bench_json(
        "streaming_updates", results,
        sizes={"n_train": n, "dim": int(X.shape[1]),
               "n_updates": N_UPDATES, "add_per_update": ADD_PER_UPDATE,
               "remove_per_update": REMOVE_PER_UPDATE})

    assert decision_diff < 0.05, \
        f"streamed decisions drifted from the cold fit: {decision_diff:.3e}"
    assert speedup >= SPEEDUP_BAR, \
        (f"partial_fit must be >= {SPEEDUP_BAR}x faster than a cold fit "
         f"at n={n}: got {speedup:.1f}x "
         f"({mean_update_s:.4f}s vs {cold_fit_s:.2f}s)")

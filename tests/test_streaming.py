"""Randomized equivalence tests of the streaming (Woodbury) update path.

The core claim of ``partial_fit``: after *any* interleaving of
``add_rows`` / ``remove_rows`` / ``refit(lam)``, the streamed model is
mathematically the model a cold ``fit`` would produce on the final
effective dataset — the Woodbury corrections are exact, so the only
daylight is compression tolerance.  The suite drives random op sequences
through three paths and checks them against a cold-fit oracle:

* **serial** — ops applied directly to a fitted classifier;
* **sharded** — the same ops against the process-sharded distributed
  solver (``shards=2``);
* **reloaded** — the model is saved/loaded mid-sequence and the
  remaining ops continue on the reloaded artifact (state round-trips
  bitwise, so this path must match the serial one exactly).

Plus the drift-budget contract: a forced breach flags ``stream_info_``
and ``recompress()`` is **bitwise** identical to a cold build on the
effective data in its current row order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import HSSOptions
from repro.datasets import susy_like
from repro.hss import DriftBudget
from repro.krr import KernelRidgeClassifier, OneVsAllClassifier

#: tight compression so the cold-fit comparison tolerance is meaningful
TIGHT = {"hss_options": HSSOptions(rel_tol=1e-6)}

#: (solver name, solver_options, decision-function tolerance vs cold fit)
SOLVERS = [("dense", None, 1e-8), ("hss", TIGHT, 1e-3)]

N_BASE = 220
N_POOL = 64


def _data(seed=1):
    X, y = susy_like(N_BASE, seed=seed)
    pool_X, pool_y = susy_like(N_POOL, seed=seed + 100)
    X_test, _ = susy_like(50, seed=seed + 200)
    return X, y, pool_X, pool_y, X_test


def _random_ops(rng, n_start, pool_size, n_ops=6):
    """A random op sequence valid against a model of ``n_start`` rows.

    Each op is ``("add", k)``, ``("remove", indices)`` or
    ``("refit", lam)``; sizes are tracked so removals always index into
    the current effective ordering and never drain the training set.
    """
    ops = []
    n_eff, used = n_start, 0
    for _ in range(n_ops):
        kind = rng.choice(["add", "remove", "refit"])
        if kind == "add" and used < pool_size:
            k = int(rng.integers(1, min(8, pool_size - used) + 1))
            ops.append(("add", k))
            used += k
            n_eff += k
        elif kind == "remove" and n_eff > 20:
            k = int(rng.integers(1, 5))
            idx = rng.choice(n_eff, size=k, replace=False)
            ops.append(("remove", sorted(int(i) for i in idx)))
            n_eff -= k
        else:
            ops.append(("refit", float(rng.uniform(0.5, 2.0))))
    return ops


def _apply(clf, oracle_X, oracle_y, op, pool_X, pool_y, cursor):
    """Apply one op to the classifier and the oracle arrays in lockstep.

    ``oracle_X=None`` applies the op to the classifier only (used when a
    second classifier replays the same sequence).
    """
    kind, arg = op
    if kind == "add":
        rows = pool_X[cursor:cursor + arg]
        labels = pool_y[cursor:cursor + arg]
        clf.partial_fit(X_new=rows, y_new=labels)
        if oracle_X is not None:
            oracle_X = np.vstack([oracle_X, rows])
            oracle_y = np.concatenate([oracle_y, labels])
        cursor += arg
    elif kind == "remove":
        clf.partial_fit(remove=arg)
        if oracle_X is not None:
            oracle_X = np.delete(oracle_X, arg, axis=0)
            oracle_y = np.delete(oracle_y, arg)
    else:
        clf.refit(arg)
    return oracle_X, oracle_y, cursor


@pytest.mark.parametrize("solver,options,tol", SOLVERS,
                         ids=[s[0] for s in SOLVERS])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_interleaving_matches_cold_fit(solver, options, tol, seed):
    X, y, pool_X, pool_y, X_test = _data()
    rng = np.random.default_rng(seed)
    clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver=solver,
                                solver_options=options).fit(X, y)
    # the oracle tracks the model's own (permuted) training ordering
    oracle_X, oracle_y = clf.X_train_.copy(), clf._targets_perm.copy()
    cursor = 0
    for op in _random_ops(rng, N_BASE, N_POOL):
        oracle_X, oracle_y, cursor = _apply(
            clf, oracle_X, oracle_y, op, pool_X, pool_y, cursor)

    # bookkeeping: the streamed training set is exactly the oracle's
    assert np.array_equal(clf.X_train_, oracle_X)
    assert np.array_equal(clf._targets_perm, oracle_y)

    # equivalence: streamed decisions match a cold fit on the final data
    cold = KernelRidgeClassifier(h=1.0, lam=clf.lam, solver=solver,
                                 solver_options=options).fit(oracle_X,
                                                             oracle_y)
    diff = np.abs(clf.decision_function(X_test)
                  - cold.decision_function(X_test)).max()
    assert diff < tol, f"streamed vs cold-fit decision diff {diff:.3e}"


def test_sharded_interleaving_matches_serial_and_cold():
    X, y, pool_X, pool_y, X_test = _data()
    rng_a = np.random.default_rng(7)
    rng_b = np.random.default_rng(7)
    sharded = KernelRidgeClassifier(h=1.0, lam=1.0, solver="hss", shards=2,
                                    solver_options=TIGHT).fit(X, y)
    serial = KernelRidgeClassifier(h=1.0, lam=1.0, solver="hss",
                                   solver_options=TIGHT).fit(X, y)
    oracle_X, oracle_y = sharded.X_train_.copy(), sharded._targets_perm.copy()
    cursor_a = cursor_b = 0
    dummy = (None, None)
    for op in _random_ops(rng_a, N_BASE, N_POOL, n_ops=5):
        oracle_X, oracle_y, cursor_a = _apply(
            sharded, oracle_X, oracle_y, op, pool_X, pool_y, cursor_a)
        _, _, cursor_b = _apply(serial, *dummy, op, pool_X, pool_y,
                                cursor_b)
    del rng_b

    assert np.array_equal(sharded.X_train_, oracle_X)
    d_serial = np.abs(sharded.decision_function(X_test)
                      - serial.decision_function(X_test)).max()
    assert d_serial < 1e-3, f"sharded vs serial diff {d_serial:.3e}"
    cold = KernelRidgeClassifier(h=1.0, lam=sharded.lam, solver="hss",
                                 shards=2, solver_options=TIGHT
                                 ).fit(oracle_X, oracle_y)
    d_cold = np.abs(sharded.decision_function(X_test)
                    - cold.decision_function(X_test)).max()
    assert d_cold < 1e-3, f"sharded streamed vs cold diff {d_cold:.3e}"


@pytest.mark.parametrize("solver,options,tol", SOLVERS,
                         ids=[s[0] for s in SOLVERS])
def test_reloaded_artifact_continues_stream_bitwise(solver, options, tol,
                                                    tmp_path):
    """Save/load mid-sequence: the reloaded path equals the serial path
    bitwise (streamed state round-trips exactly through the artifact)."""
    X, y, pool_X, pool_y, X_test = _data()
    rng = np.random.default_rng(3)
    ops = _random_ops(rng, N_BASE, N_POOL, n_ops=6)
    half = len(ops) // 2

    serial = KernelRidgeClassifier(h=1.0, lam=1.0, solver=solver,
                                   solver_options=options).fit(X, y)
    streamed = KernelRidgeClassifier(h=1.0, lam=1.0, solver=solver,
                                     solver_options=options).fit(X, y)
    dummy = (None, None)
    cursor_a = cursor_b = 0
    for op in ops[:half]:
        _, _, cursor_a = _apply(serial, *dummy, op, pool_X, pool_y,
                                cursor_a)
        _, _, cursor_b = _apply(streamed, *dummy, op, pool_X, pool_y,
                                cursor_b)

    path = str(tmp_path / "mid-stream.npz")
    streamed.save(path)
    reloaded = KernelRidgeClassifier.load(path)
    assert np.array_equal(reloaded.X_train_, streamed.X_train_)

    for op in ops[half:]:
        _, _, cursor_a = _apply(serial, *dummy, op, pool_X, pool_y,
                                cursor_a)
        _, _, cursor_b = _apply(reloaded, *dummy, op, pool_X, pool_y,
                                cursor_b)

    assert np.array_equal(reloaded.X_train_, serial.X_train_)
    diff = np.abs(reloaded.decision_function(X_test)
                  - serial.decision_function(X_test)).max()
    assert diff == 0.0, f"reloaded path diverged from serial: {diff:.3e}"


# ------------------------------------------------------------ drift budget
def test_forced_breach_and_bitwise_recompression():
    X, y, pool_X, pool_y, _ = _data()
    clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="hss",
                                solver_options=TIGHT).fit(X, y)
    budget = DriftBudget(max_updates=2)
    clf.partial_fit(X_new=pool_X[:5], y_new=pool_y[:5], remove=[3, 8],
                    budget=budget)
    info = clf.stream_info_
    assert info["breached"]
    assert "max_updates" in info["breach_reason"]
    assert info["correction_rank"] == 7

    eff_X, eff_y = clf.X_train_.copy(), clf._targets_perm.copy()
    clf.recompress()
    cold = KernelRidgeClassifier(h=1.0, lam=1.0, solver="hss",
                                 solver_options=TIGHT).fit(eff_X, eff_y)
    # recompression == cold build on the effective data, bitwise
    assert np.array_equal(clf.weights_, cold.weights_)
    assert np.array_equal(clf.X_train_, cold.X_train_)
    assert clf.stream_info_ is None  # recompress goes through fit()
    assert clf.solver_.stream is None or not clf.solver_.stream.active


def test_budget_fraction_and_residual_rules():
    X, y, pool_X, pool_y, _ = _data()
    clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="dense").fit(X, y)
    # fraction rule: 10% of 220 rows breaches max_fraction=0.02
    clf.partial_fit(X_new=pool_X[:22], y_new=pool_y[:22],
                    budget=DriftBudget(max_updates=1000, max_fraction=0.02))
    assert clf.stream_info_["breached"]
    assert "max_fraction" in clf.stream_info_["breach_reason"]
    # residual rule: exact Woodbury keeps the residual tiny, so an
    # absurdly small tolerance must still pass a sanity threshold check
    clf2 = KernelRidgeClassifier(h=1.0, lam=1.0, solver="dense").fit(X, y)
    clf2.partial_fit(X_new=pool_X[:3], y_new=pool_y[:3],
                     budget=DriftBudget(residual_tol=1e-3))
    assert clf2.stream_info_["residual"] is not None
    assert clf2.stream_info_["residual"] < 1e-3
    assert not clf2.stream_info_["breached"]


# ------------------------------------------------------------- multiclass
def test_multiclass_interleaving_matches_cold_fit():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((180, 6))
    centers = rng.standard_normal((3, 6)) * 3.0
    labels = rng.integers(0, 3, size=180)
    X += centers[labels]
    pool = rng.standard_normal((20, 6)) + centers[rng.integers(0, 3, 20)]
    pool_labels = np.argmin(
        ((pool[:, None, :] - centers[None]) ** 2).sum(-1), axis=1)
    X_test = rng.standard_normal((40, 6)) + centers[rng.integers(0, 3, 40)]

    clf = OneVsAllClassifier(h=2.0, lam=1.0, solver="dense").fit(X, labels)
    clf.partial_fit(X_new=pool[:8], y_new=pool_labels[:8], remove=[1, 40])
    clf.partial_fit(remove=[0, 2, 5])
    clf.refit(1.5)
    clf.partial_fit(X_new=pool[8:], y_new=pool_labels[8:])

    eff_X = clf.X_train_.copy()
    eff_labels = clf.classes_[np.argmax(clf._targets_perm, axis=1)]
    cold = OneVsAllClassifier(h=2.0, lam=1.5, solver="dense").fit(
        eff_X, eff_labels)
    diff = np.abs(clf.decision_function(X_test)
                  - cold.decision_function(X_test)).max()
    assert diff < 1e-8, f"multiclass streamed vs cold diff {diff:.3e}"

    # recompress is bitwise against the cold build in the same row order
    clf.recompress()
    assert np.array_equal(clf.weights_, cold.weights_)

    # labels unseen at fit time are rejected (new class ⇒ full fit)
    with pytest.raises(ValueError, match="not present at fit"):
        clf.partial_fit(X_new=pool[:1], y_new=np.asarray([99]))


# ------------------------------------------------------------ error paths
def test_streaming_error_paths():
    X, y, pool_X, pool_y, _ = _data()
    clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="dense")
    with pytest.raises(RuntimeError, match="fitted"):
        clf.partial_fit(X_new=pool_X[:1], y_new=pool_y[:1])
    clf.fit(X, y)
    with pytest.raises(ValueError):
        clf.partial_fit()  # nothing to do
    with pytest.raises(ValueError):
        clf.partial_fit(X_new=pool_X[:2], y_new=pool_y[:3])  # mismatch
    with pytest.raises(ValueError):
        clf.partial_fit(remove=[0, 0])  # duplicate indices
    with pytest.raises(ValueError):
        clf.partial_fit(remove=[N_BASE + 5])  # out of range
    # failed updates must not corrupt the model (state is rolled back)
    before = clf.decision_function(X[:5]).copy()
    with pytest.raises(ValueError):
        clf.partial_fit(X_new=pool_X[:2, :3], y_new=pool_y[:2])  # bad dim
    assert np.array_equal(clf.decision_function(X[:5]), before)
    # the CG solver retains no training state and cannot stream
    cg = KernelRidgeClassifier(h=1.0, lam=1.0, solver="cg").fit(X, y)
    with pytest.raises(RuntimeError, match="does not support streaming"):
        cg.partial_fit(X_new=pool_X[:1], y_new=pool_y[:1])

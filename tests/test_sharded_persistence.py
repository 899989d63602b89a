"""Persistence of ``shards > 1`` models (the ``dist.*`` artifact section).

The acceptance contract of the sharded-artifact schema:

* a model trained with ``shards=2`` round-trips through
  :class:`repro.serving.ModelStore` with its per-shard ULV factors and
  coupling state (``dist.*`` section, introduced by schema version 2);
* loaded **in a genuinely fresh process**, it predicts identically and
  ``solve()`` with a *new* right-hand side matches the serial HSS solver
  within the compression tolerance;
* the restored :class:`repro.distributed.ShardedULVSolver` reproduces the
  live distributed solves, re-saves losslessly, and serves through the
  one :class:`repro.serving.PredictionEngine`;
* multi-class models (one multi-RHS distributed solve for all classes)
  persist the same way.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.config import HSSOptions
from repro.datasets import load_dataset
from repro.distributed import ShardedFactors, ShardedULVSolver
from repro.krr import KernelRidgeClassifier, OneVsAllClassifier
from repro.krr.solvers import HSSSolver
from repro.serving import ModelStore, PredictionEngine, read_artifact
from repro.serving.serialize import FORMAT_VERSION

#: tight compression tolerance, as in tests/test_distributed.py: keeps the
#: sharded-vs-serial deviation far below the decision margins
TIGHT = HSSOptions(rel_tol=1e-6, initial_samples=48)

_SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


@pytest.fixture(scope="module")
def problem():
    return load_dataset("susy", n_train=384, n_test=96, seed=0)


@pytest.fixture(scope="module")
def sharded_model(problem):
    clf = KernelRidgeClassifier(h=problem.h, lam=problem.lam, solver="hss",
                                shards=2, seed=0,
                                solver_options={"hss_options": TIGHT})
    clf.fit(problem.X_train, problem.y_train)
    return clf


@pytest.fixture(scope="module")
def serial_reference(problem, sharded_model):
    """Serial HSS solve of the same permuted system, for tolerance checks."""
    solver = HSSSolver(hss_options=TIGHT, seed=0)
    solver.fit(sharded_model.X_train_, sharded_model.clustering_.tree,
               sharded_model.kernel, sharded_model.lam)
    return solver


def test_sharded_artifact_schema(tmp_path, sharded_model):
    store = ModelStore(tmp_path)
    record = store.save(sharded_model, "susy-sharded")
    assert record.version == FORMAT_VERSION == 6
    artifact = read_artifact(record.archive_path)
    assert artifact.version == 6
    assert artifact.config["solver_state"] == "sharded"
    assert artifact.config["shards"] == 2


def test_sharded_section_is_the_documented_layout(tmp_path, sharded_model):
    """The ``dist.*`` keys of a freshly saved ``shards=2`` archive are the
    rows of the "Sharded section" table of ``docs/serving.md`` — every
    key documented, every documented row present."""
    with open(os.path.join(os.path.dirname(_SRC_DIR), "docs", "serving.md"),
              encoding="utf-8") as fh:
        section = fh.read().split("### Sharded section (`dist.*`)")[1]
    table = section.split("\n\n")[2]
    documented = re.findall(r"`(dist\.[^`]+)`", "".join(
        line.split("|")[1] for line in table.splitlines()[2:]))
    patterns = [re.compile(re.escape(name).replace("<s>", r"[01]")
                           .replace(r"\.\*", r"\..+") + "$")
                for name in documented]
    assert len(patterns) == 10

    record = ModelStore(tmp_path).save(sharded_model, "layout")
    with np.load(record.archive_path, allow_pickle=False) as npz:
        key_list = bytes(npz["__keys__"]).decode("utf-8").split("\n")
    keys = [key for key in key_list[1:] if key.startswith("dist.")]
    assert keys
    for key in keys:
        assert any(p.match(key) for p in patterns), f"undocumented {key}"
    for name, p in zip(documented, patterns):
        assert any(p.match(key) for key in keys), f"no key for {name}"


def test_unsharded_artifacts_carry_the_same_version(tmp_path, problem):
    """One writer, one container: a model without a ``dist.*`` section is
    stamped with the same version as a sharded one."""
    # shards=1 pinned explicitly so the CI REPRO_SHARDS=2 leg still
    # exercises the single-process save path here.
    clf = KernelRidgeClassifier(h=problem.h, lam=problem.lam, solver="hss",
                                seed=0, shards=1,
                                solver_options={"hss_options": TIGHT})
    clf.fit(problem.X_train, problem.y_train)
    record = ModelStore(tmp_path).save(clf, "plain-hss")
    assert record.version == FORMAT_VERSION
    assert read_artifact(record.archive_path).version == FORMAT_VERSION


def test_fresh_process_load_and_resolve(tmp_path, problem, sharded_model,
                                        serial_reference):
    """Save, load in a *fresh* interpreter, solve a brand-new RHS there."""
    store = ModelStore(tmp_path)
    store.save(sharded_model, "susy-sharded")
    rhs = np.random.default_rng(42).standard_normal(
        problem.X_train.shape[0])
    np.save(tmp_path / "rhs.npy", rhs)
    np.save(tmp_path / "queries.npy", problem.X_test)

    script = textwrap.dedent("""
        import sys
        import numpy as np
        from repro.serving import ModelStore

        root, out = sys.argv[1], sys.argv[2]
        store = ModelStore(root)
        model = store.load("susy-sharded")
        rhs = np.load(f"{root}/rhs.npy")
        np.savez(out,
                 w=model.solver_.solve(rhs),
                 labels=model.predict(np.load(f"{root}/queries.npy")),
                 solver=type(model.solver_).__name__)
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    out_path = tmp_path / "fresh.npz"
    result = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path), str(out_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, (
        f"fresh-process load failed:\n{result.stderr}")

    with np.load(out_path) as npz:
        assert str(npz["solver"]) == "ShardedULVSolver"
        w_fresh = npz["w"]
        labels_fresh = npz["labels"]
    # Predictions are bitwise identical across the process boundary.
    assert np.array_equal(labels_fresh,
                          sharded_model.predict(problem.X_test))
    # A new RHS solved in the fresh process matches the serial solver
    # within the (tight) compression tolerance.
    w_serial = serial_reference.solve(rhs)
    rel = np.linalg.norm(w_fresh - w_serial) / np.linalg.norm(w_serial)
    assert rel < 5e-3, f"fresh-process re-solve deviates by {rel:.2e}"
    # ... and reproduces the training session's own in-process factors.
    assert np.allclose(w_fresh, sharded_model.solver_.solve(rhs),
                       rtol=1e-12, atol=1e-12)


def test_reloaded_factorizations_carry_the_model_lambda(tmp_path, problem,
                                                       sharded_model):
    """A restored ULV factorization knows the shift it is at, as a fitted
    one does: the ``hss`` model's and every shard's of a ``shards=2``
    model, fitted and reloaded (the level schedule stays lazy on load)."""
    lam = problem.lam
    hss_model = KernelRidgeClassifier(h=problem.h, lam=lam, solver="hss",
                                      seed=0, shards=1,
                                      solver_options={"hss_options": TIGHT})
    hss_model.fit(problem.X_train[:128], problem.y_train[:128])
    store = ModelStore(tmp_path)
    store.save(hss_model, "hss")
    store.save(sharded_model, "sharded")
    loaded = store.load("hss").solver_.factorization_
    assert loaded.lam == hss_model.solver_.factorization_.lam == lam
    assert getattr(loaded, "_levels", None) is None
    fitted = sharded_model.solver_.factors.shards
    reloaded = store.load("sharded").solver_.factors.shards
    assert len(fitted) == len(reloaded) == 2
    assert [s.ulv.lam for s in fitted + reloaded] == [lam] * 4


def test_reload_solves_bitwise_like_the_fitted_model(tmp_path, problem,
                                                    sharded_model):
    """reload = original, for the solver too: the fitted model and its
    reload solve on the same in-process shard kernels, so a 3-column solve
    agrees bitwise."""
    store = ModelStore(tmp_path)
    store.save(sharded_model, "bitwise")
    loaded = store.load("bitwise")
    Y = np.random.default_rng(47).standard_normal(
        (problem.X_train.shape[0], 3))
    np.testing.assert_array_equal(loaded.solver_.solve(Y),
                                  sharded_model.solver_.solve(Y))


def test_refactor_on_load_is_the_stored_factorization(problem, sharded_model):
    """Factoring every shard cold from its stored HSS matrix — what a
    schema 1-5 artifact gets on load — gives the stored factors, bitwise:
    the same capacitance matrix and the same solves."""
    arrays = sharded_model.solver_.factors.to_arrays()
    tree = sharded_model.clustering_.tree
    stored = ShardedULVSolver(
        ShardedFactors.from_arrays(arrays, tree, problem.lam))
    fresh = ShardedULVSolver(ShardedFactors.from_arrays(
        arrays, tree, problem.lam, refactor=True))
    assert fresh.factors.C is None
    fresh.couple()
    np.testing.assert_array_equal(fresh.factors.C, stored.factors.C)
    rhs = np.random.default_rng(53).standard_normal(
        (problem.X_train.shape[0], 2))
    np.testing.assert_array_equal(fresh.solve(rhs), stored.solve(rhs))


def test_loaded_solver_roundtrips_again(tmp_path, problem, sharded_model):
    """load -> re-save -> load keeps the sharded solver fully functional."""
    store = ModelStore(tmp_path)
    store.save(sharded_model, "gen0")
    gen1 = store.load("gen0")
    assert isinstance(gen1.solver_, ShardedULVSolver)
    store.save(gen1, "gen1")
    gen2 = store.load("gen1")
    assert isinstance(gen2.solver_, ShardedULVSolver)
    rhs = np.random.default_rng(3).standard_normal(problem.X_train.shape[0])
    assert np.array_equal(gen1.solver_.solve(rhs), gen2.solver_.solve(rhs))
    assert np.array_equal(gen1.predict(problem.X_test),
                          gen2.predict(problem.X_test))


def test_loaded_model_drives_sharded_service(tmp_path, problem, sharded_model):
    """A reloaded sharded model serves through the one engine, scoring
    bitwise like the live model at equal chunk size."""
    store = ModelStore(tmp_path)
    store.save(sharded_model, "served")
    loaded = store.load("served")
    assert loaded.solver_.plan_.n_shards == 2
    with PredictionEngine(loaded, batch_size=64) as svc:
        labels = svc.predict_many(problem.X_test)
        scores = svc.decision_many(problem.X_test)
    assert np.array_equal(labels, sharded_model.predict(problem.X_test))
    assert np.array_equal(scores, sharded_model.decision_function(
        problem.X_test, block_size=64))


def test_restored_solver_rejects_refit(tmp_path, problem, sharded_model):
    store = ModelStore(tmp_path)
    store.save(sharded_model, "frozen")
    loaded = store.load("frozen")
    with pytest.raises(RuntimeError, match="cannot.*refit"):
        loaded.solver_.fit(loaded.X_train_, loaded.clustering_.tree,
                           loaded.kernel, loaded.lam)


def test_sharded_artifact_reload_then_refit(tmp_path, problem, sharded_model):
    """A reloaded ``shards=2`` model re-factors at a new λ offline: the
    persisted λ-free per-shard compressions are ULV-refactored in-process
    and the result equals a cold sharded fit at that λ (bitwise — the
    collected factors are the cold fit's factors)."""
    store = ModelStore(tmp_path)
    store.save(sharded_model, "refit-me")
    loaded = store.load("refit-me")
    assert isinstance(loaded.solver_, ShardedULVSolver)
    assert loaded.solver_.factors.hss_lam_free
    new_lam = 2.0 * problem.lam
    loaded.refit(new_lam)
    assert loaded.lam == new_lam

    cold = KernelRidgeClassifier(h=problem.h, lam=new_lam, solver="hss",
                                 shards=2, seed=0,
                                 solver_options={"hss_options": TIGHT})
    cold.fit(problem.X_train, problem.y_train)
    np.testing.assert_array_equal(loaded.weights_, cold.weights_)

    # The refitted model re-saves consistently (refit keeps the persisted
    # ULV payload and capacitance matrix in sync).
    store.save(loaded, "refit-me-2")
    again = store.load("refit-me-2")
    np.testing.assert_array_equal(again.weights_, loaded.weights_)
    rhs = np.random.default_rng(23).standard_normal(
        problem.X_train.shape[0])
    np.testing.assert_array_equal(again.solver_.solve(rhs),
                                  loaded.solver_.solve(rhs))


def test_legacy_sharded_artifact_refuses_refit(tmp_path, sharded_model):
    """Artifacts without the λ-free marker (older writers) load and solve
    fine but refuse λ-only refits instead of double-shifting."""
    store = ModelStore(tmp_path)
    store.save(sharded_model, "legacy")
    loaded = store.load("legacy")
    loaded.solver_.factors.hss_lam_free = False  # simulate an old artifact
    with pytest.raises(RuntimeError, match="predates"):
        loaded.refit(1.0)


def test_failed_refit_state_is_never_persisted(tmp_path, sharded_model):
    """A ShardedULVSolver whose refit failed mid-way (_fitted=False, shards
    potentially at mixed λ) must refuse solves and must not ship its
    factors into an artifact."""
    store = ModelStore(tmp_path)
    store.save(sharded_model, "pre-fail")
    loaded = store.load("pre-fail")
    loaded.solver_._fitted = False  # what a mid-refit failure leaves behind
    with pytest.raises(RuntimeError, match="fitted"):
        loaded.solver_.solve(np.ones(loaded.X_train_.shape[0]))
    store.save(loaded, "post-fail")
    reloaded = store.load("post-fail")
    # Predictions (weights) survive; the inconsistent factorization does not.
    assert reloaded.solver_ is None
    np.testing.assert_array_equal(reloaded.weights_, loaded.weights_)


def test_multiclass_sharded_persistence(tmp_path, problem):
    """One-vs-all (multi-RHS distributed solve) persists and re-solves."""
    y_mc = ((problem.y_train > 0).astype(int)
            + (problem.X_train[:, 0] > 0).astype(int))
    ova = OneVsAllClassifier(h=problem.h, lam=problem.lam, solver="hss",
                             shards=2, seed=0,
                             solver_options={"hss_options": TIGHT})
    ova.fit(problem.X_train, y_mc)
    assert ova.weights_.shape == (problem.X_train.shape[0], ova.classes_.size)
    store = ModelStore(tmp_path)
    record = store.save(ova, "ova-sharded")
    assert record.version == FORMAT_VERSION
    loaded = store.load("ova-sharded")
    assert isinstance(loaded.solver_, ShardedULVSolver)
    assert np.array_equal(loaded.predict(problem.X_test),
                          ova.predict(problem.X_test))
    Y = np.random.default_rng(9).standard_normal(
        (problem.X_train.shape[0], 3))
    W = loaded.solver_.solve(Y)
    assert W.shape == Y.shape
    # The multi-RHS solve decomposes column-wise like the live solver's.
    assert np.allclose(W[:, 0], loaded.solver_.solve(Y[:, 0]),
                       rtol=1e-10, atol=1e-12)

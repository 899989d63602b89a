"""Artifacts written before the current schema still load.

``tests/data/legacy_<model>.npz`` were written by the last commit whose
writer stored one zip member per array (schema versions 1 and 2),
``tests/data/legacy_v3_<model>.npz`` are the same models saved again by
the last writer of the JSON-indexed container (schema version 3),
``tests/data/legacy_v4_<model>.npz`` by the last writer that stored the
per-node ``V`` / ``B21`` / ``col_skeleton`` copies of the symmetric HSS
format (schema version 4), ``tests/data/legacy_v5_<model>.npz`` by the
last writer of the general ULV factors (schema version 5),
``tests/data/legacy_v6_<model>.npz`` by the last writer of the
``row_skeleton`` indices and the λ-free markers (schema version 6) and
``tests/data/legacy_v7_<model>.npz`` by the last writer whose header
named the fitted solver's class instead of its recipe (schema version 7;
see ``tests/data/make_legacy_artifacts.py`` for how).  They are the users of
the reader's ``version <= 2`` and ``version == 3`` containers and of
every step of its one upgrade chain: each loads with its checksum
verified and every stored copy checked against what it copies, factors
its stored HSS matrix again instead of reading the general ULV factors,
predicts what its writer predicted, re-saves as a version-8 archive whose
checksum the docs recipe recomputes, and takes every lifecycle verb a
freshly saved model takes — a ``refit`` from the factors it was loaded
with included.  Every generation of a model upgrades to the arrays of its
newest one, and the upgrade is what the current writer saves for the
loaded model.  An old archive whose copy is not a copy, or whose header
stamps a version no writer stamped, raises :class:`ArtifactError`; one
whose generators have the ridge shift baked in loads as the λ-free model
it stands for.
"""

from __future__ import annotations

import os
import re
import zipfile

import numpy as np
import pytest
from conftest import cold_refactor, docs_recipe

from repro.datasets import gaussian_mixture
from repro.distributed import DistributedSolver
from repro.hss import ULVFactorization
from repro.krr import KernelRidgeClassifier
from repro.krr.solvers import build_training_solver
from repro.serving import ArtifactError, load_model, read_artifact
from repro.serving.serialize import (FORMAT_VERSION, _options_to_json,
                                     _read_archive, _upgrade, _write_archive)

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
MODELS = ("hss", "dense", "ova", "sharded", "midstream")
#: fixture name (``legacy_<name>.npz``) -> (model, schema version its
#: writer stamped)
FIXTURES = {"hss": ("hss", 1), "dense": ("dense", 1), "ova": ("ova", 1),
            "sharded": ("sharded", 2), "midstream": ("midstream", 1),
            **{f"v{version}_{model}": (model, version)
               for version in (3, 4, 5, 6, 7) for model in MODELS}}
#: the per-node copies schema versions 1-4 stored
COPIES = ("V", "B21", "col_skeleton")
#: keys of the general ULV factors schema versions 1-5 stored, and no
#: later one does
GENERAL_ULV = ("q", "lower", "d_hat1", "d_hat2", "g1", "g2", "root_size",
               "root_lu", "root_piv")


@pytest.fixture(scope="module")
def expected():
    with np.load(os.path.join(DATA, "expected.npz")) as npz:
        return {key: npz[key] for key in npz.files}


def _load(name):
    return load_model(os.path.join(DATA, f"legacy_{name}.npz"))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_loads_predicts_and_resaves_as_the_current_version(
        name, expected, tmp_path, monkeypatch):
    model_name, version = FIXTURES[name]
    source = os.path.join(DATA, f"legacy_{name}.npz")
    old = read_artifact(source)
    assert old.version == version
    with zipfile.ZipFile(source) as zf:
        if version <= 2:
            assert len(zf.namelist()) > 4  # one member per array
        elif version == 3:
            assert sorted(zf.namelist()) == [
                "__artifact__.npy", "__index__.npy", "__payload__.npy"]
        else:
            assert len(zf.namelist()) == 4
    _, stored = _read_archive(source)
    if model_name != "dense":
        assert any(key.endswith(".V") for key in stored) == (version <= 4)
        assert any(key.endswith(".g2") for key in stored) == (version <= 5)
        assert any(key.endswith(".row_skeleton") for key in stored) \
            == (version <= 6)

    model = load_model(source)
    queries = expected["queries"]
    assert np.array_equal(model.weights_, expected[f"weights.{model_name}"])
    decision = model.decision_function(queries)
    # The recorded values crossed another host's BLAS and exp(); what is
    # bitwise here is the weights above and the two readers below.
    np.testing.assert_allclose(decision, expected[f"decision.{model_name}"],
                               rtol=1e-9, atol=1e-12)

    path = str(tmp_path / "model.npz")
    new = model.save(path)
    assert new.version == FORMAT_VERSION == 8
    _, resaved = _read_archive(path)
    assert not [key for key in resaved if key.rpartition(".")[2]
                in COPIES + GENERAL_ULV + ("row_skeleton", "lam_free")]
    assert "hss_lam_free" not in new.config
    if model_name != "dense":
        assert any(key.endswith(".w") for key in resaved)
    # The version-4 digest covers the layout, so it is not the old one;
    # it is a function of the model: saving the reloaded re-save again
    # reproduces it, and the docs recipe recomputes it.
    again_path = str(tmp_path / "again.npz")
    assert load_model(path).save(again_path).checksum == new.checksum
    monkeypatch.chdir(tmp_path)  # the recipe opens "model.npz"
    scope = {}
    exec(compile(docs_recipe(), "docs/serving.md", "exec"), scope)
    assert scope["digest"].hexdigest() == new.checksum
    assert new.config["solver_state"] == old.config["solver_state"]
    with zipfile.ZipFile(path) as zf:
        assert len(zf.namelist()) == 4
    again = load_model(path)
    assert np.array_equal(again.weights_, model.weights_)
    assert np.array_equal(again.X_train_, model.X_train_)
    assert np.array_equal(again.decision_function(queries), decision)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_lifecycle_verbs_work_on_the_loaded_model(name, expected):
    model_name = FIXTURES[name][0]
    extra_X = expected["extra_X"][4:]
    extra_y = np.array([0, 1, 2, 1]) if model_name == "ova" \
        else expected["extra_y"][4:]

    model = _load(name)
    original, n = model.weights_.copy(), model.X_train_.shape[0]
    model.refit(2.0)
    assert model.lam == 2.0 and not np.array_equal(model.weights_, original)
    model.refit(1.0)
    np.testing.assert_allclose(model.weights_, original, rtol=1e-9,
                               atol=1e-12)

    model = _load(name)
    model.partial_fit(extra_X, extra_y, remove=[0])
    assert model.X_train_.shape[0] == n + 3
    assert model.weights_.shape[0] == n + 3
    assert np.all(np.isfinite(model.weights_))

    model = _load(name)
    if model_name == "midstream":
        # The refusal a fresh artifact of the same kind gives: Woodbury
        # corrections do not survive a kernel change.
        with pytest.raises(RuntimeError, match="recompress"):
            model.refit_kernel(1.2)
    else:
        model.refit_kernel(1.2)
        assert model.h == 1.2 and np.all(np.isfinite(model.weights_))
        assert not np.array_equal(model.weights_, original)


@pytest.mark.parametrize("name", ["hss", "ova", "sharded", "midstream",
                                  "v3_hss", "v3_sharded", "v4_hss",
                                  "v4_sharded", "v5_hss", "v5_sharded",
                                  "v6_hss", "v6_sharded", "v7_hss",
                                  "v7_sharded"])
def test_refit_from_the_stored_factors_is_bitwise_a_cold_factorization(
        name, monkeypatch):
    """The λ-free half of the factors a legacy archive loads with is the
    cold one."""
    warm, cold = _load(name), _load(name)
    warm.refit(2.0)
    with monkeypatch.context() as patch:
        patch.setattr(ULVFactorization, "refactor", cold_refactor)
        cold.refit(2.0)
    assert np.array_equal(warm.weights_, cold.weights_)
    assert not np.array_equal(warm.weights_, _load(name).weights_)


@pytest.fixture(scope="module")
def sharded_h_move():
    """The weights of the fixtures' ``shards=2`` model, trained again on
    its writer's training set and moved to ``h = 1.1``."""
    X, y = gaussian_mixture(n=64, d=3, seed=0)
    return KernelRidgeClassifier(
        h=1.0, lam=1.0, solver="hss", shards=2, clustering="two_means",
        leaf_size=24, seed=0).fit(X, y).refit_kernel(1.1).weights_


@pytest.mark.parametrize("name", ["sharded"] + [
    f"v{version}_sharded" for version in (3, 4, 5, 6, 7)])
def test_a_sharded_archive_recompresses_to_a_cold_sharded_fit(
        name, sharded_h_move):
    """An old header named the restoring class (``sharded``) or the
    training one (``distributed``); the upgrade makes it the ``hss`` recipe
    on the stored two shards, so ``recompress`` is the cold ``shards=2``
    fit on the model's own training rows, and ``refit_kernel`` the h-move
    of the model its writer saved."""
    model = _load(name)
    assert (model._solver_spec, model.shards) == ("hss", 2)
    X, labels = model.X_train_.copy(), model._targets_perm.copy()
    model.recompress()
    cold = KernelRidgeClassifier(
        h=model.h, lam=model.lam, solver="hss", shards=2,
        clustering=model.clustering_options, seed=model.seed).fit(X, labels)
    assert isinstance(model.solver_, DistributedSolver)
    assert model.solver_.plan_.n_shards == 2
    np.testing.assert_array_equal(model.weights_, cold.weights_)

    model = _load(name).refit_kernel(1.1)
    assert isinstance(model.solver_, DistributedSolver)
    np.testing.assert_array_equal(model.weights_, sharded_h_move)


def test_a_version_7_cg_header_keeps_its_options(tmp_path):
    """A version-7 CG header stored its tolerance as ``cg_tol`` /
    ``cg_max_iter`` extras: the upgrade makes them the recipe's options,
    so a reload's ``recompress`` solves at that tolerance, like the
    never-saved model."""
    X = _load("v7_hss").X_train_
    y = np.where(X[:, 0] > 0, 1.0, -1.0)
    model = KernelRidgeClassifier(h=1.0, lam=1.0, solver="cg", shards=1,
                                  seed=0, solver_options={"tol": 1e-2})
    model.fit(X, y)
    path = str(tmp_path / "model.npz")
    header, arrays = _read_archive(model.save(path).path)
    config = dict(header["config"])
    del config["shards"], config["solver_options"]
    config.update(cg_tol=1e-2, cg_max_iter=None)
    _write_archive(path, {**header, "version": 7, "config": config}, arrays)

    loaded = load_model(path)
    assert loaded._solver_options == {"tol": 1e-2, "max_iter": None}
    loaded.recompress()
    assert loaded.solver_.tol == 1e-2
    np.testing.assert_array_equal(loaded.weights_,
                                  model.recompress().weights_)


@pytest.mark.parametrize("copy", COPIES)
@pytest.mark.parametrize("name", ["v4_hss", "v4_sharded"])
def test_a_stored_copy_that_differs_raises_artifact_error(name, copy,
                                                          tmp_path):
    """An old archive whose ``V`` / ``B21`` / ``col_skeleton`` is not a
    copy of ``U`` / ``B12^T`` / ``row_skeleton`` holds a matrix the
    symmetric format cannot represent: re-packed with one entry changed
    and the checksum stamped afresh, it fails to load, typed."""
    header, arrays = _read_archive(os.path.join(DATA, f"legacy_{name}.npz"))
    key = next(key for key, a in arrays.items()
               if key.rpartition(".")[2] == copy and a.size)
    changed = arrays[key].copy()
    changed.reshape(-1)[0] += 1
    arrays = {**arrays, key: changed}
    path = str(tmp_path / "model.npz")
    _write_archive(path, header, arrays)
    assert read_artifact(path).version == FIXTURES[name][1]
    # A shard's section is read under its own "hss." prefix.
    node_key = key[key.index("hss."):]
    with pytest.raises(ArtifactError, match=f"{node_key} is not a copy"):
        load_model(path)


def _same_arrays(got, want):
    """Key for key and bit for bit (dtype and shape included)."""
    assert sorted(got) == sorted(want)
    for key, a in got.items():
        b = want[key]
        assert a.dtype == b.dtype and a.shape == b.shape, key
        assert np.ascontiguousarray(a).tobytes() \
            == np.ascontiguousarray(b).tobytes(), key


def _upgraded(name):
    path = os.path.join(DATA, f"legacy_{name}.npz")
    return _upgrade(path, *_read_archive(path))


@pytest.mark.parametrize("model_name", MODELS)
def test_every_generation_upgrades_to_the_newest_ones_arrays(model_name):
    """Each fixture of a generation was its predecessor loaded and saved
    again, so the upgrade chain from any of them ends at the arrays the
    version-7 fixture upgrades to: copies dropped, the same ULV factors
    and capacitance matrix, bitwise."""
    _, newest = _upgraded(f"v7_{model_name}")
    for prefix in ("", "v3_", "v4_", "v5_", "v6_"):
        _, arrays = _upgraded(prefix + model_name)
        _same_arrays(arrays, newest)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_the_upgrade_is_what_the_writer_saves_for_the_loaded_model(
        name, tmp_path):
    """The upgraded config and arrays are, key for key and bit for bit,
    those a version-8 save of the loaded model writes — but for the
    ``solver_options``: an old header stored no compression options, so
    the upgrade gives ``{}`` and the re-save stores the options that
    ``{}`` builds, the defaults, in full."""
    header, arrays = _upgraded(name)
    assert header["version"] == FORMAT_VERSION
    path = str(tmp_path / "model.npz")
    load_model(os.path.join(DATA, f"legacy_{name}.npz")).save(path)
    saved_header, saved = _read_archive(path)
    config = dict(header["config"])
    saved_config = dict(saved_header["config"])
    assert config.pop("solver_options") == {}
    options = saved_config.pop("solver_options")
    assert config == saved_config
    _same_arrays(arrays, saved)
    n_shards = 2 if FIXTURES[name][0] == "sharded" else 1
    assert (config["solver"], config["shards"]) == (
        "dense" if FIXTURES[name][0] == "dense" else "hss", n_shards)
    default = build_training_solver(config["solver"], shards=n_shards)
    assert options == _options_to_json(default.recipe()[2])


@pytest.mark.parametrize("model_name", ["hss", "ova", "sharded"])
def test_a_baked_shift_archive_loads_as_its_lam_free_model(model_name,
                                                           tmp_path):
    """Writers before the λ-free compression stored ``K~ + lam I``: the
    same archive with lam added to the diagonal of every leaf ``D`` and
    no λ-free marker.  It loads as the λ-free model — it solves within
    1e-12 of the source and refits like it."""
    source = os.path.join(DATA, f"legacy_v5_{model_name}.npz")
    header, arrays = _read_archive(source)
    config = dict(header["config"])
    lam = float(config["lam"])
    config.pop("hss_lam_free", None)
    baked = {key: a for key, a in arrays.items() if key != "dist.lam_free"}
    leaves = [key for key in baked
              if key.endswith(".D") and ("hss." in key)]
    assert leaves
    for key in leaves:
        D = baked[key].copy()
        D[np.diag_indices_from(D)] += lam
        baked[key] = D
    path = str(tmp_path / "baked.npz")
    _write_archive(path, {**header, "config": config}, baked)

    want, got = load_model(source), load_model(path)
    targets = want._targets_perm
    expected = want.solver_.solve(targets)
    solved = got.solver_.solve(targets)
    assert np.linalg.norm(solved - expected) \
        <= 1e-12 * np.linalg.norm(expected)
    want.refit(2.0)
    got.refit(2.0)
    np.testing.assert_allclose(got.weights_, want.weights_, rtol=1e-10,
                               atol=1e-12)


@pytest.mark.parametrize("version", [None, 0, -3, 6.5, True,
                                     FORMAT_VERSION + 1],
                         ids=["missing", "zero", "negative", "float",
                              "bool", "newer"])
def test_a_version_no_writer_stamped_raises_artifact_error(version,
                                                           tmp_path):
    """The header's version picks the container and the upgrade steps,
    so only an ``int`` in 1..FORMAT_VERSION is one: anything else is named
    by ``read_artifact`` and ``load_model`` alike, instead of an intact
    payload failing its checksum or its ULV read."""
    header, arrays = _read_archive(
        os.path.join(DATA, "legacy_v5_hss.npz"))
    header = dict(header)
    if version is None:
        del header["version"]
    else:
        header["version"] = version
    path = str(tmp_path / "model.npz")
    _write_archive(path, header, arrays)
    message = f"schema version {version!r};"
    with pytest.raises(ArtifactError, match=re.escape(message)):
        read_artifact(path)
    with pytest.raises(ArtifactError, match=re.escape(message)):
        load_model(path)

"""Artifacts written before the packed container still load.

``tests/data/legacy_*.npz`` were written by the last commit whose writer
stored one zip member per array (schema versions 1 and 2; see
``tests/data/make_legacy_artifacts.py`` for how).  They are the user of the
reader's ``version <= 2`` path: each loads with its checksum verified,
predicts what its writer predicted, re-saves as a version-3 archive with an
unchanged checksum, and takes every lifecycle verb a freshly saved model
takes — a ``refit`` from the factors it was stored with included.
"""

from __future__ import annotations

import os
import zipfile

import numpy as np
import pytest
from conftest import cold_refactor

from repro.hss import ULVFactorization
from repro.serving import load_model, read_artifact
from repro.serving.serialize import FORMAT_VERSION

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
#: fixture name -> schema version its writer stamped
FIXTURES = {"hss": 1, "dense": 1, "ova": 1, "sharded": 2, "midstream": 1}


@pytest.fixture(scope="module")
def expected():
    with np.load(os.path.join(DATA, "expected.npz")) as npz:
        return {key: npz[key] for key in npz.files}


def _load(name):
    return load_model(os.path.join(DATA, f"legacy_{name}.npz"))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_loads_predicts_and_resaves_with_the_same_checksum(name, expected,
                                                           tmp_path):
    source = os.path.join(DATA, f"legacy_{name}.npz")
    old = read_artifact(source)
    assert old.version == FIXTURES[name]
    with zipfile.ZipFile(source) as zf:
        assert len(zf.namelist()) > 3  # one member per array

    model = load_model(source)
    queries = expected["queries"]
    assert np.array_equal(model.weights_, expected[f"weights.{name}"])
    decision = model.decision_function(queries)
    # The recorded values crossed another host's BLAS and exp(); what is
    # bitwise here is the weights above and the two readers below.
    np.testing.assert_allclose(decision, expected[f"decision.{name}"],
                               rtol=1e-9, atol=1e-12)

    path = str(tmp_path / "resaved.npz")
    new = model.save(path)
    assert new.version == FORMAT_VERSION == 3
    assert new.checksum == old.checksum
    assert new.config["solver_state"] == old.config["solver_state"]
    with zipfile.ZipFile(path) as zf:
        assert len(zf.namelist()) == 3
    again = load_model(path)
    assert np.array_equal(again.weights_, model.weights_)
    assert np.array_equal(again.X_train_, model.X_train_)
    assert np.array_equal(again.decision_function(queries), decision)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_lifecycle_verbs_work_on_the_loaded_model(name, expected):
    extra_X = expected["extra_X"][4:]
    extra_y = np.array([0, 1, 2, 1]) if name == "ova" \
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
    if name in ("sharded", "midstream"):
        # The refusals a fresh artifact of the same kind gives: restored
        # per-shard factors cannot be re-fitted from data, and Woodbury
        # corrections do not survive a kernel change.
        with pytest.raises(RuntimeError, match="cannot be fitted|recompress"):
            model.refit_kernel(1.2)
    else:
        model.refit_kernel(1.2)
        assert model.h == 1.2 and np.all(np.isfinite(model.weights_))
        assert not np.array_equal(model.weights_, original)


@pytest.mark.parametrize("name", ["hss", "ova", "sharded", "midstream"])
def test_refit_from_the_stored_factors_is_bitwise_a_cold_factorization(
        name, monkeypatch):
    """The λ-free half read back from a legacy archive is the cold one."""
    warm, cold = _load(name), _load(name)
    warm.refit(2.0)
    with monkeypatch.context() as patch:
        patch.setattr(ULVFactorization, "refactor", cold_refactor)
        cold.refit(2.0)
    assert np.array_equal(warm.weights_, cold.weights_)
    assert not np.array_equal(warm.weights_, _load(name).weights_)

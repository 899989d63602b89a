"""The (h, λ) tuning fabric: h-moves, batched factorization, CV.

Pins the contracts of ``docs/tuning.md`` (the h-move itself — a fit on
the retained tree with the block cluster tree reused, bitwise a cold
build, serially and on a warm ``shards = 2`` grid — is pinned by
``tests/test_lifecycle_contract.py``):

* an h-move after an artifact reload rides a cold compression on the
  restored tree and still equals a cold fit bitwise;
* ``ULVFactorization.refactor`` — the λ-free half taken by reference from
  resident factors — is bitwise a cold ``factor`` at every shift of a
  chain, so are ``factor_many`` and sequential ``refit`` calls, and a
  refit costs well under the calls it cost before the factors were reused;
* ``KRRObjective(cv=K)``'s fold-removal multi-RHS solves agree with
  per-fold cold fits;
* ``KRRObjective`` drives ``KernelRidgeClassifier``'s verbs: the
  searchers classify moves (``cold`` / ``h_move`` / ``lam_move``) and
  every objective value, held-out or ``cv = 3``, dense or hss, at cache
  size 1 or 2, is bitwise the cold evaluation at the same ``(h, λ)``.
"""

from __future__ import annotations

import cProfile
import pstats

import numpy as np
import pytest
from conftest import assert_same_arrays

from repro.clustering import cluster
from repro.datasets import gaussian_mixture
from repro.hss import ULVFactorization, compress_kernel
from repro.kernels import GaussianKernel
from repro.krr import KernelRidgeClassifier
from repro.krr.solvers import HSSSolver
from repro.tuning import (GridSearch, KRRObjective, ParameterSpace,
                          RandomSearch, order_lam_fastest)

_FACTOR_ARRAYS = ("omega", "u_hat", "lu", "piv", "w")


@pytest.fixture(scope="module")
def data():
    X, y = gaussian_mixture(n=260, d=3, n_components=4, separation=3.0,
                            noise=0.7, seed=0)
    return X, y


@pytest.fixture(scope="module")
def compressed_pair(data):
    """(clustering, cold compression at h=1) shared by the bitwise tests."""
    X, _ = data
    clustering = cluster(X, method="two_means", leaf_size=16, seed=0)
    compressed = compress_kernel(clustering.X, clustering.tree,
                                 GaussianKernel(h=1.0), seed=0)
    return clustering, compressed


# ---------------------------------------------------------------------------
# h-move after a reload: bitwise identical to a cold fit
# ---------------------------------------------------------------------------

class TestReloadedKernelMove:
    def test_refit_kernel_after_artifact_reload(self, tmp_path, data):
        X, y = data
        # shards=1 pins the single-process artifact format: a sharded
        # artifact reloads as the restored-only ShardedULVSolver, which
        # has no data pipeline to rebuild a new kernel from.
        clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="hss", seed=0,
                                    shards=1)
        clf.fit(X, y)
        clf.save(str(tmp_path / "model.npz"))
        loaded = KernelRidgeClassifier.load(str(tmp_path / "model.npz"))
        # artifacts do not persist the H matrix, so there is no block
        # tree to reuse: a cold compression on the restored tree, still
        # bitwise equal to a cold fit
        loaded.refit_kernel(2.3, lam=0.5)
        cold = KernelRidgeClassifier(h=2.3, lam=0.5, solver="hss", seed=0,
                                     shards=1)
        cold.fit(X, y)
        np.testing.assert_array_equal(loaded.weights_, cold.weights_)


# ---------------------------------------------------------------------------
# refactor / factor_many: bitwise a cold factor at every shift
# ---------------------------------------------------------------------------

def _assert_same_factorization(fac, ref, rhs):
    assert len(fac._factors) == len(ref._factors)
    for got, want in zip(fac._factors, ref._factors):
        assert (got.n_loc, got.n_elim) == (want.n_loc, want.n_elim)
        assert_same_arrays(got, want, _FACTOR_ARRAYS)
    for b in rhs:
        np.testing.assert_array_equal(fac.solve(b), ref.solve(b))


def _total_calls(fn) -> int:
    profile = cProfile.Profile()
    profile.enable()
    fn()
    profile.disable()
    return pstats.Stats(profile).total_calls


class TestFactorManyBitwise:
    LAMS = (0.25, 1.0, 4.0)

    def test_factor_many_equals_sequential(self, compressed_pair):
        clustering, compressed = compressed_pair
        batched = ULVFactorization.factor_many(compressed.hss, self.LAMS)
        rng = np.random.default_rng(11)
        b = rng.normal(size=(clustering.X.shape[0], 2))
        for lam, fac in zip(self.LAMS, batched):
            _assert_same_factorization(
                fac, ULVFactorization.factor(compressed.hss, lam=lam), [b])

    # a single-leaf tree is all root, a node of rank 0 like any other;
    # at h = 1e-3 the kernel matrix is the identity to working precision and
    # the row bases have no columns: the left transform is an identity
    @pytest.mark.parametrize("method, leaf_size, h", [
        ("two_means", 16, 1.0), ("natural", 16, 1.0), ("two_means", 512, 1.0),
        ("two_means", 16, 1e-3)])
    def test_refactor_chain_equals_cold_factor(self, data, method, leaf_size,
                                               h):
        X, _ = data
        clustering = cluster(X, method=method, leaf_size=leaf_size, seed=0)
        compressed = compress_kernel(clustering.X, clustering.tree,
                                     GaussianKernel(h=h), seed=0)
        root = clustering.tree.root
        rng = np.random.default_rng(5)
        rhs = [rng.normal(size=X.shape[0]), rng.normal(size=(X.shape[0], 4))]
        lam = 1.0
        resident = ULVFactorization.factor(compressed.hss, lam=lam)
        inner = [f for i, f in enumerate(resident._factors) if i != root]
        if leaf_size >= X.shape[0]:
            assert not inner
        elif h == 1.0:
            # nodes that eliminate nothing next to nodes that do
            assert {f.n_elim == 0 for f in inner} == {True, False}
        else:
            assert any(f.u_hat.shape[1] == 0 < f.n_elim for f in inner)
        for shift in (0.0, 0.5 * lam, 2.0 * lam):
            warm = resident.refactor(shift)
            assert warm.lam == shift and warm.hss is compressed.hss
            _assert_same_factorization(
                warm, ULVFactorization.factor(compressed.hss, lam=shift), rhs)
            # the λ-free half is the resident one, not a recomputation —
            # at the root too, an ordinary node of rank 0
            for new, old in zip(warm._factors, resident._factors):
                assert new.omega is old.omega and new.u_hat is old.u_hat
            resident = warm     # the next refit starts from this one

    def test_refactor_refuses_another_compression(self, compressed_pair):
        clustering, compressed = compressed_pair
        other = compress_kernel(clustering.X, clustering.tree,
                                GaussianKernel(h=1.0), seed=0)
        resident = ULVFactorization.factor(compressed.hss, lam=1.0)
        with pytest.raises(ValueError, match="different HSS matrix"):
            ULVFactorization(other.hss, lam=2.0, prior=resident)

    def test_sequential_refits_share_the_resident_half(self, data):
        X, y = data
        # shards=1 keeps the classifier on the in-process HSSSolver under
        # REPRO_SHARDS overrides.
        warm = KernelRidgeClassifier(h=1.0, lam=self.LAMS[0], solver="hss",
                                     seed=0, shards=1)
        warm.fit(X, y)
        for lam in self.LAMS[1:]:
            before = warm.solver_.factorization_
            warm.refit(lam)
            after = warm.solver_.factorization_
            assert after is not before and after.lam == lam
            assert all(new.omega is old.omega and new.u_hat is old.u_hat
                       for new, old in zip(after._factors, before._factors))
            np.testing.assert_array_equal(
                warm.weights_, _cold_weights(X, y, h=1.0, lam=lam))
        assert warm.solver_.compression_count == 1

    #: what one ``refit`` / one cold ``factor`` of the fixture below cost at
    #: the commit before refits reused the resident factors (cProfile's
    #: ``total_calls``; the count repeats exactly, a time would not)
    CALLS_BEFORE = {"refit": 25348, "factor": 16856}

    def test_refit_call_count_guard(self):
        X, y = gaussian_mixture(n=512, d=3, n_components=4, separation=3.0,
                                noise=0.7, seed=0)
        clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="hss",
                                    clustering="two_means", leaf_size=16,
                                    seed=0, shards=1).fit(X, y)
        hss = clf.solver_.hss_
        assert hss.tree.n_nodes == 99
        assert _total_calls(lambda: clf.refit(2.0)) \
            <= 0.65 * self.CALLS_BEFORE["refit"]
        assert _total_calls(lambda: ULVFactorization.factor(hss, lam=1.0)) \
            <= self.CALLS_BEFORE["factor"]


def _cold_weights(X, y, h, lam):
    clf = KernelRidgeClassifier(h=h, lam=lam, solver="hss", seed=0, shards=1)
    clf.fit(X, y)
    return clf.weights_


# ---------------------------------------------------------------------------
# k-fold CV as fold-removal multi-RHS solves
# ---------------------------------------------------------------------------

class TestCrossValidation:
    CV = 4

    def _reference_accuracy(self, X, y, h, lam, solver):
        """Pooled accuracy of per-fold cold fits (the semantic baseline)."""
        idx = np.arange(X.shape[0])
        preds = np.empty(X.shape[0])
        for fold in range(self.CV):
            mask = (idx % self.CV) == fold
            clf = KernelRidgeClassifier(h=h, lam=lam, solver=solver, seed=0)
            clf.fit(X[~mask], y[~mask])
            preds[mask] = clf.predict(X[mask])
        return float(np.mean(preds == y))

    def test_dense_cv_equals_per_fold_cold_fits(self, data):
        X, y = data
        objective = KRRObjective(X, y, X[:8], y[:8], solver="dense",
                                 cv=self.CV)
        acc = objective({"h": 1.0, "lam": 0.5})
        ref = self._reference_accuracy(X, y, 1.0, 0.5, "dense")
        assert acc == pytest.approx(ref, abs=1e-12)

    def test_hss_cv_close_to_per_fold_cold_fits(self, data):
        X, y = data
        with KRRObjective(X, y, X[:8], y[:8], solver="hss", leaf_size=16,
                          seed=0, cv=self.CV) as objective:
            acc = objective({"h": 1.0, "lam": 0.5})
            # λ-move on the shared factorization scores the same folds
            acc2 = objective({"h": 1.0, "lam": 2.0})
        ref = self._reference_accuracy(X, y, 1.0, 0.5, "dense")
        ref2 = self._reference_accuracy(X, y, 1.0, 2.0, "dense")
        assert acc == pytest.approx(ref, abs=0.05)
        assert acc2 == pytest.approx(ref2, abs=0.05)

    def test_cv_validation(self, data):
        X, y = data
        with pytest.raises(ValueError, match="cv"):
            KRRObjective(X, y, X[:8], y[:8], cv=0)
        with pytest.raises(ValueError, match="cv"):
            KRRObjective(X, y, X[:8], y[:8], cv=X.shape[0] + 1)


# ---------------------------------------------------------------------------
# move accounting: cheap paths never change the objective values
# ---------------------------------------------------------------------------

#: (h, λ) box of the 3 x 3 contract grid
_SPACE = ParameterSpace.krr_default(h_bounds=(0.5, 3.0),
                                    lam_bounds=(0.1, 2.0))
_GRID_MOVES = {1: {"cold": 1, "h_move": 2, "lam_move": 6},
               2: {"cold": 2, "h_move": 1, "lam_move": 6}}


@pytest.fixture(scope="module")
def val_data():
    return gaussian_mixture(n=60, d=3, n_components=4, separation=3.0,
                            noise=0.7, seed=1)


@pytest.fixture(scope="module")
def cold_values(data, val_data):
    """(solver, cv) -> [(h, λ, value)] of one cold evaluation per grid point.

    ``cv = 1``: the validation score of a ``KernelRidgeClassifier`` fitted
    at ``(h, λ)``.  ``cv = 3``: the fold scores of a fresh objective's
    first (cold) evaluation at ``(h, λ)``.
    """
    X, y = data
    X_val, y_val = val_data
    cache = {}

    def values(solver, cv):
        if (solver, cv) not in cache:
            out = []
            for config in order_lam_fastest(_SPACE.grid(3)):
                h, lam = config["h"], config["lam"]
                if cv == 1:
                    value = KernelRidgeClassifier(
                        h=h, lam=lam, solver=solver, leaf_size=16,
                        seed=0).fit(X, y).score(X_val, y_val)
                else:
                    fresh = KRRObjective(X, y, X_val, y_val, solver=solver,
                                         leaf_size=16, seed=0, cv=cv)
                    value = fresh(config)
                    assert fresh.last_move == "cold"
                out.append((h, lam, value))
            cache[solver, cv] = out
        return cache[solver, cv]

    return values


class TestMoveAccounting:
    @pytest.mark.parametrize("cache_size", [1, 2])
    @pytest.mark.parametrize("cv", [1, 3])
    @pytest.mark.parametrize("solver", ["dense", "hss"])
    def test_every_move_scores_the_cold_model(self, data, val_data,
                                              cold_values, solver, cv,
                                              cache_size):
        """A 3 x 3 grid through refit / refit_kernel / fit: every value is
        bitwise the cold evaluation at the same (h, λ), on both backends."""
        X, y = data
        X_val, y_val = val_data
        with KRRObjective(X, y, X_val, y_val, solver=solver, leaf_size=16,
                          seed=0, cv=cv, cache_size=cache_size) as objective:
            res = GridSearch(_SPACE, points_per_dim=3).optimize(objective)
            # evaluating the last point again refits the resident model
            again = objective({key: res.history[-1][key]
                               for key in ("h", "lam")})
            assert objective.last_move == "lam_move"
        assert again == res.history[-1]["objective"]
        # 3 x 3 grid, λ fastest: cold builds fill the cache, then h-moves
        assert res.moves == _GRID_MOVES[cache_size]
        assert [r.move for r in objective.records[:9]] == \
            [e["move"] for e in res.history]
        assert [(e["h"], e["lam"], e["objective"]) for e in res.history] == \
            cold_values(solver, cv)

    @pytest.mark.parametrize("solver", ["dense", "hss"])
    def test_a_lam_move_scores_without_the_validation_kernel(
            self, monkeypatch, data, solver):
        """The validation kernel blocks are kept beside each resident
        classifier: a λ-move scores with GEMVs alone, and every value is
        bitwise ``clf.score`` — over more than one 1024-row block."""
        X, y = data
        X_val, y_val = gaussian_mixture(n=1100, d=3, n_components=4,
                                        separation=3.0, noise=0.7, seed=5)
        shapes = []
        inner = GaussianKernel.from_inner_products
        monkeypatch.setattr(
            GaussianKernel, "from_inner_products",
            lambda self, dots, *a: shapes.append(dots.shape)
            or inner(self, dots, *a))
        objective = KRRObjective(X, y, X_val, y_val, solver=solver, seed=0,
                                 cache_size=1)
        validation = {(1024, X.shape[0]), (1100 - 1024, X.shape[0])}
        for h, lam, move in [(1.0, 0.5, "cold"), (1.0, 1.5, "lam_move"),
                             (1.0, 3.0, "lam_move"), (2.0, 0.5, "h_move"),
                             (2.0, 0.1, "lam_move")]:
            before = len(shapes)
            value = objective({"h": h, "lam": lam})
            assert objective.last_move == move
            evaluated = set(shapes[before:])
            if move == "lam_move":
                assert not evaluated & validation
                # hss refits its compression; the dense solver builds its
                # λ-free matrix once, at the first refit of a fit
                assert not evaluated or (solver == "dense"
                                         and evaluated == {(260, 260)})
            else:
                assert validation <= evaluated
            assert value == objective._cache[h].score(X_val, y_val)
            # the blocks of an evicted classifier went with it
            assert set(objective._val_blocks) == set(objective._cache) == {h}
            assert len(objective._val_blocks[h]) == 2
        objective.close()
        assert objective._val_blocks == {} == objective._cache

    def test_random_search_predrawn_groups_preserve_rng(self):
        space = ParameterSpace.krr_default()
        seen = []

        class Spy:
            def __call__(self, config):
                seen.append((config["h"], config["lam"]))
                return 0.0

        RandomSearch(space, budget=10, seed=3, lam_sweep=4).optimize(Spy())
        # same draws as the historical interleaved sampling order
        rng = np.random.default_rng(3)
        expected = []
        lam_param = next(p for p in space.parameters if p.name == "lam")
        drawn = 0
        while drawn < 10:
            config = space.sample(rng)
            expected.append((config["h"], config["lam"]))
            drawn += 1
            for _ in range(min(3, 10 - drawn)):
                expected.append((config["h"], lam_param.sample(rng)))
                drawn += 1
        assert seen == expected

    def test_move_counters_exported(self, data):
        from repro.obs import global_registry

        X, y = data
        objective = KRRObjective(X, y, X[:8], y[:8], solver="dense")
        objective({"h": 1.0, "lam": 0.5})
        objective({"h": 1.0, "lam": 1.5})
        reg = global_registry()
        moves = reg.counter("repro_tune_moves_total",
                            labelnames=("move",))
        assert moves.labels(move="cold").value >= 1
        assert moves.labels(move="lam_move").value >= 1
        assert objective.move_counts == {"cold": 1, "lam_move": 1}


class TestConfigObjective:
    def test_a_config_objective_scores_the_model_repro_train_fits(self):
        """``from_config``: the kernel family, clustering and compression
        sections reach the tuner, with ``tuning.backend`` as the solver."""
        from dataclasses import replace

        from repro.datasets import load_dataset
        from repro.runtime import resolve_runtime_config

        data = load_dataset("gas", n_train=96, n_test=32, seed=0)
        cfg = resolve_runtime_config(flags={
            "tuning.backend": "hss", "solver.name": "dense",
            "kernel.name": "laplacian", "clustering.method": "kd",
            "clustering.leaf_size": 8, "hss.rel_tol": 0.05})
        objective = KRRObjective.from_config(cfg, data.X_train, data.y_train,
                                             data.X_test, data.y_test)
        value = objective({"h": 1.5, "lam": 0.5})
        model = objective._cache[1.5]
        assert model.kernel.name == "laplacian"
        assert model.clustering_.method == "kd"
        assert model.solver_.hss_options is cfg.hss
        trained = KernelRidgeClassifier.from_config(
            replace(cfg, solver=replace(cfg.solver, name="hss")),
            h=1.5, lam=0.5).fit(data.X_train, data.y_train)
        assert value == trained.score(data.X_test, data.y_test)

    def test_the_dense_backend_trains_in_one_process(self):
        from repro.datasets import load_dataset
        from repro.krr.solvers import DenseSolver
        from repro.runtime import resolve_runtime_config

        data = load_dataset("gas", n_train=64, n_test=16, seed=0)
        cfg = resolve_runtime_config(flags={"tuning.backend": "dense",
                                            "distributed.shards": 2})
        objective = KRRObjective.from_config(cfg, data.X_train, data.y_train,
                                             data.X_test, data.y_test)
        objective({"h": 1.0, "lam": 1.0})
        assert type(objective._cache[1.0].solver_) is DenseSolver

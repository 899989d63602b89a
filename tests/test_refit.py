"""Refit equivalence: compress once, refit many.

The compress-once/refit-many split promises that a λ-only ``refit`` is
*indistinguishable* from a cold fit at the same λ — bitwise for the serial
solvers (the λ-free compression is deterministic, and the shift is applied
identically at factor time either way), within the sharded tolerance for
the distributed path — while performing **zero** recompressions and, on a
warm :class:`repro.distributed.WorkerGrid`, zero process spawns.  These
tests pin every layer of that contract: solvers, the binary classifier
(``tests/test_lifecycle_contract.py`` runs the same verbs over all three
estimators), pipeline, tuning objective, persistence (refit after
artifact reload) and the distributed grid, plus the tiled kernel-operator
``matmat`` satellite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import cluster
from repro.config import HSSOptions
from repro.datasets import gaussian_mixture
from repro.hss import compressed as hss_compressed
from repro.kernels import GaussianKernel, KernelOperator
from repro.krr import KernelRidgeClassifier, OneVsAllClassifier
from repro.krr.solvers import CGSolver, DenseSolver, HSSSolver

LAMBDAS = (0.5, 2.0, 8.0)


@pytest.fixture(scope="module")
def data():
    X, y = gaussian_mixture(n=320, d=4, n_components=4, separation=3.0,
                            noise=0.8, seed=0)
    return X, y


@pytest.fixture(scope="module")
def test_data():
    X, y = gaussian_mixture(n=96, d=4, n_components=4, separation=3.0,
                            noise=0.8, seed=1)
    return X, y


def _cold_weights(X, y, lam, solver):
    clf = KernelRidgeClassifier(h=1.0, lam=lam, solver=solver, seed=0)
    clf.fit(X, y)
    return clf.weights_


# ---------------------------------------------------------------------------
# serial solvers: bitwise refit == cold fit
# ---------------------------------------------------------------------------

class TestSerialRefitEquivalence:
    @pytest.mark.parametrize("solver", ["hss", "dense"])
    def test_refit_sweep_bitwise_equals_cold_fits(self, data, solver):
        X, y = data
        clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver=solver, seed=0)
        clf.fit(X, y)
        for lam in LAMBDAS:
            clf.refit(lam)
            np.testing.assert_array_equal(
                clf.weights_, _cold_weights(X, y, lam, solver),
                err_msg=f"{solver} refit at lam={lam} differs from cold fit")

    def test_hss_refit_performs_zero_recompressions(self, data):
        X, y = data
        clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="hss", seed=0)
        clf.fit(X, y)
        assert clf.solver_.compression_count == 1
        for lam in LAMBDAS:
            clf.refit(lam)
        assert clf.solver_.compression_count == 1
        assert clf.solver_.report.refits == len(LAMBDAS)
        assert clf.lam == LAMBDAS[-1]

    def test_refit_only_redoes_factorization_phases(self, data):
        X, y = data
        clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="hss", seed=0)
        clf.fit(X, y)
        clf.refit(4.0)
        timings = clf.solver_.report.timings
        assert "factorization" in timings and "solve" in timings
        assert all(not name.startswith(("hmatrix", "hss_"))
                   for name in timings), (
            f"refit re-ran compression phases: {sorted(timings)}")

    def test_cg_refit_matches_cold(self, data):
        X, y = data
        clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="cg", seed=0)
        clf.fit(X, y)
        clf.refit(3.0)
        np.testing.assert_array_equal(clf.weights_,
                                      _cold_weights(X, y, 3.0, "cg"))

    def test_unfitted_refit_raises(self):
        with pytest.raises(RuntimeError, match="fitted"):
            KernelRidgeClassifier(solver="hss").refit(1.0)
        with pytest.raises(RuntimeError, match="fitted"):
            HSSSolver().refit(1.0)

    def test_negative_lambda_rejected(self, data):
        X, y = data
        clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="dense").fit(X, y)
        with pytest.raises(ValueError):
            clf.refit(-1.0)


class TestRefitReport:
    def test_refit_report_matches_cold_fit(self, data, test_data):
        X, y = data
        Xt, yt = test_data
        clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="hss", seed=0)
        clf.fit(X, y).refit(2.0)
        cold = KernelRidgeClassifier(h=1.0, lam=2.0, solver="hss",
                                     seed=0).fit(X, y)
        assert clf.lam == 2.0
        assert clf.report.refits == 1 and cold.report.refits == 0
        assert clf.report.max_rank == cold.report.max_rank
        assert clf.score(Xt, yt) == cold.score(Xt, yt)
        np.testing.assert_array_equal(clf.weights_, cold.weights_)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_a_failed_h_move_keeps_the_report_of_the_answering_model(
            self, data, test_data, monkeypatch, shards):
        """A ``refit_kernel`` that fails mid-fit leaves the previous factors
        answering, and their report with them: serially the compression
        fails, sharded the coupling merge after the worker round."""
        from repro.distributed.factors import ShardedFactors

        X, y = data
        Xt, _ = test_data
        clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="hss", seed=0,
                                    shards=shards).fit(X, y)
        report = clf.report
        before = (report.shards, report.memory_mb, report.max_rank,
                  report.random_vectors, dict(report.timings))
        assert report.shards == shards and report.max_rank > 0
        predictions = clf.predict(Xt)

        def boom(*args, **kwargs):
            raise RuntimeError("injected fit failure")

        if shards == 1:
            monkeypatch.setattr("repro.krr.solvers.compress_kernel", boom)
        else:
            monkeypatch.setattr(ShardedFactors, "capacitance", boom)
        with pytest.raises(RuntimeError, match="injected"):
            clf.refit_kernel(2.0)
        monkeypatch.undo()
        assert clf.report is report
        assert (report.shards, report.memory_mb, report.max_rank,
                report.random_vectors, dict(report.timings)) == before
        assert clf.h == 1.0
        np.testing.assert_array_equal(clf.predict(Xt), predictions)
        clf.refit(2.0)  # the answering model refits into the same report
        assert clf.report is report and report.refits == 1
        assert report.max_rank == before[2]


# ---------------------------------------------------------------------------
# persistence: refit after artifact reload
# ---------------------------------------------------------------------------

class TestRefitAfterReload:
    def test_hss_artifact_reload_then_refit_bitwise(self, tmp_path, data):
        X, y = data
        clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="hss", seed=0)
        clf.fit(X, y)
        clf.save(str(tmp_path / "model.npz"))
        loaded = KernelRidgeClassifier.load(str(tmp_path / "model.npz"))
        loaded.refit(2.0)
        np.testing.assert_array_equal(loaded.weights_,
                                      _cold_weights(X, y, 2.0, "hss"))
        # a refitted model re-saves consistently
        loaded.save(str(tmp_path / "model2.npz"))
        again = KernelRidgeClassifier.load(str(tmp_path / "model2.npz"))
        np.testing.assert_array_equal(again.weights_, loaded.weights_)
        assert again.lam == 2.0

    def test_dense_artifact_reload_then_refit(self, tmp_path, data):
        X, y = data
        clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="dense", seed=0)
        clf.fit(X, y)
        clf.save(str(tmp_path / "dense.npz"))
        loaded = KernelRidgeClassifier.load(str(tmp_path / "dense.npz"))
        loaded.refit(2.0)
        np.testing.assert_array_equal(loaded.weights_,
                                      _cold_weights(X, y, 2.0, "dense"))

    def test_multiclass_artifact_reload_then_refit(self, tmp_path, data):
        X, y_bin = data
        y = (y_bin > 0).astype(int) + (X[:, 0] > 0).astype(int)
        ova = OneVsAllClassifier(h=1.0, lam=1.0, solver="hss", seed=0)
        ova.fit(X, y)
        ova.save(str(tmp_path / "ova.npz"))
        loaded = OneVsAllClassifier.load(str(tmp_path / "ova.npz"))
        loaded.refit(2.0)
        cold = OneVsAllClassifier(h=1.0, lam=2.0, solver="hss", seed=0)
        cold.fit(X, y)
        np.testing.assert_array_equal(loaded.weights_, cold.weights_)

    def test_artifact_without_targets_refuses_refit(self, tmp_path, data):
        X, y = data
        clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="hss", seed=0)
        clf.fit(X, y)
        clf._targets_perm = None  # simulate an old-version artifact
        clf.save(str(tmp_path / "old.npz"))
        loaded = KernelRidgeClassifier.load(str(tmp_path / "old.npz"))
        with pytest.raises(RuntimeError, match="older version"):
            loaded.refit(2.0)


# ---------------------------------------------------------------------------
# tuning objective: λ-only moves take the refit path
# ---------------------------------------------------------------------------

class TestTuningRefitPath:
    def test_dense_objective_counts_moves(self, data, test_data):
        from repro.tuning import KRRObjective
        X, y = data
        Xv, yv = test_data
        obj = KRRObjective(X, y, Xv, yv)
        obj({"h": 1.0, "lam": 0.5})
        obj({"h": 1.0, "lam": 2.0})   # λ-only move
        obj({"h": 2.0, "lam": 2.0})   # h move: the clustering is kept
        obj({"h": 2.0, "lam": 4.0})   # λ-only move
        assert [r.move for r in obj.records] == \
            ["cold", "lam_move", "h_move", "lam_move"]
        assert obj.last_move == "lam_move"

    def test_hss_objective_refits_match_cold_accuracy(self, data, test_data):
        from repro.tuning import KRRObjective
        X, y = data
        Xv, yv = test_data
        refitting = KRRObjective(X, y, Xv, yv, solver="hss", seed=0)
        for lam in LAMBDAS:
            cold = KernelRidgeClassifier(h=1.0, lam=lam, solver="hss",
                                         seed=0).fit(X, y)
            assert refitting({"h": 1.0, "lam": lam}) == cold.score(Xv, yv)
        assert refitting.move_counts == {"cold": 1,
                                         "lam_move": len(LAMBDAS) - 1}

    def test_grid_search_rides_refit_path(self, data, test_data):
        from repro.tuning import GridSearch, KRRObjective, ParameterSpace
        X, y = data
        Xv, yv = test_data
        obj = KRRObjective(X, y, Xv, yv)
        space = ParameterSpace.krr_default(h_bounds=(0.5, 2.0),
                                           lam_bounds=(0.5, 4.0))
        result = GridSearch(space, points_per_dim=4).optimize(obj)
        # 4 h-columns of 4 λ values each: one fit or h-move + three
        # refits per column
        assert result.evaluations == 16
        assert result.moves == {"cold": 1, "h_move": 3, "lam_move": 12}

    def test_random_search_lam_sweep_rides_refit_path(self, data, test_data):
        from repro.tuning import KRRObjective, ParameterSpace, RandomSearch
        X, y = data
        Xv, yv = test_data
        obj = KRRObjective(X, y, Xv, yv)
        space = ParameterSpace.krr_default()
        result = RandomSearch(space, budget=12, seed=0,
                              lam_sweep=4).optimize(obj)
        assert result.evaluations == 12
        # 3 groups x 3 λ-only follow-ups
        assert result.moves == {"cold": 1, "h_move": 2, "lam_move": 9}

    def test_bandit_lambda_technique_produces_refits(self, data, test_data):
        from repro.tuning import BanditTuner, KRRObjective, ParameterSpace
        X, y = data
        Xv, yv = test_data
        # cache_size 6 = one slot per technique-rotation step, so the
        # λ-perturb technique's incumbent stays resident between picks.
        obj = KRRObjective(X, y, Xv, yv, cache_size=6)
        space = ParameterSpace.krr_default(h_bounds=(0.5, 2.0),
                                           lam_bounds=(0.5, 4.0))
        tuner = BanditTuner(space, budget=30, seed=0)
        result = tuner.optimize(obj)
        assert "lam_perturb" in tuner.technique_usage_
        assert result.moves == obj.move_counts
        assert result.moves.get("lam_move", 0) >= 1

    def test_order_lam_fastest_groups_non_lam_params(self):
        from repro.tuning import order_lam_fastest
        configs = [{"h": 1.0, "lam": 1.0}, {"h": 2.0, "lam": 1.0},
                   {"h": 1.0, "lam": 2.0}, {"h": 2.0, "lam": 2.0}]
        ordered = order_lam_fastest(configs)
        assert [c["h"] for c in ordered] == [1.0, 1.0, 2.0, 2.0]
        # already-grouped input (lam fastest) comes back unchanged
        grouped = [{"h": 1.0, "lam": 1.0}, {"h": 1.0, "lam": 2.0},
                   {"h": 2.0, "lam": 1.0}, {"h": 2.0, "lam": 2.0}]
        assert order_lam_fastest(grouped) == grouped


# ---------------------------------------------------------------------------
# satellite: tiled kernel-operator matmat
# ---------------------------------------------------------------------------

class TestTiledMatmat:
    def _operator(self, **kwargs):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((230, 5))
        return KernelOperator(X, GaussianKernel(h=1.1), **kwargs), rng

    def test_tiled_matches_untiled_path(self):
        op_tiled, rng = self._operator(col_tile=48)
        op_untiled = KernelOperator(op_tiled.X, op_tiled.kernel)
        V = rng.standard_normal((230, 4))
        np.testing.assert_allclose(op_tiled.matmat(V), op_untiled.matmat(V),
                                   rtol=1e-12, atol=1e-12)

    def test_exact_sampling_training_uses_tiles_and_stays_deterministic(
            self, data, monkeypatch):
        X, y = data
        # a tile narrower than the fixture, so the sampling matmat is tiled
        monkeypatch.setattr(hss_compressed, "MATMAT_COL_TILE", 64)
        tiled = []
        matmat_tiled = KernelOperator._matmat_tiled

        def counted(op, V):
            tiled.append(op.col_tile)
            return matmat_tiled(op, V)

        monkeypatch.setattr(KernelOperator, "_matmat_tiled", counted)
        weights = []
        for _ in range(2):
            solver = HSSSolver(hss_options=HSSOptions(rel_tol=1e-6),
                               use_hmatrix_sampling=False, seed=0)
            clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver=solver, seed=0)
            clf.fit(X, y)
            weights.append(clf.weights_)
        assert tiled and set(tiled) == {64}
        np.testing.assert_array_equal(weights[0], weights[1])

    def test_invalid_col_tile(self):
        with pytest.raises(ValueError):
            KernelOperator(np.zeros((4, 2)), GaussianKernel(), col_tile=0)

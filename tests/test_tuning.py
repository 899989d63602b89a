"""Tests for the hyper-parameter tuning package."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import gaussian_mixture
from repro.tuning import (BanditTuner, ContinuousParameter, GridSearch,
                          KRRObjective, LogUniformParameter, ParameterSpace,
                          RandomSearch, TuningResult)


def _quadratic_objective(optimum=(1.0, 2.0)):
    """A smooth objective with a unique maximum at ``optimum``."""

    def objective(config):
        h, lam = config["h"], config["lam"]
        return -((np.log(h) - np.log(optimum[0])) ** 2
                 + (np.log(lam) - np.log(optimum[1])) ** 2)

    return objective


@pytest.fixture(scope="module")
def krr_objective():
    X_train, y_train = gaussian_mixture(200, 4, n_components=4, separation=3.0,
                                        noise=0.8, seed=0)
    X_val, y_val = gaussian_mixture(80, 4, n_components=4, separation=3.0,
                                    noise=0.8, seed=1)
    return KRRObjective(X_train, y_train, X_val, y_val)


class TestParameterSpace:
    def test_sampling_within_bounds(self):
        space = ParameterSpace.krr_default(h_bounds=(0.1, 10), lam_bounds=(0.5, 5))
        rng = np.random.default_rng(0)
        for _ in range(50):
            cfg = space.sample(rng)
            assert 0.1 <= cfg["h"] <= 10
            assert 0.5 <= cfg["lam"] <= 5

    def test_grid_size(self):
        space = ParameterSpace.krr_default()
        grid = space.grid(5)
        assert len(grid) == 25
        hs = sorted({cfg["h"] for cfg in grid})
        assert len(hs) == 5

    def test_round_trip_array(self):
        space = ParameterSpace([ContinuousParameter("a", 0, 1),
                                LogUniformParameter("b", 0.1, 10)])
        cfg = {"a": 0.5, "b": 2.0}
        arr = space.to_array(cfg)
        back = space.from_array(arr)
        assert back == pytest.approx(cfg)

    def test_clip(self):
        space = ParameterSpace([ContinuousParameter("a", 0.0, 1.0)])
        assert space.clip({"a": 5.0})["a"] == 1.0
        assert space.clip({"a": -2.0})["a"] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ParameterSpace([])
        with pytest.raises(ValueError):
            ContinuousParameter("x", 1.0, 0.0)
        with pytest.raises(ValueError):
            LogUniformParameter("x", -1.0, 1.0)
        with pytest.raises(ValueError):
            ParameterSpace([ContinuousParameter("x", 0, 1),
                            ContinuousParameter("x", 0, 2)])


class TestTuningResult:
    def test_record_and_best(self):
        result = TuningResult()
        result.record({"h": 1.0}, 0.5)
        result.record({"h": 2.0}, 0.8)
        result.record({"h": 3.0}, 0.3)
        assert result.best_value == 0.8
        assert result.best_config == {"h": 2.0}
        assert result.evaluations == 3
        assert result.best_so_far() == [0.5, 0.8, 0.8]


class TestGridSearch:
    def test_finds_optimum_on_grid(self):
        space = ParameterSpace.krr_default(h_bounds=(0.5, 2.0), lam_bounds=(1.0, 4.0))
        search = GridSearch(space, points_per_dim=9)
        result = search.optimize(_quadratic_objective())
        assert result.evaluations == 81
        assert result.best_config["h"] == pytest.approx(1.0, rel=0.2)
        assert result.best_config["lam"] == pytest.approx(2.0, rel=0.2)

    def test_max_evaluations_cap(self):
        space = ParameterSpace.krr_default()
        search = GridSearch(space, points_per_dim=10, max_evaluations=17)
        result = search.optimize(_quadratic_objective())
        assert result.evaluations == 17
        assert search.total_grid_size == 100


class TestRandomSearch:
    def test_respects_budget(self):
        space = ParameterSpace.krr_default()
        result = RandomSearch(space, budget=23, seed=0).optimize(_quadratic_objective())
        assert result.evaluations == 23

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            RandomSearch(ParameterSpace.krr_default(), budget=0)


class TestBanditTuner:
    def test_beats_or_matches_random_on_smooth_objective(self):
        space = ParameterSpace.krr_default(h_bounds=(0.1, 10), lam_bounds=(0.1, 10))
        objective = _quadratic_objective()
        bandit = BanditTuner(space, budget=60, seed=1).optimize(objective)
        random = RandomSearch(space, budget=60, seed=1).optimize(objective)
        assert bandit.best_value >= random.best_value - 0.05

    def test_uses_all_techniques(self):
        space = ParameterSpace.krr_default()
        tuner = BanditTuner(space, budget=40, seed=2)
        tuner.optimize(_quadratic_objective())
        assert sum(tuner.technique_usage_.values()) == 40
        assert all(count >= 1 for count in tuner.technique_usage_.values())

    def test_respects_bounds(self):
        space = ParameterSpace.krr_default(h_bounds=(0.5, 2.0), lam_bounds=(0.5, 2.0))
        tuner = BanditTuner(space, budget=30, seed=3)
        result = tuner.optimize(_quadratic_objective())
        for entry in result.history:
            assert 0.5 <= entry["h"] <= 2.0
            assert 0.5 <= entry["lam"] <= 2.0

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            BanditTuner(ParameterSpace.krr_default(), budget=0)


class TestKRRObjective:
    def test_returns_accuracy_in_unit_interval(self, krr_objective):
        acc = krr_objective({"h": 1.0, "lam": 1.0})
        assert 0.0 <= acc <= 1.0

    def test_kernel_cache_reused_for_same_h(self, krr_objective):
        krr_objective({"h": 2.0, "lam": 0.5})
        assert krr_objective.last_move != "lam_move"
        krr_objective({"h": 2.0, "lam": 5.0})
        # the second call refits the model resident at h = 2
        assert krr_objective.last_move == "lam_move"

    def test_best_tracking(self, krr_objective):
        config, value = krr_objective.best()
        assert "h" in config and "lam" in config
        assert 0.0 <= value <= 1.0

    def test_invalid_config(self, krr_objective):
        with pytest.raises(ValueError):
            krr_objective({"h": -1.0, "lam": 1.0})

    def test_reasonable_h_beats_extreme_h(self):
        X_train, y_train = gaussian_mixture(150, 3, n_components=4,
                                            separation=4.0, noise=0.5, seed=3)
        X_val, y_val = gaussian_mixture(60, 3, n_components=4, separation=4.0,
                                        noise=0.5, seed=4)
        obj = KRRObjective(X_train, y_train, X_val, y_val)
        good = obj({"h": 1.0, "lam": 0.5})
        terrible = obj({"h": 1e-3, "lam": 0.5})
        assert good >= terrible

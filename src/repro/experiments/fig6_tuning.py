"""Figure 6: grid search versus black-box (OpenTuner-style) hyper-parameter tuning.

The paper compares a 128 x 128 grid search over ``(h, lambda)`` on the SUSY
dataset with ~100 OpenTuner evaluations and reports that the black-box
search "converged to a tuning parameter with better prediction accuracies
than grid search" at ~1% of the cost.  This experiment runs both searches
against the same validation-accuracy objective and reports the best
accuracy and the number of objective evaluations of each, split by move
cost class (cold fit / h-move / λ-move).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..datasets import load_dataset
from ..datasets.splits import train_test_split
from ..diagnostics.report import Table
from ..tuning import (BanditTuner, GridSearch, KRRObjective, ParameterSpace,
                      RandomSearch, TuningResult)


@dataclass
class Fig6Result:
    """Best accuracy and cost of each tuning strategy."""

    dataset: str
    n_train: int
    n_val: int
    grid: Optional[TuningResult] = None
    bandit: Optional[TuningResult] = None
    random: Optional[TuningResult] = None
    evaluations: Dict[str, int] = field(default_factory=dict)
    #: per-strategy evaluation counts by move cost class
    #: (``cold`` / ``h_move`` / ``lam_move``, see docs/tuning.md)
    moves: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: measured wall-clock of one cold HSS fit at the best configuration
    cold_fit_seconds: float = 0.0
    #: measured wall-clock of the λ-only refit reaching the same λ
    refit_seconds: float = 0.0

    @property
    def refit_speedup(self) -> float:
        """Cold-fit over refit wall-clock (0 when not measured)."""
        if self.refit_seconds <= 0.0:
            return 0.0
        return self.cold_fit_seconds / self.refit_seconds

    def table(self) -> Table:
        table = Table(title=f"Figure 6 — (h, lambda) tuning on {self.dataset.upper()}, "
                            f"{self.n_train} train / {self.n_val} validation")
        for name, result in (("grid", self.grid), ("opentuner-like", self.bandit),
                             ("random", self.random)):
            if result is None:
                continue
            key = "bandit" if name == "opentuner-like" else name
            moves = self.moves.get(key, {})
            table.add_row(
                strategy=name,
                evaluations=self.evaluations.get(key, result.evaluations),
                cold_evals=moves.get("cold", 0),
                h_moves=moves.get("h_move", 0),
                lam_moves=moves.get("lam_move", 0),
                best_accuracy_percent=round(100 * result.best_value, 2),
                best_h=round(result.best_config.get("h", float("nan")), 4),
                best_lambda=round(result.best_config.get("lam", float("nan")), 4),
                cold_fit_s=round(self.cold_fit_seconds, 4),
                refit_s=round(self.refit_seconds, 4),
            )
        return table


def run_fig6_tuning(
    dataset: str = "susy",
    n_train: int = 768,
    n_val: int = 256,
    grid_points_per_dim: int = 12,
    tuner_budget: int = 100,
    include_random_search: bool = True,
    h_bounds=(0.25, 2.0),
    lam_bounds=(0.5, 10.0),
    seed: int = 0,
    measure_refit: bool = True,
) -> Fig6Result:
    """Run grid search and the bandit tuner on the same objective.

    Parameters
    ----------
    dataset:
        Dataset name (the paper uses SUSY).
    n_train, n_val:
        Sizes of the training and validation subsets used by the objective.
    grid_points_per_dim:
        Grid resolution (the paper's full grid is 128; 12^2 = 144 runs keeps
        the benchmark fast while still being ~40% more evaluations than the
        tuner budget).
    tuner_budget:
        Evaluation budget of the black-box tuner (paper: ~100 runs).
    h_bounds, lam_bounds:
        Search bounds, matching the axes of Figure 6.
    measure_refit:
        If ``True`` (default), additionally time the compress-once/
        refit-many split on the real HSS training stack at the winning
        configuration: one cold fit versus one λ-only refit reaching the
        same λ.  Both numbers land in every output row (``cold_fit_s`` /
        ``refit_s``).
    """
    data = load_dataset(dataset, n_train=n_train + n_val, n_test=64, seed=seed)
    X_tr, y_tr, X_val, y_val = train_test_split(
        data.X_train, data.y_train, test_fraction=n_val / (n_train + n_val), seed=seed)

    space = ParameterSpace.krr_default(h_bounds=h_bounds, lam_bounds=lam_bounds)
    result = Fig6Result(dataset=dataset, n_train=X_tr.shape[0], n_val=X_val.shape[0])

    # --- grid search (λ varies fastest: one kernel build per h column)
    grid_objective = KRRObjective(X_tr, y_tr, X_val, y_val)
    grid = GridSearch(space, points_per_dim=grid_points_per_dim)
    result.grid = grid.optimize(grid_objective)
    result.evaluations["grid"] = grid_objective.evaluations
    result.moves["grid"] = grid_objective.move_counts
    grid_objective.close()

    # --- OpenTuner-style bandit tuner (deep enough per-h cache that the
    # λ-perturb technique finds the incumbent resident across one full
    # technique rotation and rides the refit path)
    bandit_objective = KRRObjective(X_tr, y_tr, X_val, y_val, cache_size=6)
    bandit = BanditTuner(space, budget=tuner_budget, seed=seed)
    result.bandit = bandit.optimize(bandit_objective)
    result.evaluations["bandit"] = bandit_objective.evaluations
    result.moves["bandit"] = bandit_objective.move_counts
    bandit_objective.close()

    # --- plain random search (extra baseline, λ-sweeping per sampled h)
    if include_random_search:
        random_objective = KRRObjective(X_tr, y_tr, X_val, y_val)
        rnd = RandomSearch(space, budget=tuner_budget, seed=seed, lam_sweep=4)
        result.random = rnd.optimize(random_objective)
        result.evaluations["random"] = random_objective.evaluations
        result.moves["random"] = random_objective.move_counts
        random_objective.close()

    if measure_refit:
        candidates = [r for r in (result.grid, result.bandit, result.random)
                      if r is not None]
        best_config = max(candidates, key=lambda r: r.best_value).best_config
        cold_s, refit_s = _measure_refit_vs_cold(
            X_tr, y_tr, float(best_config["h"]), float(best_config["lam"]),
            seed=seed)
        result.cold_fit_seconds = cold_s
        result.refit_seconds = refit_s
    return result


def _measure_refit_vs_cold(X_train, y_train, h: float, lam: float,
                           seed: int = 0):
    """Time one cold HSS fit vs one λ-only refit at ``(h, lam)``.

    The refit starts from a fit at a different λ (``2 * lam + 1``) so it
    performs real work (ULV + solve) while reusing the compression —
    exactly the per-point cost of a λ sweep on the real training stack.

    Parameters
    ----------
    X_train, y_train:
        Training subset used by the tuning objective.
    h, lam:
        Configuration to measure at (typically the tuning winner).
    seed:
        Seed shared with the rest of the experiment.

    Returns
    -------
    tuple of float
        ``(cold_fit_seconds, refit_seconds)``.
    """
    import time

    from ..krr.classifier import KernelRidgeClassifier

    clf = KernelRidgeClassifier(h=h, lam=2.0 * lam + 1.0, solver="hss",
                                seed=seed)
    t0 = time.perf_counter()
    clf.fit(X_train, y_train)
    cold_s = time.perf_counter() - t0
    t1 = time.perf_counter()
    clf.refit(lam)
    refit_s = time.perf_counter() - t1
    return cold_s, refit_s

"""Benchmark regenerating Figure 6: grid search vs OpenTuner-style tuning.

Paper reference (Figure 6): a 128^2 grid search over (h, lambda) on SUSY is
out-performed by ~100 black-box (OpenTuner) evaluations, which converge to
parameters with better validation accuracy at ~1% of the cost.
"""

from __future__ import annotations

from conftest import scaled

from repro.experiments import run_fig6_tuning


def test_fig6_tuning(benchmark):
    n_train = scaled(768)
    n_val = scaled(256)

    def run():
        return run_fig6_tuning(dataset="susy", n_train=n_train, n_val=n_val,
                               grid_points_per_dim=12, tuner_budget=100, seed=0)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(result.table().render())

    benchmark.extra_info["grid_best_accuracy"] = result.grid.best_value
    benchmark.extra_info["bandit_best_accuracy"] = result.bandit.best_value
    benchmark.extra_info["grid_evaluations"] = result.evaluations["grid"]
    benchmark.extra_info["bandit_evaluations"] = result.evaluations["bandit"]
    for strategy, moves in result.moves.items():
        for move, count in moves.items():
            benchmark.extra_info[f"{strategy}_{move}s"] = count
        # every evaluation is exactly one of the three moves
        assert sum(moves.values()) == result.evaluations[strategy], strategy

    # Shape claims of Figure 6: with fewer evaluations than the grid, the
    # black-box tuner reaches at least comparable validation accuracy.
    assert result.evaluations["bandit"] <= result.evaluations["grid"]
    assert result.bandit.best_value >= result.grid.best_value - 0.02

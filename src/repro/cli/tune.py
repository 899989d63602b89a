"""``repro tune`` — hyper-parameter search over ``(h, lambda)``."""

from __future__ import annotations

import argparse

from ._common import (CLIError, add_config_arguments, emit, load_bundle,
                      maybe_dump_metrics, resolve_config)


def add_parser(subparsers) -> argparse.ArgumentParser:
    """Register the ``tune`` subcommand.

    Parameters
    ----------
    subparsers:
        The argparse subparsers action of the umbrella parser.

    Returns
    -------
    argparse.ArgumentParser
        The subcommand parser.
    """
    parser = subparsers.add_parser(
        "tune",
        help="search (h, lambda) with the configured strategy",
        description="Split the training set into train/validation by "
                    "[tuning].val_fraction, then run the configured search "
                    "strategy (grid / random / bandit) over the (h, lambda) "
                    "box. λ-only moves reuse the kernel compression "
                    "(compress once, refit many).")
    add_config_arguments(parser)
    parser.add_argument(
        "--strategy", default=argparse.SUPPRESS,
        choices=("grid", "random", "bandit"),
        help="sets tuning.strategy")
    parser.add_argument(
        "--budget", type=int, default=argparse.SUPPRESS,
        help="sets tuning.budget (random / bandit evaluation count)")
    parser.add_argument(
        "--cv", type=int, default=argparse.SUPPRESS,
        help="sets tuning.cv: K>1 scores configurations by K-fold "
             "cross-validation on the training set (fold-removal "
             "multi-RHS solves on the shared factorization) instead of "
             "the held-out validation split")
    parser.add_argument(
        "--lam-sweep", type=int, default=argparse.SUPPRESS,
        help="sets tuning.lam_sweep (λ values batched per sampled h in "
             "random search)")
    parser.add_argument(
        "--cost-aware", choices=("true", "false"), default=argparse.SUPPRESS,
        help="sets tuning.cost_aware (bandit divides success rate by "
             "observed move cost: λ-refit < recompression < cold build)")
    parser.set_defaults(func=run,
                        extra_flag_keys={"strategy": "tuning.strategy",
                                         "budget": "tuning.budget",
                                         "cv": "tuning.cv",
                                         "lam_sweep": "tuning.lam_sweep",
                                         "cost_aware": "tuning.cost_aware"})
    return parser


def _make_searcher(config):
    from ..tuning import BanditTuner, GridSearch, ParameterSpace, RandomSearch

    t = config.tuning
    space = ParameterSpace.krr_default(h_bounds=(t.h_min, t.h_max),
                                       lam_bounds=(t.lam_min, t.lam_max))
    if t.strategy == "grid":
        return GridSearch(space, points_per_dim=t.points_per_dim,
                          max_evaluations=t.budget)
    if t.strategy == "random":
        return RandomSearch(space, budget=t.budget, seed=t.seed,
                            lam_sweep=t.lam_sweep)
    if t.strategy == "bandit":
        return BanditTuner(space, budget=t.budget, seed=t.seed,
                           cost_aware=t.cost_aware)
    raise CLIError(f"unknown tuning strategy {t.strategy!r}")


def run(args: argparse.Namespace) -> int:
    """Execute ``repro tune``.

    Parameters
    ----------
    args:
        Parsed command-line namespace.

    Returns
    -------
    int
        Process exit code.
    """
    from ..datasets import train_test_split
    from ..tuning import KRRObjective

    config = resolve_config(args)
    data = load_bundle(config)
    t = config.tuning
    X_tr, y_tr, X_val, y_val = train_test_split(
        data.X_train, data.y_train, test_fraction=t.val_fraction,
        seed=config.dataset.seed)

    objective = KRRObjective.from_config(config, X_tr, y_tr, X_val, y_val)
    searcher = _make_searcher(config)
    result = searcher.optimize(objective)

    best = result.best_config
    moves = result.moves
    payload = {
        "strategy": t.strategy,
        "evaluations": result.evaluations,
        "cv": int(t.cv),
        "moves": {"cold": moves.get("cold", 0),
                  "h_move": moves.get("h_move", 0),
                  "lam_move": moves.get("lam_move", 0)},
        "best": {"h": float(best["h"]), "lam": float(best["lam"]),
                 "validation_accuracy": float(result.best_value)},
        "n_train": int(X_tr.shape[0]),
        "n_val": int(X_val.shape[0]),
    }
    score_name = (f"{t.cv}-fold CV accuracy" if t.cv > 1
                  else "validation accuracy")
    human = [
        f"tune[{t.strategy}] on {config.dataset.name}: "
        f"{result.evaluations} evaluations: {moves.get('cold', 0)} cold / "
        f"{moves.get('h_move', 0)} h-moves (recompression) / "
        f"{moves.get('lam_move', 0)} λ-moves (refit)",
        f"best h={best['h']:.4g} lam={best['lam']:.4g} "
        f"{score_name}={100 * result.best_value:.2f}%",
        "apply with: repro refit --lam "
        f"{best['lam']:.6g}   (or retrain: repro train --h {best['h']:.6g} "
        f"--lam {best['lam']:.6g})",
    ]
    dumped = maybe_dump_metrics(config)
    if dumped:
        payload["metrics_dump"] = dumped
    return emit(args, "tune", config, payload, human)

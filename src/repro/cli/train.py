"""``repro train`` — train a model from the config and persist it."""

from __future__ import annotations

import argparse

from ._common import (add_config_arguments, effective_h_lam, emit,
                      load_bundle, maybe_dump_metrics, resolve_config)


def add_parser(subparsers) -> argparse.ArgumentParser:
    """Register the ``train`` subcommand.

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
        "train",
        help="train a KRR model from the config and save it to the store",
        description="Generate the configured dataset, train the configured "
                    "classifier and persist the fitted model (overwriting any "
                    "previous model of the same name, so re-running is "
                    "idempotent).")
    add_config_arguments(parser)
    parser.add_argument(
        "--no-save", action="store_true",
        help="train and evaluate only; skip the model store")
    parser.set_defaults(func=run)
    return parser


def run(args: argparse.Namespace) -> int:
    """Execute ``repro train``.

    Parameters
    ----------
    args:
        Parsed command-line namespace.

    Returns
    -------
    int
        Process exit code.
    """
    from ..krr import KernelRidgeClassifier
    from ..serving import ModelStore
    from ..utils.timing import TimingLog

    config = resolve_config(args)
    data = load_bundle(config)
    h, lam = effective_h_lam(config, data)

    clf = KernelRidgeClassifier.from_config(config, h=h, lam=lam)
    log = TimingLog()
    with log.phase("train_total"):
        clf.fit(data.X_train, data.y_train)
    with log.phase("predict_total"):
        acc = 100.0 * clf.score(data.X_test, data.y_test)
    solve = clf.report
    report = {
        "dataset": config.dataset.name,
        "clustering": config.clustering.method,
        "solver": config.solver.name, "kernel": config.kernel.name,
        "h": clf.h, "lambda": clf.lam,
        "n_train": int(data.X_train.shape[0]),
        "n_test": int(data.X_test.shape[0]), "dim": int(data.X_train.shape[1]),
        "accuracy_percent": round(acc, 2),
        "memory_mb": round(solve.memory_mb, 3),
        "hss_memory_mb": round(solve.hss_memory_mb, 3),
        "hmatrix_memory_mb": round(solve.hmatrix_memory_mb, 3),
        "max_rank": solve.max_rank, "shards": solve.shards,
    }
    for name, sec in sorted({**solve.timings, **log.as_dict()}.items()):
        report[f"time_{name}_s"] = round(sec, 4)

    result = {"report": report, "model": None}
    human = [
        f"trained {config.dataset.name}: n_train={report['n_train']} "
        f"n_test={report['n_test']} solver={report['solver']} "
        f"clustering={report['clustering']}",
        f"h={clf.h:.4g} lam={clf.lam:.4g} accuracy={acc:.2f}%",
    ]
    if not args.no_save:
        store = ModelStore.from_config(config)
        record = store.save(clf, config.serving.model, metadata=report,
                            overwrite=True)
        result["model"] = {"name": record.name, "path": record.path,
                           "checksum": record.checksum,
                           "store": store.root}
        human.append(f"saved model {record.name!r} to {store.root} "
                     f"(checksum {record.checksum[:12]}...)")
    dumped = maybe_dump_metrics(config)
    if dumped:
        result["metrics_dump"] = dumped
        human.append(f"metrics dumped to {dumped}")
    return emit(args, "train", config, result, human)

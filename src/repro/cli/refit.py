"""``repro refit`` — cheap λ-only re-train of a stored model."""

from __future__ import annotations

import argparse

from ._common import (CLIError, add_config_arguments, emit, load_bundle,
                      maybe_dump_metrics, resolve_config)


def add_parser(subparsers) -> argparse.ArgumentParser:
    """Register the ``refit`` subcommand.

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
        "refit",
        help="refit the stored model at a new lambda (no recompression)",
        description="Load the configured model from the store, refit the "
                    "λ-shift factorization at the new ridge parameter "
                    "(the kernel compression is reused — the cheap inner "
                    "step of a regularization sweep), re-evaluate on the "
                    "configured test split and save the refitted model "
                    "back under the same name.")
    add_config_arguments(parser)
    parser.add_argument(
        "--new-lam", type=float, default=None, metavar="LAM",
        help="the new ridge parameter (default: kernel.lam from the "
             "config chain)")
    parser.add_argument(
        "--no-save", action="store_true",
        help="refit and evaluate only; do not overwrite the stored model")
    parser.set_defaults(func=run)
    return parser


def run(args: argparse.Namespace) -> int:
    """Execute ``repro refit``.

    Parameters
    ----------
    args:
        Parsed command-line namespace.

    Returns
    -------
    int
        Process exit code.
    """
    from ..serving import ArtifactError, ModelStore

    config = resolve_config(args)
    lam = args.new_lam if args.new_lam is not None else config.kernel.lam
    store = ModelStore.from_config(config)
    name = config.serving.model
    try:
        old_lam = float(store.artifact(name).config["lam"])
        if args.no_save:
            model = store.load(name)
            model.refit(float(lam))
        else:
            model, record = store.apply(name, "refit", float(lam),
                                        meta={"lambda": float(lam)})
    except ArtifactError as exc:
        raise CLIError(f"{exc} (run `repro train` first)") from exc
    except RuntimeError as exc:
        raise CLIError(str(exc)) from exc

    data = load_bundle(config)
    accuracy = float(model.score(data.X_test, data.y_test))

    result = {
        "model": name,
        "store": store.root,
        "old_lam": old_lam,
        "new_lam": float(lam),
        "test_accuracy": accuracy,
        "saved": not args.no_save,
    }
    human = [
        f"refit model {name!r}: lam {old_lam:.4g} -> {float(lam):.4g} "
        f"(compression reused)",
        f"test accuracy at new lam: {100 * accuracy:.2f}%",
    ]
    if not args.no_save:
        result["checksum"] = record.checksum
        human.append(f"saved refitted model (checksum "
                     f"{record.checksum[:12]}...)")
    dumped = maybe_dump_metrics(config)
    if dumped:
        result["metrics_dump"] = dumped
    return emit(args, "refit", config, result, human)

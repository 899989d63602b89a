"""The ``repro`` umbrella CLI.

One entry point for the whole model lifecycle, driven by the layered
:mod:`repro.runtime` configuration (built-in defaults < ``repro.toml`` <
``REPRO_*`` environment variables < command-line flags)::

    repro train                      # train + persist the configured model
    repro tune --strategy bandit     # search (h, lambda)
    repro refit --new-lam 4.0        # cheap λ-only re-train of the model
    repro update --add new.npz       # stream rows in (Woodbury partial_fit)
    repro serve --check              # one-shot serving self-test
    repro bench --workload lowdim    # the perf ledger (BENCHMARK.json)
    repro inspect config             # every knob + its provenance layer
    repro env                        # host context + REPRO_* mapping

Every subcommand is idempotent and writes a machine-readable JSON result
(``repro_<command>.json`` by default, ``--json PATH`` to move it) next to
its human-readable summary; ``bench`` instead passes its arguments, output
and exit status between the caller and ``python -m benchmarks.ledger run``.
Errors print to stderr and exit with code 2.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ._common import CLIError
from . import bench, env_cmd, inspect_cmd, refit, serve, train, tune, update

__all__ = ["CLIError", "build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The full argument parser of the ``repro`` command.

    Returns
    -------
    argparse.ArgumentParser
        Parser with all subcommands registered; each subcommand's
        ``func`` default is its ``run`` callable.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Kernel ridge regression with hierarchical matrix "
                    "compression: train, tune, refit, update, serve and "
                    "inspect — all from one layered config "
                    "(repro.toml < REPRO_* env < flags); bench runs the "
                    "perf ledger.")
    from .. import __version__
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", metavar="COMMAND")
    train.add_parser(subparsers)
    tune.add_parser(subparsers)
    refit.add_parser(subparsers)
    update.add_parser(subparsers)
    serve.add_parser(subparsers)
    bench.add_parser(subparsers)
    inspect_cmd.add_parser(subparsers)
    env_cmd.add_parser(subparsers)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Console entry point of the ``repro`` command.

    Parameters
    ----------
    argv:
        Argument list (``None`` → ``sys.argv[1:]``).

    Returns
    -------
    int
        Process exit code: 0 on success, 2 on an operator error
        (bad flag value, missing model, failed self-test, ...).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    try:
        return int(args.func(args))
    except CLIError as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print(f"repro {args.command}: interrupted", file=sys.stderr)
        return 130

"""``repro bench`` — run the perf ledger of this source checkout."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from ._common import CLIError

MANIFEST = "BENCHMARK.json"


def add_parser(subparsers) -> argparse.ArgumentParser:
    """Register the ``bench`` subcommand; returns its parser."""
    # "+" as the only prefix character: every argument, `--workload` and
    # `-h` included, is a positional that goes to the ledger untouched.
    parser = subparsers.add_parser(
        "bench", prefix_chars="+", add_help=False,
        help=f"run the perf ledger ({MANIFEST}) of this source checkout")
    parser.add_argument("ledger_args", nargs="*")
    parser.set_defaults(func=run)
    return parser


def run(args: argparse.Namespace) -> int:
    """Execute ``repro bench``; returns the ledger's exit status."""
    root = start = os.getcwd()
    while not os.path.isfile(os.path.join(root, MANIFEST)):
        root, below = os.path.dirname(root), root
        if root == below:
            raise CLIError(
                f"no {MANIFEST} at or above {start}: `repro bench` runs "
                f"the perf ledger of a source checkout, run it inside one")
    with open(os.path.join(root, MANIFEST), encoding="utf-8") as fh:
        command = list(json.load(fh)["command"])
    if command[0] == "python3":
        command[0] = sys.executable  # the interpreter `repro` runs under
    return subprocess.run(command + args.ledger_args, cwd=root).returncode

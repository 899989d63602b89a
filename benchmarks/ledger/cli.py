"""Command line of the ledger: ``run``, ``selfcheck`` and two child modes."""

from __future__ import annotations

import argparse
import json
import os
from typing import Dict

from .metrics import END_TO_END, PER_LAYER, UNITS, WORKLOADS


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 -m benchmarks.ledger",
        description="The repo's perf ledger (see benchmarks/ledger/README.md).")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--workload", choices=WORKLOADS, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--smoke", action="store_true",
                       help="tiny sizes, two rounds (for the smoke test)")

    run = sub.add_parser("run", help="one run of one workload")
    common(run)
    run.add_argument("--seconds", type=float, default=36.0,
                     help="length of the measuring window")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: traced run, prints the per-layer metrics and "
                          "writes _work/trace_<workload>.json")

    setup = sub.add_parser("setup-only", help="child: time one cold set-up")
    common(setup)

    fit = sub.add_parser("fit-only", help="child: time cold fits")
    common(fit)
    fit.add_argument("--default-blas", action="store_true",
                     help="leave the BLAS thread count at its default")
    fit.add_argument("--shards", type=int, default=None,
                     help="fit once on a grid of this many worker processes")

    check = sub.add_parser(
        "selfcheck", help="two interleaved sets of runs of this checkout")
    check.add_argument("--sets", type=int, choices=(2,), default=2,
                       help="always two, A and B")
    check.add_argument("--runs", type=int, default=5,
                       help="runs per set and workload (at least 2)")
    return parser


def _report(kind: str, args, values: Dict[str, Dict[str, float]],
            names, ops, info: Dict[str, object]) -> int:
    """Human-readable record, then the one-line JSON result."""
    print(f"# ledger {kind} workload={args.workload} seed={args.seed}")
    for key, value in info.items():
        print(f"# {key} = {value}")
    for name in names:
        rec = values[name]
        extra = " ".join(f"{k}={v:.6g}" for k, v in rec.items()
                         if k != "value")
        print(f"{name:28s} {rec['value']!r:>24} {UNITS[name]:6s} {extra}")
    print(f"ops_attempted = {ops.attempted}")
    print(f"ops_failed = {ops.failed}")
    for what in ops.failures:
        print(f"# FAILED: {what}")
    metrics = {name: {"value": values[name]["value"], "unit": UNITS[name]}
               for name in names}
    print(json.dumps({"correct": ops.failed == 0,
                      "attempted": ops.attempted, "failed": ops.failed,
                      "metrics": metrics}))
    return 0 if ops.failed == 0 else 1


def _run(args, t_start: float) -> int:
    from . import scenario

    ops = scenario.Ops()
    bench = scenario.set_up(args.workload, args.seed, args.smoke, t_start)
    ops.did()
    try:
        info: Dict[str, object] = {
            "inputs_sha256": bench.inputs.sha256,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "n_train": bench.inputs.spec.n_train,
        }
        if args.trace:
            from . import layers
            values, trace_path = layers.run_traced(bench, args, ops)
            info["trace_file"] = trace_path
            names = [name for name, *_ in PER_LAYER]
            kind = "traced run"
        else:
            values, info["rounds"] = scenario.run_untraced(bench, args, ops)
            names = [name for name, *_ in END_TO_END]
            kind = "run"
    finally:
        bench.close()
    return _report(kind, args, values, names, ops, info)


def _setup_only(args, t_start: float) -> int:
    from . import scenario

    bench = scenario.set_up(args.workload, args.seed, args.smoke, t_start)
    bench.close()
    print(json.dumps({"setup_s": bench.setup_s}))
    return 0


def _fit_only(args) -> int:
    """Cold fits in a process of their own (default BLAS or a worker grid)."""
    from . import scenario
    from .workloads import generate

    inputs = generate(args.workload, args.seed, smoke=args.smoke)

    def fit(**kwargs):
        return scenario.new_classifier(inputs, **kwargs).fit(
            inputs.X_train, inputs.y_train)

    if args.shards is None:
        print(json.dumps({"fit_s": min(scenario.timed(fit)[1]
                                       for _ in range(2))}))
        return 0

    from repro.distributed import WorkerGrid
    from repro.obs import global_registry

    sent = global_registry().counter("repro_transport_bytes_total")
    messages = global_registry().counter("repro_transport_messages_total")
    grid, spawn_s = scenario.timed(lambda: WorkerGrid.from_data(
        inputs.X_train, shards=args.shards,
        clustering=inputs.spec.clustering, leaf_size=inputs.spec.leaf_size,
        seed=0))
    try:
        clf, fit_s = scenario.timed(lambda: fit(
            shards=args.shards, solver_options={"grid": grid}))
    finally:
        grid.shutdown()
    print(json.dumps({
        "fit_s": fit_s, "spawn_s": spawn_s, "comm_bytes": sent.value,
        "comm_messages": messages.value,
        "accuracy": float(clf.score(inputs.X_eval, inputs.y_eval))}))
    return 0


def main(argv, t_start: float) -> int:
    args = _parser().parse_args(argv)
    if args.command == "run":
        return _run(args, t_start)
    if args.command == "setup-only":
        return _setup_only(args, t_start)
    if args.command == "fit-only":
        return _fit_only(args)
    from .selfcheck import selfcheck
    return selfcheck(args)

"""``selfcheck``: do two sets of runs of this same checkout agree?

Runs two sets, A and B, of ``--runs`` untraced runs per workload at the
manifest's ``run_seconds``, interleaved A B B A ..., run *i* of both sets
on seed *i*.  For each end-to-end metric and workload it prints both
medians, their relative gap (signed so that positive means set B is
worse), each set's quartile spread as a share of its median — the two
numbers the driver gates a benchmark on — and the bound.  Exit status is
non-zero when a gap or a spread exceeds its bound (``setup_s`` is exempt
from the spread rule, as in the driver) or when a deterministic metric
differs between two runs on the same seed.  A wall-clock gap above half
its bound is marked, the issue's sign that a metric needs hardening.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List

from .metrics import DETERMINISTIC, END_TO_END, WORKLOADS
from .scenario import HERE, child_json


def host_facts() -> List[str]:
    import numpy

    from repro.runtime import host_context

    host = host_context()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [f"nproc: {host['visible_cores']}",
            f"BLAS: {blas.get('name')} {blas.get('version')}, threads "
            f"pinned to {os.environ.get('OPENBLAS_NUM_THREADS')}",
            f"Python: {host['python']}",
            f"NumPy: {host['numpy']}",
            f"platform: {host['platform']}"]


def spread(values: List[float]) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def selfcheck(args) -> int:
    manifest = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                            "BENCHMARK.json")
    with open(manifest, encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    print("# Ledger selfcheck\n")
    for fact in host_facts():
        print(f"- {fact}")
    print(f"- two sets of {args.runs} runs per workload (seeds "
          f"1..{args.runs}), {seconds} s each, order A B B A ...\n", flush=True)
    bad = 0
    for workload in WORKLOADS:
        sets: Dict[str, List[dict]] = {"A": [], "B": []}
        for i in range(args.runs):
            for s in ("AB", "BA")[i % 2]:
                result = child_json(["run", "--workload", workload,
                                     "--seed", str(i + 1),
                                     "--seconds", str(seconds), "--trace", "0"])
                bad += not result["correct"]
                sets[s].append(result["metrics"])
                print(f"  {workload} set {s} seed {i + 1} done",
                      file=sys.stderr)
        print(f"## {workload}\n\n"
              "| metric | unit | median A | median B | gap B vs A | "
              "spread A | spread B | bound | verdict |\n"
              "|---|---|---:|---:|---:|---:|---:|---:|---|")
        for name, unit, better, bound in END_TO_END:
            a = [m[name]["value"] for m in sets["A"]]
            b = [m[name]["value"] for m in sets["B"]]
            gap = (statistics.median(b) - statistics.median(a)) \
                / statistics.median(a)
            if better == "higher":
                gap = -gap
            worst_spread = max(spread(a), spread(b))
            verdict = "ok"
            if gap > bound:
                verdict = "GAP > bound"
            elif name != "setup_s" and worst_spread > bound:
                verdict = "SPREAD > bound"
            elif name in DETERMINISTIC and a != b:
                verdict = "NOT DETERMINISTIC"
            elif name not in DETERMINISTIC and abs(gap) > bound / 2:
                verdict = "ok (gap > bound/2)"
            bad += not verdict.startswith("ok")
            print(f"| {name} | {unit} | {statistics.median(a):.6g} | "
                  f"{statistics.median(b):.6g} | {100 * gap:+.2f} % | "
                  f"{100 * spread(a):.2f} % | {100 * spread(b):.2f} % | "
                  f"{100 * bound:.0f} % | {verdict} |")
        print(flush=True)
    print(f"result: {'FAIL' if bad else 'PASS'} ({bad} findings)")
    return 1 if bad else 0

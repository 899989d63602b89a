"""Smoke test of the ledger at ``--smoke`` sizes (n = 512, two rounds).

Collected by ``pytest benchmarks/ledger -q`` only — tier-1 stops at
``tests/``.  Asserts the output contract, not speed: every catalogued
metric is emitted exactly once per workload with its unit, names stay in
the driver's alphabet, and what should repeat exactly does.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from .metrics import DETERMINISTIC, END_TO_END, PER_LAYER, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_ledger(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger", "run", "--smoke",
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, timeout=170).stdout
    lines = out.decode("utf-8").strip().splitlines()
    result = json.loads(lines[-1])
    result["sha"] = [l for l in lines if "inputs_sha256" in l]
    return result


@pytest.fixture(scope="module")
def runs():
    """One untraced and one traced run per workload, and ``lowdim`` again.

    Nothing here asserts a time, so the seven processes run two at a time
    (one per core) to keep the suite under half a minute.
    """
    jobs = [(w, t) for t in (1, 0) for w in WORKLOADS] + [("lowdim", 0)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda job: run_ledger(*job), jobs))
    return {"again": results.pop(), **dict(zip(jobs, results))}


def check_shape(result: dict, catalogue) -> None:
    assert set(result) >= {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, *_ in catalogue]
    for name, unit, *_ in catalogue:
        assert NAME.match(name), name
        entry = result["metrics"][name]
        assert entry["unit"] == unit, name
        assert isinstance(entry["value"], (int, float)), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(runs, workload):
    result = runs[workload, 0]
    check_shape(result, END_TO_END)
    assert all(result["metrics"][name]["value"] > 0 for name, *_ in END_TO_END)


def test_same_seed_same_inputs_and_same_counts(runs):
    first, second = runs["lowdim", 0], runs["again"]
    assert first["sha"] == second["sha"] and first["sha"]
    for name in DETERMINISTIC:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(runs, workload):
    check_shape(runs[workload, 1], PER_LAYER)
    trace_file = os.path.join(ROOT, "benchmarks", "ledger", "_work",
                              f"trace_{workload}.json")
    with open(trace_file, encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    assert spans and all(
        {"id", "parent", "name", "run_id", "start_s", "end_s", "self_s",
         "counts"} <= set(s) for s in spans)
    assert all(s["self_s"] >= -1e-9 for s in spans)


def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in manifest["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["per_layer"]] == list(PER_LAYER)
    assert manifest["paths"] == ["benchmarks/ledger"]

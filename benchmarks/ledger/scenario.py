"""The untraced scenario: set-up, round-robin rounds, verification.

Every end-to-end metric comes from here.  All timed operations are done
once per round (short ones a few times) so each metric's samples are
spread over the whole run; the per-run value of a fixed-work timing is the
minimum over rounds (rates: the maximum), which on a shared host repeats
far better than a median — see the noise rules in ``README.md``.
"""

from __future__ import annotations

import copy
import http.client
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.krr import KernelRidgeClassifier
from repro.obs import global_registry
from repro.runtime import resolve_runtime_config
from repro.server import ServerApp
from repro.serving import ModelStore, PredictionEngine
from repro.utils import megabytes

from .metrics import END_TO_END
from .tracer import profiled_calls
from .workloads import BATCH_ROWS, Inputs, generate

HERE = os.path.dirname(os.path.abspath(__file__))
#: scratch space of a run (model store, span files); git-ignored
WORK_ROOT = os.path.join(HERE, "_work")
MODEL_NAME = "ledger"
SINGLE_REQUESTS = 300
#: measured rounds after the warm-up round, however slow the host
MIN_ROUNDS = 7
PREDICT_ROWS = 1024
PREDICT_CALLS = 4
ENGINE_BATCH = 256     # the daemon's default serving.batch_size


class Ops:
    """Operations attempted and failed; a failed check is a failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def did(self, n: int = 1) -> None:
        self.attempted += n

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def new_classifier(inputs: Inputs, **kwargs) -> KernelRidgeClassifier:
    """The model under test: HSS solver, serial, fixed sampling seed."""
    spec = inputs.spec
    return KernelRidgeClassifier(h=inputs.h, lam=inputs.lam, solver="hss",
                                 clustering=spec.clustering,
                                 leaf_size=spec.leaf_size, seed=0, **kwargs)


def counter(name: str) -> float:
    """Current value of one of the repo's own counters in this process."""
    return global_registry().counter(name).value


def kernel_evals() -> float:
    """Kernel entries evaluated so far in this process."""
    return counter("repro_kernel_element_evaluations_total")


class Daemon:
    """A ``ServerApp`` on a background thread, result cache off.

    With the default 1024-entry cache a round's 16 x 64 batched rows refill
    it exactly, so every request of the next round is a hit: the HTTP
    metrics would time a dictionary lookup and no change to ``kernels`` or
    ``engine`` could move them.  Every other setting is the default.
    """

    def __init__(self, store: ModelStore):
        config = resolve_runtime_config(env={}, flags={
            "serving.store": store.root, "serving.model": MODEL_NAME,
            "serving.cache_size": 0, "server.port": 0})
        self.app = ServerApp(config, store=store)
        self.addr = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "Daemon":
        ready = threading.Event()

        def on_ready(host, port):
            self.addr = (host, port)
            ready.set()

        self._thread = threading.Thread(
            target=self.app.run, kwargs={"ready": on_ready}, daemon=True)
        self._thread.start()
        if not ready.wait(60.0):
            raise RuntimeError("the HTTP daemon did not come up")
        return self

    def stop(self) -> None:
        self.app.request_shutdown()
        self._thread.join(60.0)
        if self._thread.is_alive():
            raise RuntimeError("the HTTP daemon did not drain")


class Client:
    """One keep-alive HTTP connection; a closed loop of one."""

    HEADERS = {"Content-Type": "application/json"}

    def __init__(self, addr):
        self.conn = http.client.HTTPConnection(addr[0], addr[1], timeout=60.0)

    def post(self, body: bytes):
        """``(status, raw payload, seconds)`` of one ``POST /v1/predict``."""
        t0 = time.perf_counter()
        self.conn.request("POST", "/v1/predict", body=body,
                          headers=self.HEADERS)
        resp = self.conn.getresponse()
        payload = resp.read()
        return resp.status, payload, time.perf_counter() - t0

    def close(self) -> None:
        self.conn.close()


def predictions_of(payload: bytes) -> np.ndarray:
    return np.asarray(json.loads(payload)["predictions"], dtype=np.float64)


@dataclass
class Bench:
    """What set-up leaves behind for the rounds."""

    inputs: Inputs
    base: KernelRidgeClassifier
    store: ModelStore
    daemon: Daemon
    workdir: str
    setup_s: float

    def close(self) -> None:
        try:
            self.daemon.stop()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)


def set_up(workload: str, seed: int, smoke: bool, t_start: float) -> Bench:
    """Inputs, first cold fit, saved artifact, HTTP daemon accepting."""
    inputs = generate(workload, seed, smoke=smoke)
    base = new_classifier(inputs).fit(inputs.X_train, inputs.y_train)
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        store = ModelStore(os.path.join(workdir, "store"))
        store.save(base, MODEL_NAME)
        daemon = Daemon(store).start()
    except BaseException:
        shutil.rmtree(workdir, ignore_errors=True)
        raise
    return Bench(inputs=inputs, base=base, store=store, daemon=daemon,
                 workdir=workdir, setup_s=time.perf_counter() - t_start)


def child_json(args: List[str], env: Optional[dict] = None) -> dict:
    """Run ``python -m benchmarks.ledger <args>``; parse its last line."""
    out = subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger"] + args,
        cwd=os.path.dirname(os.path.dirname(HERE)), env=env, check=True,
        stdout=subprocess.PIPE, timeout=150).stdout
    return json.loads(out.decode("utf-8").strip().splitlines()[-1])


def timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def one_round(bench: Bench, round_no: int, expected: np.ndarray, ops: Ops,
              out: Dict[str, List[float]]) -> None:
    """Every timed operation once; samples appended to ``out``.

    ``expected`` holds the classifier's labels of the query rows.
    """
    inp = bench.inputs
    base_w = bench.base.weights_

    clf, t = timed(lambda: new_classifier(inp).fit(inp.X_train, inp.y_train))
    out.setdefault("train_s", []).append(t)
    ops.check("cold fit reproduces the set-up fit bitwise",
              np.array_equal(clf.weights_, base_w))
    for lam in (2.0 * inp.lam, 0.5 * inp.lam, inp.lam):
        _, t = timed(lambda: clf.refit(lam))
        out.setdefault("refit_s", []).append(t)
        ops.did()
    ops.check("refit back to the original lambda reproduces the weights",
              np.array_equal(clf.weights_, base_w))
    if round_no % 2 == 1 or round_no == 0:   # the warm-up round does all
        _, t = timed(lambda: clf.refit_kernel(1.1 * inp.h))
        out.setdefault("h_move_s", []).append(t)
        ops.check("h-move yields finite weights",
                  bool(np.all(np.isfinite(clf.weights_))))
    del clf

    def load_and_predict():
        model = bench.store.load(MODEL_NAME)
        return model, model.predict(inp.X_query[:1])

    (model, first), t = timed(load_and_predict)
    out.setdefault("load_s", []).append(t)
    ops.check("reloaded model is bitwise equal to the original",
              np.array_equal(model.weights_, base_w)
              and np.array_equal(model.X_train_, bench.base.X_train_)
              and np.array_equal(first, expected[:1]))
    # Two updates from the same reloaded state: the second starts from an
    # untimed copy of it (a copy is 20-45 ms, another load 0.45 s).
    twin = copy.deepcopy(model)
    for state in (twin, model):
        _, t = timed(lambda: state.partial_fit(inp.X_add, inp.y_add,
                                               remove=inp.remove_idx))
        out.setdefault("update_s", []).append(t)
        ops.check("streamed update keeps the row count and finite weights",
                  state.X_train_.shape[0] == inp.spec.n_train
                  and bool(np.all(np.isfinite(state.weights_))))
    ops.check("both updates of the one state give the same weights bitwise",
              np.array_equal(twin.weights_, model.weights_))
    del model, twin, state

    # The fit above evicted everything: the first calls of a 13 ms
    # operation then read 21 and 15 ms, so two go untimed.
    engine = PredictionEngine(bench.base, batch_size=ENGINE_BATCH,
                              cache_size=0)
    rows = inp.X_query[:PREDICT_ROWS]
    for i in range(2 + PREDICT_CALLS):
        labels, t = timed(lambda: engine.predict_many(rows))
        if i >= 2:
            out.setdefault("predict_rows_per_s", []).append(rows.shape[0] / t)
        ops.check("engine predictions equal the classifier's",
                  np.array_equal(labels, expected[:rows.shape[0]]))
    engine.close()


def http_pass(bench: Bench, client: Client, expected: np.ndarray, ops: Ops,
              first_row: int = 0):
    """300 single-row and 16 x 64-row ``POST /v1/predict``, each verified.

    Returns the single-row latencies in ms and the batched rows per second.
    The single rows start at ``first_row`` and cycle through the query rows.
    """
    inp = bench.inputs
    hits = counter("repro_serving_cache_hits_total")
    computed = counter("repro_serving_rows_computed_total")
    latencies = []
    for i in range(SINGLE_REQUESTS):
        row = (first_row + i) % inp.spec.n_query
        status, payload, t = client.post(inp.single_bodies[row])
        latencies.append(t * 1e3)
        ops.check("single-row POST /v1/predict is 200 with the right label",
                  status == 200 and np.array_equal(
                      predictions_of(payload), expected[row:row + 1]))
    t_batch = 0.0
    for b, body in enumerate(inp.batch_bodies):
        status, payload, t = client.post(body)
        t_batch += t
        lo = b * BATCH_ROWS
        ops.check("64-row POST /v1/predict is bitwise the in-process result",
                  status == 200 and np.array_equal(
                      predictions_of(payload),
                      expected[lo:lo + BATCH_ROWS]))
    batch_rows = len(inp.batch_bodies) * BATCH_ROWS
    ops.check("the daemon computed every served row, none from a cache",
              counter("repro_serving_cache_hits_total") == hits
              and counter("repro_serving_rows_computed_total")
              == computed + SINGLE_REQUESTS + batch_rows)
    return latencies, batch_rows / t_batch


def run_rounds(bench: Bench, args, expected: np.ndarray, ops: Ops,
               start: float):
    """Measured rounds until ``args.seconds`` after ``start``, numbered from 1.

    Two fresh-interpreter set-ups run between rounds, a third and two
    thirds of the way through, so ``setup_s`` is sampled three times per
    run in three different stretches of host time.  Returns the samples
    and the number of rounds.
    """
    seconds = args.seconds
    samples: Dict[str, List[float]] = {"setup_s": [bench.setup_s]}
    # the smoke test wants one round and no children, whatever the clock says
    min_rounds = 1 if args.smoke else MIN_ROUNDS
    child_due = [] if args.smoke else [seconds / 3.0, 2.0 * seconds / 3.0]
    child_args = ["setup-only", "--workload", args.workload,
                  "--seed", str(args.seed)]
    rounds, last = 0, 0.0
    while True:
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed + 0.5 * last > seconds:
            break
        t0 = time.perf_counter()
        rounds += 1
        one_round(bench, rounds, expected, ops, samples)
        last = time.perf_counter() - t0
        while child_due and time.perf_counter() - start >= child_due[0]:
            child_due.pop(0)
            samples["setup_s"].append(child_json(child_args)["setup_s"])
            ops.did()
    for _ in child_due:     # a very slow host: still three set-ups
        samples["setup_s"].append(child_json(child_args)["setup_s"])
        ops.did()
    return samples, rounds


def deterministic_part(bench: Bench, ops: Ops) -> Dict[str, float]:
    """Counts, memory and accuracy; the dense reference comes last."""
    inp = bench.inputs
    before = kernel_evals()
    clf, calls = profiled_calls(
        lambda: new_classifier(inp).fit(inp.X_train, inp.y_train))
    evals = kernel_evals() - before
    ops.check("profiled fit reproduces the set-up fit bitwise",
              np.array_equal(clf.weights_, bench.base.weights_))
    solver = bench.base.solver_
    memory = (solver.report.hss_memory_mb
              + megabytes(solver.factorization_.factor_bytes))
    accuracy = float(bench.base.score(inp.X_eval, inp.y_eval))
    dense = KernelRidgeClassifier(
        h=inp.h, lam=inp.lam, solver="dense",
        clustering=inp.spec.clustering, leaf_size=inp.spec.leaf_size, seed=0)
    dense.fit(inp.X_train, inp.y_train)
    dense_accuracy = float(dense.score(inp.X_eval, inp.y_eval))
    ops.check("accuracy is above chance", accuracy > 0.55)
    return {"train_py_calls": float(calls), "train_kernel_evals": float(evals),
            "model_memory_mb": float(memory), "accuracy": accuracy,
            "accuracy_vs_dense": accuracy / dense_accuracy}


def summarize(samples: Dict[str, List[float]]) -> Dict[str, Dict[str, float]]:
    """Per-run value: minimum over rounds (rates: maximum); median beside it."""
    values: Dict[str, Dict[str, float]] = {}
    for name, _, better, _ in END_TO_END:
        if name in samples:
            best = min if better == "lower" else max
            values[name] = {"value": best(samples[name]),
                            "med": float(np.median(samples[name]))}
    return values


def run_untraced(bench: Bench, args, ops: Ops):
    """The untraced scenario after set-up: ``(name -> record, rounds)``.

    The daemon that set-up started is not timed here (on this host a lone
    client's latency moves by a fifth with the neighbours, see README.md);
    one verified pass of requests shows that it serves what the classifier
    predicts.

    ``peak_rss_mb`` is read after set-up, the warm-up round and that pass:
    every operation of the scenario once, the same work on every host.  The
    resident set creeps up by 20-100 MB over the further rounds, and how many
    rounds fit into the window is the host's doing, not the program's.
    """
    expected = bench.base.predict(bench.inputs.X_query)
    start = time.perf_counter()
    one_round(bench, 0, expected, ops, {})      # warm-up, discarded
    client = Client(bench.daemon.addr)
    try:
        http_pass(bench, client, expected, ops)
    finally:
        client.close()
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples, rounds = run_rounds(bench, args, expected, ops, start)
    values = summarize(samples)
    values["peak_rss_mb"] = {"value": peak_rss}
    for name, value in deterministic_part(bench, ops).items():
        values[name] = {"value": value}
    return values, rounds

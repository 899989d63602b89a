"""The traced run: per-layer metrics, measured from outside.

The fit is replayed stage by stage through each layer's public functions
(``cluster`` -> ``build_hmatrix`` -> ``build_hss_randomized`` ->
``ULVFactorization.factor`` -> ``solve``) and the serving path hop by hop
(``read_request`` -> JSON decode -> ``PredictionService.submit`` ->
``render_response``), each call wrapped in a benchmark-side span.  A layer
is named after its ``repro`` module.  Nothing here feeds an end-to-end
metric; those come from untraced rounds only.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from typing import Callable, Dict, List

import numpy as np

from repro import obs
from repro.clustering import cluster
from repro.config import HMatrixOptions, HSSOptions
from repro.hmatrix import HMatrixSampler, build_hmatrix
from repro.hss import ULVFactorization, build_hss_randomized
from repro.kernels import KernelOperator, get_kernel
from repro.krr import HSSSolver
from repro.lowrank import aca
from repro.server import HttpResponse, read_request, render_response
from repro.serving import PredictionEngine, PredictionService
from repro.tuning import (GridSearch, KRRObjective, LogUniformParameter,
                          ParameterSpace)
from repro.utils import megabytes

from . import scenario
from .scenario import (MODEL_NAME, WORK_ROOT, Bench, Client, Ops, kernel_evals,
                       new_classifier, timed)
from .tracer import Tracer, profiled_calls

STAGES = ("clustering.cluster", "hmatrix.build", "hss.build", "ulv.factor",
          "ulv.solve")
SERVER_BATCH_WINDOW = 0.001     # the daemon's default serving.batch_window
HOP_REQUESTS = 200


def best_of(fn: Callable[[], object], repeats: int) -> float:
    """Minimum wall time of ``repeats`` calls."""
    return min(timed(fn)[1] for _ in range(repeats))


def staged_fit(inp, wrap) -> dict:
    """One fit replayed through the layers' public functions.

    ``wrap(name, fn)`` decides how a stage is observed: under a span for
    the timing rounds, under the profiler for the call counts.
    """
    spec = inp.spec
    result = wrap("clustering.cluster", lambda: cluster(
        inp.X_train, method=spec.clustering, leaf_size=spec.leaf_size, seed=0))
    X_perm, tree = result.X, result.tree
    operator = KernelOperator(
        X_perm, get_kernel("gaussian", h=inp.h),
        col_tile=HSSSolver.DEFAULT_MATMAT_COL_TILE)
    before = kernel_evals()
    hmatrix = wrap("hmatrix.build", lambda: build_hmatrix(
        operator, X_perm, tree, options=HMatrixOptions()))
    sampler = HMatrixSampler(hmatrix, operator)
    hss, _ = wrap("hss.build", lambda: build_hss_randomized(
        sampler, tree, options=HSSOptions(), rng=0))
    evals_compress = kernel_evals() - before
    ulv = wrap("ulv.factor", lambda: ULVFactorization.factor(hss, lam=inp.lam))
    weights = wrap("ulv.solve",
                   lambda: ulv.solve(result.permute_labels(inp.y_train)))
    return dict(tree=tree, operator=operator, hmatrix=hmatrix, hss=hss,
                ulv=ulv, weights=weights, evals_compress=evals_compress)


def fit_rounds(bench: Bench, tracer: Tracer, seconds: float, smoke: bool,
               ops: Ops) -> dict:
    """Interleave traced staged fits with plain fits; keep the last replay."""
    inp = bench.inputs

    def spanned(name, fn):
        before = kernel_evals()
        with tracer.span(name) as record:
            result = fn()
            record["counts"]["kernel_evals"] = kernel_evals() - before
        return result

    plain: List[float] = []
    start = time.perf_counter()
    min_rounds = 2 if smoke else 3      # round 0 is warm-up
    rounds = 0
    while (rounds < min_rounds
           or time.perf_counter() - start < 0.2 * seconds):
        with tracer.span("krr.fit_staged", round=rounds):
            state = staged_fit(inp, spanned)
        _, t = timed(lambda: new_classifier(inp).fit(inp.X_train, inp.y_train))
        plain.append(t)
        ops.did(2)
        rounds += 1
    ops.check("the staged replay reproduces the fit's weights bitwise",
              np.array_equal(state["weights"], bench.base.weights_))
    stage = {name: tracer.durations(name)[1:] for name in STAGES}
    state["stage_min"] = {name: min(times) for name, times in stage.items()}
    state["stage_sum_s"] = min(sum(per_round)
                               for per_round in zip(*stage.values()))
    state["staged_total_s"] = min(tracer.durations("krr.fit_staged")[1:])
    state["train_s"] = min(plain[1:])
    return state


def call_counts(bench: Bench, ops: Ops):
    """Exact Python + C call counts per stage; ``(metrics, span-file header)``."""
    counts: Dict[str, int] = {}

    def profiled(name, fn):
        result, calls = profiled_calls(fn)
        counts[name] = counts.get(name, 0) + calls
        return result

    inp = bench.inputs
    staged_fit(inp, profiled)
    _, whole = profiled_calls(
        lambda: new_classifier(inp).fit(inp.X_train, inp.y_train))
    staged_sum = sum(counts.values())
    ops.check("per-stage call counts add up to the whole fit's within 5 %",
              abs(staged_sum - whole) <= 0.05 * whole)
    return ({"clustering.py_calls": counts["clustering.cluster"],
             "hmatrix.py_calls": counts["hmatrix.build"],
             "hss.py_calls": counts["hss.build"],
             "ulv.py_calls": counts["ulv.factor"] + counts["ulv.solve"]},
            {"whole_fit_calls": whole, "staged_calls": staged_sum})


def numerics_layers(bench: Bench, state: dict, tracer: Tracer
                    ) -> Dict[str, float]:
    """Micro-operations on the objects the last staged replay left."""
    inp = bench.inputs
    tree, operator = state["tree"], state["operator"]
    hmatrix, hss, ulv = state["hmatrix"], state["hss"], state["ulv"]
    n = tree.n
    rng = np.random.default_rng(0)
    m = {}
    k = min(1024, n)
    idx = np.arange(k, dtype=np.intp)
    with tracer.span("kernels.block", rows=k, cols=k):
        m["kernels.block_1k_s"] = best_of(lambda: operator.block(idx, idx), 5)
    m["kernels.evals_compress"] = state["evals_compress"]
    m["kernels.evals_per_query"] = bench.base.X_train_.shape[0]

    # ACA of the H matrix's highest-rank admissible block; without
    # reordering there is none, so the root's off-diagonal block stands in.
    admissible = [b for b in hmatrix.blocks if b.lowrank is not None]
    if admissible:
        block = max(admissible, key=lambda b: b.rank)
        rows = np.arange(block.row_slice.start, block.row_slice.stop)
        cols = np.arange(block.col_slice.start, block.col_slice.stop)
    else:
        root = tree.node(tree.root)
        rows, cols = tree.indices(root.left), tree.indices(root.right)

    def run_aca():
        return aca(rows.size, cols.size,
                   lambda i: operator.block(rows[i:i + 1], cols).ravel(),
                   lambda j: operator.block(rows, cols[j:j + 1]).ravel(),
                   rel_tol=HMatrixOptions().rel_tol)

    with tracer.span("lowrank.aca", rows=int(rows.size), cols=int(cols.size)):
        m["lowrank.aca_block_s"] = best_of(run_aca, 3)
    m["lowrank.aca_rank"] = run_aca().lowrank.rank

    V = rng.standard_normal((n, 64))
    with tracer.span("hmatrix.matmat", cols=64):
        m["hmatrix.matmat64_s"] = best_of(lambda: hmatrix.matmat(V), 3)
    h_stats = hmatrix.statistics()
    m["hmatrix.memory_mb"] = h_stats.memory_mb
    m["hmatrix.lowrank_blocks"] = h_stats.admissible_blocks
    m["hmatrix.dense_blocks"] = h_stats.dense_blocks

    v = rng.standard_normal(n)
    with tracer.span("hss.matvec"):
        m["hss.matvec_s"] = best_of(lambda: hss.matvec(v), 5)
    s_stats = hss.statistics()
    m["hss.max_rank"] = s_stats.max_rank
    m["hss.memory_mb"] = s_stats.memory_mb

    lams = [inp.lam * f for f in (1.0, 2.0, 4.0, 8.0)]
    with tracer.span("ulv.factor_many", shifts=4):
        m["ulv.factor_many4_s"] = best_of(
            lambda: ULVFactorization.factor_many(hss, lams), 2)
    m["ulv.memory_mb"] = megabytes(ulv.factor_bytes)

    rows_1k = inp.X_query[:scenario.PREDICT_ROWS]
    with tracer.span("krr.predict", rows=int(rows_1k.shape[0])):
        m["krr.predict_1k_s"] = best_of(lambda: bench.base.predict(rows_1k), 3)
    return m


def stream_layer(bench: Bench, tracer: Tracer, ops: Ops) -> Dict[str, float]:
    inp = bench.inputs
    adds, removes = [], []
    for _ in range(2):
        model = bench.store.load(MODEL_NAME)
        with tracer.span("stream.add", rows=int(inp.X_add.shape[0])):
            _, t = timed(lambda: model.partial_fit(inp.X_add, inp.y_add))
        adds.append(t)
        with tracer.span("stream.remove", rows=int(inp.remove_idx.size)):
            _, t = timed(lambda: model.partial_fit(remove=inp.remove_idx))
        removes.append(t)
        ops.did(2)
    return {"stream.add32_s": min(adds), "stream.remove32_s": min(removes),
            "stream.correction_rank": model.stream_info_["correction_rank"]}


def tuning_layer(bench: Bench, tracer: Tracer, ops: Ops) -> Dict[str, float]:
    """A 3 x 3 (h, lambda) grid on the hss backend: 1 cold, 2 h-moves, 6 lambda-moves."""
    inp = bench.inputs
    n_val = min(512, inp.X_eval.shape[0])
    objective = KRRObjective(inp.X_train, inp.y_train, inp.X_eval[:n_val],
                             inp.y_eval[:n_val], solver="hss",
                             leaf_size=inp.spec.leaf_size, seed=0)
    space = ParameterSpace([
        LogUniformParameter("h", inp.h / 1.5, inp.h * 1.5),
        LogUniformParameter("lam", inp.lam / 2.0, inp.lam * 2.0)])
    with tracer.span("tuning.grid", evaluations=9):
        result, t = timed(
            lambda: GridSearch(space, points_per_dim=3).optimize(objective))
    ops.check("the grid search made nine evaluations", result.evaluations == 9)
    return {"tuning.grid3x3_s": t,
            "tuning.cold_evals": result.moves.get("cold", 0),
            "tuning.h_moves": result.moves.get("h_move", 0),
            "tuning.lam_moves": result.moves.get("lam_move", 0)}


def parallel_layers(bench: Bench, tracer: Tracer, ops: Ops, args,
                    train_s: float) -> Dict[str, float]:
    """Threads, default BLAS and two worker processes; informational only."""
    inp = bench.inputs
    m = {}
    with tracer.span("parallel.train_w2"):
        clf, t = timed(lambda: new_classifier(inp, workers=2).fit(
            inp.X_train, inp.y_train))
    ops.check("two worker threads give the serial weights bitwise",
              np.array_equal(clf.weights_, bench.base.weights_))
    m["parallel.train_w2_s"] = t
    m["parallel.speedup_w2"] = train_s / t

    env = {k: v for k, v in os.environ.items() if k not in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    inputs = ["--workload", args.workload, "--seed", str(args.seed)] \
        + (["--smoke"] if args.smoke else [])
    with tracer.span("parallel.train_blas2"):
        m["parallel.train_blas2_s"] = scenario.child_json(
            ["fit-only", "--default-blas"] + inputs, env)["fit_s"]
    ops.did()

    # Two worker processes, in a child of their own: the grid's processes
    # and multiprocessing's shared-memory tracker all end with that child,
    # long before this run does.
    with tracer.span("distributed.child", shards=2):
        sharded = scenario.child_json(["fit-only", "--shards", "2"] + inputs)
    ops.check("the two-process fit classifies above chance",
              sharded["accuracy"] > 0.55)
    m["distributed.spawn_s"] = sharded["spawn_s"]
    m["distributed.train_p2_s"] = sharded["fit_s"]
    m["distributed.comm_bytes"] = sharded["comm_bytes"]
    m["distributed.comm_messages"] = sharded["comm_messages"]
    return m


def serialize_layer(bench: Bench, tracer: Tracer, ops: Ops) -> Dict[str, float]:
    saves, loads = [], []
    for _ in range(2):
        with tracer.span("serialize.save"):
            record, t = timed(lambda: bench.store.save(
                bench.base, "ledger-probe", overwrite=True))
        saves.append(t)
        with tracer.span("serialize.load"):
            model, t = timed(lambda: bench.store.load("ledger-probe"))
        loads.append(t)
        ops.did(2)
    ops.check("the probe artifact reloads bitwise",
              np.array_equal(model.weights_, bench.base.weights_))
    return {"serialize.save_s": min(saves), "serialize.load_s": min(loads),
            "serialize.artifact_mb": megabytes(
                os.path.getsize(record.archive_path))}


def serving_hops(bench: Bench, tracer: Tracer, ops: Ops) -> Dict[str, float]:
    """One request's path, hop by hop, through the public functions."""
    inp = bench.inputs
    n_query = inp.spec.n_query
    expected = bench.base.predict(inp.X_query)
    m = {}

    engine = PredictionEngine(bench.base, cache_size=0)
    singles = []
    for i in range(HOP_REQUESTS):
        _, t = timed(lambda: engine.predict(inp.X_query[i % n_query]))
        singles.append(t)
    m["engine.single_row_us"] = np.median(singles) * 1e6
    rows = inp.X_query[:scenario.PREDICT_ROWS]
    with tracer.span("engine.batch", rows=int(rows.shape[0])):
        m["engine.batch1k_s"] = best_of(lambda: engine.predict_many(rows), 3)
    probe = PredictionEngine(bench.base, cache_size=1024)
    repeated = inp.X_query[:min(256, n_query)]
    probe.predict_many(repeated)
    probe.predict_many(repeated)
    m["engine.cache_hit_rate"] = probe.stats.hit_rate
    probe.close()
    ops.did(HOP_REQUESTS + 5)

    loop = asyncio.new_event_loop()
    head = (b"POST /v1/predict HTTP/1.1\r\nHost: ledger\r\n"
            b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n")

    def parse(raw: bytes):
        async def feed_and_read():
            # the reader binds to the running loop, so it is made in here
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            return await read_request(reader)
        return loop.run_until_complete(feed_and_read())

    service = PredictionService(engine, max_batch=256,
                                batch_window=SERVER_BATCH_WINDOW).start()
    try:
        for i in range(HOP_REQUESTS):
            row = i % n_query
            body = inp.single_bodies[row]
            with tracer.span("server.request", request=i):
                with tracer.span("http.parse", bytes=len(body)):
                    request = parse(head % len(body) + body)
                with tracer.span("server.json_decode"):
                    X = np.asarray(request.json()["inputs"], dtype=np.float64)
                with tracer.span("service.submit", rows=int(X.shape[0])):
                    label = service.submit(X[0]).result(timeout=60.0)
                with tracer.span("http.render"):
                    wire = render_response(HttpResponse.json({
                        "model": MODEL_NAME, "version": 1, "count": 1,
                        "predictions": [float(label)]}), keep_alive=True)
            ops.check("the hop-by-hop replay returns the classifier's label",
                      label == expected[row] and wire.startswith(b"HTTP/1.1 200"))
        m["service.mean_batch"] = service.stats().mean_batch_size
    finally:
        service.stop()
        engine.close()
        loop.close()
    m["http.parse_us"] = np.median(tracer.durations("http.parse")) * 1e6
    m["server.json_decode_us"] = np.median(
        tracer.durations("server.json_decode")) * 1e6
    m["service.submit_p50_ms"] = np.median(
        tracer.durations("service.submit")) * 1e3
    m["http.render_us"] = np.median(tracer.durations("http.render")) * 1e6

    # The daemon end to end, one closed-loop client: three passes of 300
    # single-row and 16 x 64-row requests; the best pass counts, as the
    # best round does for the end-to-end timings.
    client = Client(bench.daemon.addr)
    passes = []
    try:
        for k in range(3):
            with tracer.span("server.http_pass", requests=scenario.SINGLE_REQUESTS
                             + len(inp.batch_bodies)):
                passes.append(scenario.http_pass(
                    bench, client, expected, ops,
                    first_row=k * scenario.SINGLE_REQUESTS))
    finally:
        client.close()
    m["server.http_p50_ms"] = min(np.median(lat) for lat, _ in passes)
    m["server.http_p99_ms"] = np.percentile(
        [t for lat, _ in passes for t in lat], 99.0)
    m["server.http_batch_rows_per_s"] = max(rate for _, rate in passes)
    m["server.overhead_ms"] = (m["server.http_p50_ms"]
                               - m["service.submit_p50_ms"])

    statuses: List[int] = []
    lock = threading.Lock()
    per_client = HOP_REQUESTS // 2

    def closed_loop(offset: int) -> None:
        c = Client(bench.daemon.addr)
        try:
            mine = [c.post(inp.single_bodies[(offset + i) % n_query])[0]
                    for i in range(per_client)]
        finally:
            c.close()
        with lock:
            statuses.extend(mine)

    threads = [threading.Thread(target=closed_loop, args=(k * per_client,))
               for k in range(2)]
    with tracer.span("server.c2", clients=2, requests=2 * per_client):
        t0 = time.perf_counter()
        for th in threads:
            th.start()
        for th in threads:
            th.join(120.0)
        wall = time.perf_counter() - t0
    ops.check("both closed-loop clients finished",
              len(statuses) == 2 * per_client)
    ops.did(2 * per_client - 1)
    m["server.rps_c2"] = len(statuses) / wall
    m["server.rejected_share"] = (
        sum(1 for s in statuses if s != 200) / max(1, len(statuses)))
    return m


def obs_layer(bench: Bench, tracer: Tracer, ops: Ops) -> float:
    """Cold fit with the repo's telemetry on vs off, interleaved."""
    inp = bench.inputs
    on, off = [], []
    try:
        for _ in range(2):
            for enabled, sink in ((True, on), (False, off)):
                obs.set_enabled(enabled)
                with tracer.span("obs.fit", enabled=int(enabled)):
                    _, t = timed(lambda: new_classifier(inp).fit(
                        inp.X_train, inp.y_train))
                sink.append(t)
                ops.did()
    finally:
        obs.set_enabled(True)
    return min(on) / min(off)


def run_traced(bench: Bench, args, ops: Ops):
    """All per-layer metrics of one workload; writes the span file."""
    tracer = Tracer(run_id=f"{args.workload}-{args.seed}")
    state = fit_rounds(bench, tracer, args.seconds, args.smoke, ops)
    m: Dict[str, float] = {}
    m["clustering.tree_s"] = state["stage_min"]["clustering.cluster"]
    m["clustering.leaves"] = len(state["tree"].leaves())
    m["clustering.depth"] = state["tree"].depth()
    m["hmatrix.build_s"] = state["stage_min"]["hmatrix.build"]
    m["hss.build_s"] = state["stage_min"]["hss.build"]
    m["ulv.factor_s"] = state["stage_min"]["ulv.factor"]
    m["ulv.solve_s"] = state["stage_min"]["ulv.solve"]
    m["krr.stage_sum_s"] = state["stage_sum_s"]
    m["trace.overhead_ratio"] = state["staged_total_s"] / state["train_s"]
    ops.check("the stage spans add up to the untraced fit within 15 %",
              abs(state["stage_sum_s"] - state["train_s"])
              <= 0.15 * state["train_s"])
    counts, header = call_counts(bench, ops)
    m.update(counts)
    m.update(numerics_layers(bench, state, tracer))
    m.update(stream_layer(bench, tracer, ops))
    m.update(tuning_layer(bench, tracer, ops))
    m.update(parallel_layers(bench, tracer, ops, args, state["train_s"]))
    m.update(serialize_layer(bench, tracer, ops))
    m.update(serving_hops(bench, tracer, ops))
    m["obs.overhead_ratio"] = obs_layer(bench, tracer, ops)

    path = os.path.join(WORK_ROOT, f"trace_{args.workload}.json")
    tracer.write(path, workload=args.workload, seed=args.seed,
                 inputs_sha256=bench.inputs.sha256,
                 train_s=state["train_s"], **header)
    return {name: {"value": float(value)} for name, value in m.items()}, path

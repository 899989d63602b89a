"""Tests of the process-sharded training path (`repro.distributed`).

Covers the acceptance contract of the subsystem:

* :class:`ShardPlan` is a bitwise-deterministic, validity-checked cut of
  the cluster tree for any shard count, and round-trips through an
  archive;
* the shared-memory transport moves numpy blocks between processes
  without pickling payloads, one segment (one file descriptor) per
  message whatever its number of arrays;
* a sharded fit reproduces the serial fit's predictions
  within the documented tolerance (label-exact at tight compression
  tolerances) for 2 and 4 shards, deterministically across runs;
* the worker grid only builds: after a fit, ``refit``, ``solve`` and
  ``partial_fit`` run on the shard kernels collected into this process
  and send no grid message, so a fitted model outlives its grid;
* a crashed worker fails the next fit round promptly and leaves no
  orphaned processes.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest
from conftest import wait_until

from repro.clustering import cluster
from repro.config import HMatrixOptions, HSSOptions
from repro.datasets import load_dataset, standardize, susy_like
from repro.distributed import (DistributedError, DistributedSolver,
                               ShardPlan, WorkerCrashedError, WorkerGrid,
                               resolve_shards)
from repro.distributed import ShardKernel
from repro.distributed import worker as worker_module
from repro.distributed.comm import ArraySpec, BlockChannel, SharedArray
from repro.distributed.worker import FitSpec, WorkerConfig, _ShardState
from repro.hss import ULVFactorization
from repro.kernels import GaussianKernel
from repro.krr import KernelRidgeClassifier
from repro.krr.solvers import HSSSolver, KernelSystemSolver
from repro.obs import global_registry
from repro.runtime import resolve_runtime_config
from repro.server import ModelRouter
from repro.serving import ModelStore, PredictionEngine, kernel_to_spec

#: compression tolerance pinned tight so sharded-vs-serial deviations stay
#: far below the decision margins (documented contract: the coupling ACA
#: tolerance bounds the deviation of the sharded solve).
TIGHT = HSSOptions(rel_tol=1e-6, initial_samples=48)


@pytest.fixture(scope="module")
def small_problem():
    data = load_dataset("susy", n_train=384, n_test=96, seed=0)
    return data


@pytest.fixture(scope="module")
def clustered_tree():
    X, _ = susy_like(256, seed=3)
    X = standardize(X)
    return cluster(X, method="two_means", leaf_size=16, seed=3)


@pytest.fixture(scope="module")
def sharded_clf(small_problem):
    """One ``shards=2`` classifier fit shared by the tests that only read
    it (its solver's grid is closed when ``fit`` returns)."""
    data = small_problem
    return KernelRidgeClassifier(
        h=data.h, lam=data.lam, solver="hss", seed=0, shards=2,
        solver_options={"hss_options": TIGHT}).fit(data.X_train,
                                                   data.y_train)


@pytest.fixture(scope="module")
def cold_at_2lam(small_problem):
    """A closed ``DistributedSolver`` fitted cold at twice the bundle's λ:
    what every λ-refit to ``2 lam`` must reproduce bitwise."""
    X_perm, tree, kernel, lam = _cluster_problem(small_problem)
    solver = _make_distributed_solver()
    try:
        return solver.fit(X_perm, tree, kernel, 2.0 * lam)
    finally:
        solver.close()


@pytest.fixture(scope="module")
def serial_clf(small_problem):
    """The serial hss classifier a sharded fit is compared against."""
    data = small_problem
    # shards=1 pinned explicitly: under the CI REPRO_SHARDS=2 leg the
    # baseline must stay the in-process serial solver, or the equivalence
    # test would compare sharded against sharded.
    return KernelRidgeClassifier(
        h=data.h, lam=data.lam, solver="hss", seed=0, shards=1,
        solver_options={"hss_options": TIGHT}).fit(data.X_train,
                                                   data.y_train)


# ---------------------------------------------------------------------------
# ShardPlan
# ---------------------------------------------------------------------------

class TestShardPlan:
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 4, 5, 8])
    def test_partition_and_determinism(self, clustered_tree, n_shards):
        tree = clustered_tree.tree
        plan = ShardPlan.from_tree(tree, n_shards)
        assert plan.n_shards == n_shards
        # Boundaries partition [0, n) and every shard is non-empty.
        assert plan.boundaries[0] == 0 and plan.boundaries[-1] == tree.n
        assert (plan.shard_sizes() > 0).all()
        # Subtrees are valid ClusterTrees of exactly the shard sizes.
        for s in range(n_shards):
            sub = plan.subtree(s)
            assert sub.n == plan.shard_size(s)
            assert sub.node(sub.root).start == 0
        # Bitwise deterministic: a rebuild yields the identical plan.
        assert plan == ShardPlan.from_tree(tree, n_shards)

    def test_pair_ownership(self, clustered_tree):
        plan = ShardPlan.from_tree(clustered_tree.tree, 4)
        pairs = plan.pairs()
        assert len(pairs) == 6
        # Every pair is owned by exactly one of its members, and every
        # shard's owned set is consistent with the global rule.
        owned = [p for s in range(4) for p in plan.owned_pairs(s)]
        assert sorted(owned) == sorted(pairs)
        for (s, t) in pairs:
            assert plan.pair_owner(s, t) in (s, t)

    def test_too_many_shards_raises(self, clustered_tree):
        n_leaves = len(clustered_tree.tree.leaves())
        with pytest.raises(ValueError, match="leaves"):
            ShardPlan.from_tree(clustered_tree.tree, n_leaves + 1)

    def test_roundtrip_through_an_archive(self, clustered_tree, tmp_path):
        plan = ShardPlan.from_tree(clustered_tree.tree, 3)
        arrays = plan.to_arrays()
        # Through an actual archive, like any other persisted payload.
        path = os.path.join(tmp_path, "plan.npz")
        np.savez(path, **arrays)
        with np.load(path) as npz:
            loaded = {k: npz[k] for k in npz.files}
        restored = ShardPlan.from_arrays(loaded, clustered_tree.tree)
        assert restored == plan
        assert np.array_equal(restored.boundaries, plan.boundaries)
        assert [t.n for t in restored.subtrees()] == \
            [t.n for t in plan.subtrees()]


def test_sharded_only_options_ignored_on_serial_path(monkeypatch,
                                                     small_problem):
    """solver_options documented for the sharded path must not crash a
    single-process fit (they are ignored there)."""
    monkeypatch.delenv("REPRO_SHARDS", raising=False)
    data = small_problem
    clf = KernelRidgeClassifier(
        h=data.h, lam=data.lam, solver="hss", seed=0,
        solver_options={"hss_options": TIGHT, "coupling_rel_tol": 1e-5,
                        "cut_level": 1, "grid": None})
    clf.fit(data.X_train[:128], data.y_train[:128])
    assert clf.solver_.report.shards == 1


def test_resolve_shards(monkeypatch):
    monkeypatch.delenv("REPRO_SHARDS", raising=False)
    assert resolve_shards(None) == 1
    assert resolve_shards(3) == 3
    assert resolve_shards(0) >= 1
    monkeypatch.setenv("REPRO_SHARDS", "2")
    assert resolve_shards(None) == 2
    with pytest.raises(ValueError):
        resolve_shards(-1)


@pytest.mark.parametrize("garbage", ["junk", "0", "-1", "1.5"])
def test_resolve_shards_env_garbage_raises(monkeypatch, garbage):
    """Invalid/zero/negative REPRO_SHARDS must fail loudly, naming the
    variable, instead of being silently ignored."""
    monkeypatch.setenv("REPRO_SHARDS", garbage)
    with pytest.raises(ValueError, match="REPRO_SHARDS"):
        resolve_shards(None)
    # Explicit arguments bypass the environment entirely.
    assert resolve_shards(2) == 2


# ---------------------------------------------------------------------------
# Shared-memory transport
# ---------------------------------------------------------------------------

class TestComm:
    def test_shared_array_roundtrip(self):
        a = np.arange(24, dtype=np.float64).reshape(4, 6) * np.pi
        sa = SharedArray.from_array(a)
        try:
            spec = sa.spec
            assert isinstance(spec, ArraySpec)
            attached = SharedArray.attach(spec)
            assert np.array_equal(attached.array, a)
            attached.close()
            with pytest.raises(RuntimeError):
                _ = attached.array
        finally:
            sa.unlink()

    def test_block_channel_moves_arrays(self):
        queue = multiprocessing.get_context("spawn").Queue()
        sender, receiver = BlockChannel(queue), BlockChannel(queue)
        payload = {"k": 3}
        a = np.random.default_rng(0).standard_normal((8, 3))
        sender.send("data", payload, arrays={"a": a, "empty": np.zeros((0, 2))})
        tag, got_payload, arrays = receiver.recv(timeout=10.0)
        assert tag == "data" and got_payload == payload
        assert np.array_equal(arrays["a"], a)
        assert arrays["empty"].shape == (0, 2)
        # The received arrays are private copies, not shared views.
        arrays["a"][0, 0] = -1.0
        sender.drain()
        queue.close()

    def test_a_message_of_30000_arrays_sends_under_a_low_descriptor_limit(
            self):
        """A shard's collected factors are thousands of arrays; a message
        packs them into one segment, so it sends — bitwise, each array in
        its memory order — in a process that lowered its own
        ``RLIMIT_NOFILE`` (a per-process limit) far below that count."""
        script = textwrap.dedent("""
            import multiprocessing, resource
            import numpy as np
            from repro.distributed.comm import BlockChannel

            rng = np.random.default_rng(0)
            arrays = {}
            for i in range(30_000):
                a = rng.standard_normal((2 + i % 3, 3))
                arrays[f"node.{i}"] = np.asfortranarray(a) if i % 2 else a
            arrays["empty"] = np.zeros((0, 4))
            arrays["piv"] = np.arange(5, dtype=np.int32)
            queue = multiprocessing.get_context("spawn").Queue()
            sender, receiver = BlockChannel(queue), BlockChannel(queue)
            _, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
            resource.setrlimit(resource.RLIMIT_NOFILE, (128, hard))
            sender.send("collect", {"n": len(arrays)}, arrays=arrays)
            tag, payload, got = receiver.recv(timeout=60.0)
            sender.drain()
            queue.close()
            assert tag == "collect" and payload == {"n": len(arrays)}
            assert list(got) == list(arrays)
            for key, a in arrays.items():
                b = got[key]
                assert b.dtype == a.dtype and b.shape == a.shape, key
                assert b.flags.f_contiguous == a.flags.f_contiguous, key
                assert b.flags.c_contiguous == a.flags.c_contiguous, key
                assert b.tobytes(order="A") == a.tobytes(order="A"), key
            print("received", len(got))
        """)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout.strip() == "received 30002"


# ---------------------------------------------------------------------------
# Sharded-vs-serial equivalence (acceptance criterion)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shards", [2, 4])
def test_sharded_matches_serial_predictions(small_problem, serial_clf,
                                            sharded_clf, shards):
    data = small_problem
    dist = sharded_clf if shards == 2 else KernelRidgeClassifier(
        h=data.h, lam=data.lam, seed=0, shards=shards,
        solver_options={"hss_options": TIGHT}).fit(data.X_train,
                                                   data.y_train)
    assert dist.report.shards == shards

    s_serial = serial_clf.decision_function(data.X_test)
    s_dist = dist.decision_function(data.X_test)
    # Documented tolerance: both solves approximate the same system at the
    # pinned compression tolerance; the decision values track each other
    # to a small multiple of it and the predicted labels coincide.
    rel_dev = np.max(np.abs(s_serial - s_dist)) / np.max(np.abs(s_serial))
    assert rel_dev < 5e-3, f"decision values deviate by {rel_dev:.2e}"
    assert np.array_equal(serial_clf.predict(data.X_test),
                          dist.predict(data.X_test))
    assert dist.score(data.X_test, data.y_test) == pytest.approx(
        serial_clf.score(data.X_test, data.y_test), abs=1e-12)

    # The one serving engine reproduces the sharded classifier bitwise.
    with PredictionEngine(dist, batch_size=64, cache_size=32) as svc:
        labels = svc.predict_many(data.X_test)
        scores = svc.decision_many(data.X_test)
    assert np.array_equal(labels, dist.predict(data.X_test))
    assert np.array_equal(scores, dist.decision_function(
        data.X_test, block_size=64))


@pytest.mark.slow
def test_two_shards_train_at_n8192():
    """At n = 8 192 a shard's factors are thousands of arrays: with one
    shared-memory segment per array the worker ran out of file descriptors
    ("Too many open files") on a host with ``ulimit -n`` 20 000 while
    shipping them back; with one per message the fit and its λ-refits
    complete.  The accuracy bound is only
    "above chance": at the default tolerance the factored system is
    indefinite (ROADMAP, the accuracy gap), serial and sharded alike."""
    # the accuracy canary's dataset (tests/test_accuracy_canary.py), on
    # which the transport ran out of descriptors
    data = load_dataset("susy", n_train=8192, n_test=1024, seed=20180521)
    clf = KernelRidgeClassifier(h=data.h, lam=data.lam, solver="hss",
                                clustering="two_means", leaf_size=16,
                                seed=0, shards=2)
    clf.fit(data.X_train, data.y_train)
    assert clf.report.shards == 2
    for _ in range(2):
        assert np.all(np.isfinite(clf.weights_))
        assert clf.score(data.X_test, data.y_test) > 0.55
        clf.refit(2.0 * data.lam)
    clf.solver_.close()


def test_sharded_training_is_deterministic(small_problem, sharded_clf):
    data = small_problem
    clf = KernelRidgeClassifier(h=data.h, lam=data.lam, solver="hss",
                                shards=2, seed=0,
                                solver_options={"hss_options": TIGHT})
    clf.fit(data.X_train, data.y_train)
    assert clf.solver_.report.shards == 2
    assert np.array_equal(clf.weights_, sharded_clf.weights_)


def test_router_counts_each_sharded_query_once(tmp_path, small_problem,
                                               sharded_clf):
    """A router configured with ``distributed.shards=2`` serves a sharded
    model through the one engine: every query counts once, and the scores
    are the classifier's bitwise."""
    data, clf = small_problem, sharded_clf
    store = ModelStore(tmp_path)
    store.save(clf, "sharded")
    config = resolve_runtime_config(env={}, flags={
        "serving.store": str(tmp_path), "distributed.shards": 2})
    queries = global_registry().counter("repro_serving_queries_total")
    router = ModelRouter.from_config(config, store=store)
    try:
        router.serve("sharded")
        engine = router._entries["sharded"].active.service.engine
        before = queries.value
        labels = router.predict("sharded", data.X_test)
        m = data.X_test.shape[0]
        assert queries.value - before == m
        assert engine.stats.queries == m
        assert engine.stats.rows_computed == m
        scores = engine.decision_many(data.X_test)
    finally:
        router.close()
    assert np.array_equal(labels, clf.predict(data.X_test))
    assert np.array_equal(scores, clf.decision_function(data.X_test))


# ---------------------------------------------------------------------------
# Fail-fast on worker crashes
# ---------------------------------------------------------------------------

def test_worker_crash_fails_the_next_fit_fast_without_orphans(clustered_tree):
    result = clustered_tree
    plan = ShardPlan.from_tree(result.tree, 2)
    grid = WorkerGrid(plan, result.X, response_timeout=120.0)
    solver = DistributedSolver(shards=2, hss_options=HSSOptions(rel_tol=1e-2),
                               seed=0, grid=grid)
    try:
        solver.fit(result.X, result.tree, GaussianKernel(h=1.0), 1.0)
        processes = [w.process for w in grid._workers]
        assert all(p.is_alive() for p in processes)
        # Kill one worker mid-protocol, then ask for work: the grid must
        # raise promptly instead of hanging on the dead queue.
        grid._workers[0].request.send("_crash")
        t0 = time.monotonic()
        with pytest.raises(DistributedError):
            solver.fit(result.X, result.tree, GaussianKernel(h=2.0), 1.0)
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"fail-fast took {elapsed:.1f}s"
        # No orphaned processes: the failed round tears everything down.
        wait_until(lambda: not any(p.is_alive() for p in processes),
                   timeout=10.0, interval=0.05,
                   message="worker processes were orphaned")
        assert grid._workers == []
        assert not grid.running
    finally:
        grid.shutdown()


def test_a_worker_killed_after_fit_costs_the_next_fit_not_the_model(
        small_problem, cold_at_2lam):
    """The grid only builds.  A worker that dies after a fit leaves the
    fitted model whole: ``refit(2 lam)`` and ``solve`` run on the shard
    kernels collected at fit time and match a cold fit at ``2 lam``
    bitwise.  The next warm fit on that grid raises
    :class:`WorkerCrashedError` — the live worker is reaped too — and the
    model keeps its weights, its λ and its answers."""
    data = small_problem
    rhs = np.random.default_rng(29).standard_normal((data.X_train.shape[0], 3))
    with WorkerGrid.from_data(data.X_train, shards=2, clustering="two_means",
                              leaf_size=16, seed=0) as grid:
        clf = KernelRidgeClassifier(
            h=data.h, lam=data.lam, solver="hss", shards=2, seed=0,
            solver_options={"hss_options": TIGHT, "grid": grid})
        clf.fit(data.X_train, data.y_train)
        processes = [w.process for w in grid._workers]
        grid._workers[1].request.send("_crash")
        processes[1].join(timeout=30.0)
        assert processes[1].exitcode is not None  # dead before the verbs

        clf.refit(2.0 * data.lam)
        assert np.array_equal(clf.weights_,
                              cold_at_2lam.solve(clf._targets_perm))
        w = clf.solver_.solve(rhs)
        assert np.array_equal(w, cold_at_2lam.solve(rhs))

        before = clf.weights_.copy()
        with pytest.raises(WorkerCrashedError):
            clf.refit_kernel(2.0 * data.h)
        assert grid._workers == [] and not grid.running
        wait_until(lambda: not processes[0].is_alive(), timeout=10.0,
                   interval=0.05, message="the live worker was orphaned")
        assert clf.h == data.h and clf.lam == 2.0 * data.lam
        assert np.array_equal(clf.weights_, before)
        assert np.array_equal(clf.solver_.solve(rhs), w)
        assert clf.predict(data.X_test).shape == (data.X_test.shape[0],)
        # the kept factors report into the solver's one report, which the
        # failed fit left as it was: the refit before it counts too
        clf.refit(data.lam)
        clf.refit(2.0 * data.lam)
        report = clf.solver_.report
        assert {"factorization", "coupling_merge"} <= set(report.timings)
        assert report.refits == 3 and report.shards == 2
        assert np.array_equal(clf.solver_.solve(rhs), w)
        assert report.timings["solve"] > 0.0


def test_post_fit_verbs_send_no_grid_message(small_problem):
    """On a live external grid, ``refit``, ``solve`` and ``partial_fit`` of
    a fitted :class:`DistributedSolver` run in this process: the transport
    sends no message and the grid spawns nothing."""
    X_perm, tree, kernel, lam = _cluster_problem(small_problem)
    messages = global_registry().counter("repro_transport_messages_total")
    rhs = np.random.default_rng(37).standard_normal((tree.n, 2))
    with WorkerGrid(ShardPlan.from_tree(tree, 2), X_perm) as grid:
        solver = DistributedSolver(shards=2, hss_options=TIGHT, seed=0,
                                   grid=grid)
        solver.fit(X_perm, tree, kernel, lam)
        before = messages.value
        solver.refit(2.0 * lam)
        assert np.all(np.isfinite(solver.solve(rhs)))
        solver.partial_fit(X_add=X_perm[:5] + 0.01, remove=[0, 1])
        w = solver.solve(np.ones(tree.n - 2 + 5))
        assert messages.value - before == 0
        assert grid.running and grid.spawn_count == 2
    assert np.all(np.isfinite(w))


def test_a_failed_refit_puts_the_shards_back_at_the_model_lambda(
        small_problem, monkeypatch):
    """A training solve that fails after a sharded λ-move re-factors the
    shards back at the model's λ: model and solver agree again, bitwise."""
    data = small_problem
    clf = KernelRidgeClassifier(h=data.h, lam=data.lam, solver="hss",
                                shards=2, seed=0,
                                solver_options={"hss_options": TIGHT})
    clf.fit(data.X_train, data.y_train)
    before = clf.weights_.copy()

    def boom(self, y):
        raise FloatingPointError("injected solver failure")

    with monkeypatch.context() as patch:
        patch.setattr(KernelSystemSolver, "solve", boom)
        with pytest.raises(FloatingPointError, match="injected"):
            clf.refit(4.0 * data.lam)
    assert clf.lam == clf.solver_.lam_ == data.lam
    np.testing.assert_array_equal(clf.refit(clf.lam).weights_, before)


# ---------------------------------------------------------------------------
# The grid only builds
# ---------------------------------------------------------------------------

def test_the_worker_answers_fit_only(clustered_tree):
    """A worker's command table is ``fit`` (plus the ``stop`` / ``_crash``
    controls): any other command is an error reply, which fails the round
    and tears the grid down like any other worker failure."""
    assert set(worker_module._COMMANDS) == {"fit"}
    result = clustered_tree
    grid = WorkerGrid(ShardPlan.from_tree(result.tree, 2), result.X).start()
    try:
        with pytest.raises(DistributedError, match="unknown command 'solve'"):
            grid.round("solve", "partial")
        assert grid._workers == [] and not grid.running
    finally:
        grid.shutdown()


def test_a_worker_fit_reply_rebuilds_the_shard_kernel(clustered_tree):
    """A worker's ``fit`` reply carries its owned pair factors and the
    shard's ``hss.*`` / ``ulv.*`` sections.  The kernel rebuilt from them
    in this process is at the fit's λ, solves bitwise like a cold
    factorization of the shipped HSS matrix, and round-trips through
    ``to_arrays`` / ``from_arrays`` bitwise."""
    result = clustered_tree
    plan = ShardPlan.from_tree(result.tree, 2)
    config = WorkerConfig(shard_id=0,
                          boundaries=tuple(int(b) for b in plan.boundaries),
                          owned_pairs=tuple(plan.owned_pairs(0)))
    state = _ShardState(config, result.X, plan.subtree(0))
    spec = FitSpec(kernel_spec=kernel_to_spec(GaussianKernel(h=1.0)),
                   lam=0.5, hss_options=HSSOptions(rel_tol=1e-4),
                   hmatrix_options=HMatrixOptions(),
                   use_hmatrix_sampling=True, seed=0, coupling_rel_tol=1e-4,
                   coupling_max_rank=None)
    info, arrays = state.fit(spec)
    assert info["max_rank"] > 0
    assert {key for key in arrays if key.startswith("pair.")} == {
        f"pair.{s}.{t}.{side}" for s, t in plan.owned_pairs(0)
        for side in "UV"}
    n = plan.shard_size(0)
    rng = np.random.default_rng(41)
    F = rng.standard_normal((n, 4))
    shard = ShardKernel.from_arrays({**arrays, "F": F}, plan.subtree(0),
                                    lam=0.5)
    assert shard.ulv.lam == 0.5
    Y = rng.standard_normal((n, 3))
    cold = ULVFactorization.factor(shard.ulv.hss, lam=0.5)
    assert np.array_equal(shard.ulv.solve(Y), cold.solve(Y))
    again = ShardKernel.from_arrays(shard.to_arrays(), plan.subtree(0),
                                    lam=0.5)
    for a, b in zip(shard.solve(Y), again.solve(Y)):
        assert np.array_equal(a, b)
    assert np.array_equal(shard.couple(), again.couple())


def test_the_fit_report_aggregates_the_shards(sharded_clf):
    """The fit's report holds the slowest shard's phases, the in-process
    coupling merge and the summed memory of both shards plus the coupling
    factors."""
    report = sharded_clf.report
    assert report.shards == 2
    assert {"coupling_merge", "factorization", "hss_sampling",
            "coupling_aca"} <= set(report.timings)
    assert report.hss_memory_mb > 0 and report.hmatrix_memory_mb > 0
    assert report.memory_mb > report.hss_memory_mb + report.hmatrix_memory_mb
    assert report.max_rank > 0 and report.random_vectors > 0


def test_a_refit_that_fails_part_way_leaves_the_solver_unfitted(
        small_problem, monkeypatch, tmp_path):
    """A λ-refit that fails after the first shard re-factored leaves the
    shards at mixed λ: the solver refuses to solve from that state, and
    the model keeps its weights and saves them without a factorization."""
    data = small_problem
    clf = KernelRidgeClassifier(h=data.h, lam=data.lam, solver="hss",
                                shards=2, seed=0,
                                solver_options={"hss_options": TIGHT})
    clf.fit(data.X_train, data.y_train)
    before = clf.weights_.copy()
    refit, calls = ShardKernel.refit, []

    def second_shard_fails(self, lam):
        calls.append(lam)
        if len(calls) == 2:
            raise FloatingPointError("injected shard failure")
        refit(self, lam)

    with monkeypatch.context() as patch:
        patch.setattr(ShardKernel, "refit", second_shard_fails)
        with pytest.raises(FloatingPointError, match="injected"):
            clf.refit(2.0 * data.lam)
    assert clf.lam == data.lam
    assert np.array_equal(clf.weights_, before)
    with pytest.raises(RuntimeError, match="fitted"):
        clf.solver_.solve(np.ones(data.X_train.shape[0]))
    store = ModelStore(tmp_path)
    store.save(clf, "after-failure")
    loaded = store.load("after-failure")
    assert loaded.solver_ is None
    assert np.array_equal(loaded.predict(data.X_test),
                          clf.predict(data.X_test))


def test_solve_after_close_uses_collected_factors(small_problem, sharded_clf,
                                                 serial_clf):
    data, clf = small_problem, sharded_clf
    # fit() closes the solver afterwards
    assert not clf.solver_._owned_grid.running
    # The per-shard ULV factors came back with the fit, so the closed
    # solver still answers new right-hand sides — in-process, no workers.
    rhs = np.random.default_rng(5).standard_normal(data.X_train.shape[0])
    w = clf.solver_.solve(rhs)
    w_ref = serial_clf.solver_.solve(rhs)
    rel = np.linalg.norm(w - w_ref) / np.linalg.norm(w_ref)
    assert rel < 5e-3, f"post-close solve deviates by {rel:.2e}"
    assert clf.predict(data.X_test).shape == (data.X_test.shape[0],)


# ---------------------------------------------------------------------------
# Warm worker grids
# ---------------------------------------------------------------------------

class TestWarmGrid:
    def test_second_fit_spawns_zero_processes(self, small_problem):
        data = small_problem
        solver = None
        try:
            solver = _make_distributed_solver()
            problem = _cluster_problem(data)
            solver.fit(*problem)
            grid = solver._owned_grid
            assert grid is not None and grid.running
            assert grid.spawn_count == 2
            assert not solver.warm_start_
            pids = [w.process.pid for w in grid._workers]
            solver.fit(*problem)
            assert solver.warm_start_
            assert solver._owned_grid is grid
            assert grid.spawn_count == 2, "warm fit must spawn zero processes"
            assert [w.process.pid for w in grid._workers] == pids
        finally:
            if solver is not None:
                solver.close()

    def test_warm_fits_bitwise_equal_cold_fits(self, small_problem):
        data = small_problem
        problem = _cluster_problem(data)
        rhs = np.random.default_rng(11).standard_normal(problem[0].shape[0])

        solver = _make_distributed_solver()
        try:
            cold = solver.fit(*problem).solve(rhs).copy()
        finally:
            solver.close()
        warm_solver = _make_distributed_solver()
        try:
            warm = []
            for _ in range(2):
                warm_solver.fit(*problem)
                warm.append(warm_solver.solve(rhs).copy())
        finally:
            warm_solver.close()
        for w in warm:
            assert np.array_equal(w, cold), \
                "warm fits must be bitwise equal to a cold fit"

    def test_explicit_grid_reused_and_left_running(self, small_problem):
        data = small_problem
        X_perm, tree, kernel, lam = _cluster_problem(data)
        plan = ShardPlan.from_tree(tree, 2)
        with WorkerGrid(plan, X_perm) as grid:
            for lam_sweep in (lam, 2.0 * lam):
                solver = DistributedSolver(shards=2, hss_options=TIGHT,
                                           seed=0, grid=grid)
                solver.fit(X_perm, tree, kernel, lam_sweep)
                w = solver.solve(np.ones(tree.n))
                assert w.shape == (tree.n,)
                solver.close()           # must NOT stop the external grid
                assert grid.running
            assert grid.spawn_count == 2
            # An incompatible fit on an explicit grid is an error, not a
            # silent respawn.
            bad_X = X_perm + 1.0
            solver = DistributedSolver(shards=2, hss_options=TIGHT, seed=0,
                                       grid=grid)
            with pytest.raises(ValueError, match="incompatible"):
                solver.fit(bad_X, tree, kernel, lam)
        assert not grid.running

    def test_a_later_fit_never_changes_an_earlier_solvers_answers(
            self, small_problem):
        """Two solvers on one shared grid: a later fit on the grid leaves
        the earlier solver's solves bitwise as they were, and the earlier
        solver's refit leaves the later one's alone — each solves on the
        shard kernels of its own fit."""
        X_perm, tree, kernel, lam = _cluster_problem(small_problem)
        plan = ShardPlan.from_tree(tree, 2)
        rhs = np.random.default_rng(13).standard_normal(tree.n)
        with WorkerGrid(plan, X_perm) as grid:
            s1 = DistributedSolver(shards=2, hss_options=TIGHT, seed=0,
                                   grid=grid)
            s1.fit(X_perm, tree, kernel, lam)
            w1 = s1.solve(rhs).copy()
            s2 = DistributedSolver(shards=2, hss_options=TIGHT, seed=0,
                                   grid=grid)
            s2.fit(X_perm, tree, kernel, 100.0 * lam)
            w2 = s2.solve(rhs).copy()
            assert not np.array_equal(w1, w2)
            assert np.array_equal(s1.solve(rhs), w1)
            s1.refit(100.0 * lam)   # refit = cold fit, on s1's own kernels
            assert np.array_equal(s1.solve(rhs), w2)
            s1.refit(lam)
            assert np.array_equal(s1.solve(rhs), w1)
            assert np.array_equal(s2.solve(rhs), w2)
            assert grid.spawn_count == 2

    def test_lambda_refit_zero_spawns_zero_recompressions(self, small_problem,
                                                           cold_at_2lam):
        """A λ-only refit keeps every process and every local compression:
        it redoes only the shard ULVs and the capacitance system, in this
        process."""
        data = small_problem
        problem = _cluster_problem(data)
        X_perm, tree, kernel, lam = problem
        rhs = np.random.default_rng(17).standard_normal(tree.n)
        solver = _make_distributed_solver()
        try:
            solver.fit(*problem)
            grid = solver._owned_grid
            pids = [w.process.pid for w in grid._workers]
            assert solver.compression_count == 1
            solver.refit(2.0 * lam)
            assert grid.spawn_count == 2, "refit must spawn zero processes"
            assert [w.process.pid for w in grid._workers] == pids
            assert solver.compression_count == 1, \
                "refit must perform zero recompressions"
            assert solver.report.refits == 1
            w_refit = solver.solve(rhs).copy()
        finally:
            solver.close()

        # Closing the grid changes nothing: the solves were in-process.
        assert np.array_equal(solver.solve(rhs), w_refit)

        # The refit solution is bitwise equal to a cold distributed fit at
        # the same λ (identical λ-free compressions + identical shift).
        assert np.array_equal(w_refit, cold_at_2lam.solve(rhs))

        # And matches the serial solver within the sharded tolerance (both
        # systems live in the same permuted ordering, as does ``rhs``).
        serial = HSSSolver(hss_options=TIGHT, seed=0)
        serial.fit(X_perm, tree, kernel, 2.0 * lam)
        serial_w = serial.solve(rhs)
        rel_dev = (np.linalg.norm(w_refit - serial_w)
                   / np.linalg.norm(serial_w))
        assert rel_dev < 1e-3

    def test_offline_refit_after_close_matches_cold_fit(self, small_problem,
                                                        cold_at_2lam):
        """refit() on a closed solver re-factors the collected λ-free
        factors in-process and still equals a cold distributed fit."""
        data = small_problem
        problem = _cluster_problem(data)
        X_perm, tree, kernel, lam = problem
        rhs = np.random.default_rng(19).standard_normal(tree.n)
        solver = _make_distributed_solver()
        try:
            solver.fit(*problem)
        finally:
            solver.close()
        solver.refit(2.0 * lam)
        assert np.array_equal(solver.solve(rhs), cold_at_2lam.solve(rhs))


def _cluster_problem(data):
    """Cluster the bundle's training half once; return (X_perm, tree, k, lam)."""
    result = cluster(data.X_train, method="two_means", leaf_size=16, seed=0)
    return result.X, result.tree, GaussianKernel(h=data.h), data.lam


def _make_distributed_solver():
    return DistributedSolver(shards=2, hss_options=TIGHT, seed=0)

"""`WorkerGrid`: a persistent, reusable grid of shard worker processes.

The paper's MPI runs amortize process startup across many factor / solve
calls: ranks are launched once.  :class:`WorkerGrid` does the same for
fits.  It owns exactly the *spawn-time* state of the distributed path:

* one worker process per shard of a :class:`repro.distributed.ShardPlan`,
* the permuted training set, published once into shared memory,
* each shard's local cluster tree, shipped once at spawn,
* the request / response :class:`repro.distributed.BlockChannel` pair of
  every worker.

Everything *per-fit* — kernel, ridge shift, compression options, seeds,
coupling tolerances — travels with the ``fit`` command instead (see
:class:`repro.distributed.FitSpec`), so one grid serves arbitrarily many
``fit`` rounds: a hyper-parameter sweep over ``(h, lambda)`` respawns
nothing.  A fit round is the only work a grid does.  Each worker ships its
shard's factors back in its reply and keeps only its block cluster tree
for the next warm fit, so the solves and λ-refits of a fitted model run in
the calling process (:class:`repro.distributed.DistributedSolver`) and a
grid can be shut down, reused or lost without touching them.

The grid is context-managed and fail-fast: a worker that dies or misses a
protocol deadline tears the whole grid down promptly (no orphan processes,
no hangs on dead queues), and :attr:`WorkerGrid.spawn_count` records how
many processes were ever launched so tests can assert that warm fits spawn
zero new ones.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..obs import global_registry
from .comm import (BlockChannel, DistributedError, SharedArray,
                   WorkerCrashedError)
from .plan import ShardPlan, resolve_shards
from .worker import WorkerConfig, worker_main


def _start_method(override: Optional[str] = None) -> str:
    """Process start method: ``REPRO_SHARD_START_METHOD`` or ``spawn``.

    ``spawn`` is the safe default everywhere (no fork-while-threaded
    hazards with BLAS or live executors); ``fork`` can be opted into on
    Linux for faster worker startup.
    """
    method = override or os.environ.get("REPRO_SHARD_START_METHOD", "").strip()
    if method:
        return method
    return "spawn"


@dataclass
class _WorkerHandle:
    """One worker process plus its two message channels."""

    process: multiprocessing.Process
    request: BlockChannel
    response: BlockChannel

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


class WorkerGrid:
    """Persistent process grid over one shard plan and one dataset.

    Parameters
    ----------
    plan:
        The :class:`repro.distributed.ShardPlan` cutting the cluster tree;
        one worker process is spawned per shard.
    X_permuted:
        Training points in the permuted ordering of ``plan.tree``; copied
        once into shared memory and attached by every worker.
    response_timeout:
        Hard per-reply deadline in seconds.  A worker that neither answers
        nor dies within it fails the whole grid (fail-fast, no hang).
    start_method:
        ``multiprocessing`` start method override (default ``spawn``, or
        the ``REPRO_SHARD_START_METHOD`` environment variable).

    Raises
    ------
    ValueError
        If ``X_permuted`` does not cover exactly the ``plan.n`` points.

    Examples
    --------
    Sweep hyper-parameters over one warm grid (spawns exactly two
    processes for the whole loop)::

        grid = WorkerGrid.from_data(X_train, shards=2, seed=0)
        with grid:
            for h, lam in [(0.8, 1.0), (1.0, 2.0), (1.3, 4.0)]:
                clf = KernelRidgeClassifier(
                    h=h, lam=lam, shards=2, seed=0,
                    solver_options={"grid": grid})
                clf.fit(X_train, y_train)
    """

    def __init__(self, plan: ShardPlan, X_permuted: np.ndarray,
                 response_timeout: float = 900.0,
                 start_method: Optional[str] = None):
        self.plan = plan
        self.X = np.ascontiguousarray(X_permuted, dtype=np.float64)
        if self.X.shape[0] != plan.n:
            raise ValueError(
                f"X has {self.X.shape[0]} rows but the plan covers {plan.n}")
        self.response_timeout = float(response_timeout)
        self._start_method = _start_method(start_method)
        self._workers: List[_WorkerHandle] = []
        self._segments: List[SharedArray] = []
        #: total worker processes ever spawned by this grid (warm fits
        #: reuse the live ones, so the count stays at ``n_shards``)
        self.spawn_count = 0
        # Cached wire-format tree for compatible_with() (cheap memcmp).
        self._tree_table = plan.tree.node_table()

    # --------------------------------------------------------------- factory
    @classmethod
    def from_data(cls, X: np.ndarray, shards: Optional[int] = None,
                  clustering: str = "two_means", leaf_size: int = 16,
                  seed=0, cut_level: Optional[int] = None,
                  **grid_options) -> "WorkerGrid":
        """Cluster ``X`` and start a grid over the resulting shard plan.

        Runs the same preprocessing a :class:`repro.krr.KernelRidgeClassifier`
        fit performs (clustering ordering + shard cut), so a classifier
        configured with the *same* ``clustering``, ``leaf_size``, ``seed``
        and ``shards`` produces an identical plan and can reuse the grid
        warm via ``solver_options={"grid": grid}``.

        Parameters
        ----------
        X:
            Training points in their original (unpermuted) ordering.
        shards:
            Shard / process count; ``None`` defers to ``REPRO_SHARDS``
            (see :func:`repro.distributed.resolve_shards`).
        clustering, leaf_size, seed:
            Preprocessing knobs, same meaning as on
            :class:`repro.krr.KernelRidgeClassifier`.
        cut_level:
            Optional explicit tree level for the shard cut.
        **grid_options:
            Forwarded to the :class:`WorkerGrid` constructor
            (``response_timeout``, ``start_method``).

        Returns
        -------
        WorkerGrid
            A started grid (processes already spawned).
        """
        from ..clustering.api import cluster

        result = cluster(np.asarray(X, dtype=np.float64), method=clustering,
                         leaf_size=leaf_size, seed=seed)
        plan = ShardPlan.from_tree(result.tree, resolve_shards(shards),
                                   cut_level=cut_level)
        return cls(plan, result.X, **grid_options).start()

    # ------------------------------------------------------------- lifecycle
    @property
    def running(self) -> bool:
        """``True`` while every worker process of the grid is alive."""
        return bool(self._workers) and all(w.alive for w in self._workers)

    def start(self) -> "WorkerGrid":
        """Spawn the worker processes and publish the shared dataset.

        Idempotent: a second call on a running grid is a no-op.

        Returns
        -------
        WorkerGrid
            ``self``, so ``grid = WorkerGrid(...).start()`` reads well.
        """
        if self._workers:
            return self
        ctx = multiprocessing.get_context(self._start_method)
        x_shm = SharedArray.from_array(self.X)
        self._segments.append(x_shm)

        plan = self.plan
        for shard in range(plan.n_shards):
            local_tree = plan.subtree(shard)
            tree_shm = SharedArray.from_array(local_tree.node_table())
            self._segments.append(tree_shm)
            config = WorkerConfig(
                shard_id=shard,
                boundaries=tuple(int(b) for b in plan.boundaries),
                owned_pairs=tuple(plan.owned_pairs(shard)),
            )
            request_q, response_q = ctx.Queue(), ctx.Queue()
            process = ctx.Process(
                target=worker_main,
                args=(config, x_shm.spec, tree_shm.spec, local_tree.root,
                      request_q, response_q),
                name=f"repro-shard-{shard}", daemon=True)
            process.start()
            self.spawn_count += 1
            self._workers.append(_WorkerHandle(
                process, BlockChannel(request_q), BlockChannel(response_q)))
        reg = global_registry()
        reg.counter("repro_grid_spawns_total",
                    "Worker processes ever spawned by grids"
                    ).inc(len(self._workers))
        reg.gauge("repro_grid_workers",
                  "Worker processes currently alive").inc(len(self._workers))
        return self

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop all workers and release every shared segment (idempotent).

        Parameters
        ----------
        timeout:
            Grace period in seconds before live workers are terminated
            (and, as a last resort, killed).
        """
        workers, self._workers = self._workers, []
        if workers:
            global_registry().gauge(
                "repro_grid_workers",
                "Worker processes currently alive").dec(len(workers))
        for w in workers:
            if w.alive:
                try:
                    w.request.send("stop")
                except Exception:  # queue already broken; terminate below
                    pass
        deadline = time.monotonic() + timeout
        for w in workers:
            w.process.join(timeout=max(0.1, deadline - time.monotonic()))
            if w.process.is_alive():
                w.process.terminate()
                w.process.join(timeout=2.0)
            if w.process.is_alive():  # pragma: no cover - last resort
                w.process.kill()
                w.process.join(timeout=1.0)
            w.request.drain()
        for seg in self._segments:
            seg.unlink()
        self._segments = []

    def __enter__(self) -> "WorkerGrid":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ----------------------------------------------------------- warm checks
    def compatible_with(self, plan: ShardPlan, X_permuted: np.ndarray) -> bool:
        """Whether a new fit over ``(plan, X_permuted)`` can reuse this grid.

        A warm fit is only sound when the spawn-time state matches exactly:
        the shard plan (and the full cluster tree below its frontier — the
        workers' local trees were shipped at spawn) and the shared dataset.
        All three checks are bitwise, so a deterministic preprocessing
        pipeline (same data, clustering method, leaf size and seed) always
        reuses the grid.

        Parameters
        ----------
        plan:
            The shard plan of the new fit.
        X_permuted:
            The new fit's training points, permuted by ``plan.tree``.

        Returns
        -------
        bool
            ``True`` when the grid can serve the fit without respawning.
        """
        if plan != self.plan:
            return False
        if not np.array_equal(plan.tree.node_table(), self._tree_table):
            return False
        X_permuted = np.asarray(X_permuted)
        return (X_permuted.shape == self.X.shape
                and np.array_equal(X_permuted, self.X))

    # --------------------------------------------------------------- protocol
    def _fail_fast(self, shard: int, exc: DistributedError) -> None:
        """Terminate the whole grid and re-raise on any worker failure."""
        self.shutdown()
        raise type(exc)(f"shard {shard}: {exc}") from None

    def check_workers(self) -> None:
        """Tear the grid down if a worker it lists has died.

        Raises
        ------
        WorkerCrashedError
            When a listed worker process is dead — the whole grid is
            shut down first, as a failed :meth:`round` does.
        """
        for shard, w in enumerate(self._workers):
            if not w.alive:
                self._fail_fast(shard, WorkerCrashedError(
                    "worker process is dead"))

    def round(self, tag: str, reply: str, payload=None) -> List[tuple]:
        """One protocol round: send every worker a command, gather the replies.

        Telemetry a worker attached to its reply (its *cumulative* local
        snapshot) is folded into the registry, which keeps only the latest
        snapshot per shard, so repeated rounds never double-count.

        Parameters
        ----------
        tag, reply:
            Protocol command name, and the reply tag it requires.
        payload:
            Small picklable payload shared by all workers.

        Returns
        -------
        list of tuple
            ``(payload, arrays)`` of every worker's reply, in shard order.

        Raises
        ------
        DistributedError
            On a dead worker, an error reply, a protocol violation or a
            missed deadline — the whole grid is torn down first
            (fail-fast, no orphans).
        """
        if not self._workers:
            raise RuntimeError("worker grid is not running; call start()")
        self.check_workers()
        for w in self._workers:
            w.request.send(tag, payload)
        return [self._recv(shard, reply)
                for shard in range(len(self._workers))]

    def _recv(self, shard: int, expected: str):
        """One worker's reply (telemetry absorbed), or the grid torn down."""
        w = self._workers[shard]
        try:
            tag, payload, arrays = w.response.recv(
                self.response_timeout, alive=lambda: w.alive)
        except DistributedError as exc:
            self._fail_fast(shard, exc)
        if tag == "error":
            tb = (payload or {}).get("traceback", "")
            err = DistributedError(
                f"worker failed: {(payload or {}).get('error')}\n{tb}")
            self._fail_fast(shard, err)
        if tag != expected:
            self._fail_fast(shard, DistributedError(
                f"protocol error: expected {expected!r}, got {tag!r}"))
        if isinstance(payload, dict) and "metrics" in payload:
            global_registry().absorb(str(shard), payload.pop("metrics"))
        return payload, arrays

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "running" if self.running else "stopped"
        return (f"WorkerGrid({state}, shards={self.plan.n_shards}, "
                f"n={self.plan.n}, spawned={self.spawn_count})")

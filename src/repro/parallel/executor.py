"""Shared-memory parallel execution of independent serving tasks.

Prediction splits into independent GEMM-sized tasks (test-kernel row
blocks, per-shard partial decisions).  NumPy releases the GIL inside BLAS,
so a thread pool runs these tasks without the pickling overhead of process
pools.  Training does not use it: it runs serially in one process, or
across worker processes (:mod:`repro.distributed`).
:class:`BlockExecutor` is a thin wrapper around
:class:`concurrent.futures.ThreadPoolExecutor` that

* holds **one persistent pool** for its lifetime (spinning a pool up and
  down per call is pure overhead),
* preserves task order, so parallel and serial runs produce bitwise
  identical results for deterministic tasks,
* propagates exceptions **eagerly**: the first failing task cancels all
  still-pending tasks and its exception is re-raised promptly,
* degrades to serial execution when a single worker is requested (or the
  task list is tiny), and
* is a context manager (``with BlockExecutor(4) as ex: ...``) whose exit
  shuts the pool down; :meth:`shutdown` can also be called explicitly, and
  a later :meth:`map` transparently re-creates the pool.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from typing import Callable, List, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def default_worker_count() -> int:
    """Number of workers used when none is specified.

    Prefers the CPU affinity mask (``os.sched_getaffinity``) over
    ``os.cpu_count()``: under cgroup / taskset limits (CI runners,
    containers) the process may be pinned to far fewer cores than the
    machine exposes, and oversubscribing threads on those cores only adds
    contention.  Falls back to ``os.cpu_count()`` on platforms without
    affinity support (macOS, Windows).
    """
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        affinity = 0
    if affinity > 0:
        return affinity
    return max(1, os.cpu_count() or 1)


def resolve_workers(workers: Optional[int]) -> int:
    """Resolve a ``workers`` option value to a concrete thread count.

    ``None`` consults the ``REPRO_WORKERS`` environment variable (the CI
    matrix sets it to run the suite through the threaded serving engines)
    and defaults to 1 — serial — when unset, keeping single-threaded runs
    deterministic-by-default.  The variable must hold a positive integer;
    anything else (garbage, zero, negative) raises a :class:`ValueError`
    naming the variable instead of being silently ignored.  An explicit
    ``0`` argument means "all visible cores" per
    :func:`default_worker_count`; positive values are used as given and
    explicit negative values are rejected.
    """
    if workers is None:
        env = os.environ.get("REPRO_WORKERS", "").strip()
        if not env:
            return 1
        try:
            value = int(env)
        except ValueError:
            raise ValueError(
                f"invalid REPRO_WORKERS={env!r}: must be a positive "
                f"integer (unset it for the serial default)") from None
        if value <= 0:
            raise ValueError(
                f"invalid REPRO_WORKERS={env!r}: must be a positive "
                f"integer (pass workers=0 explicitly for all cores)")
        return value
    workers = int(workers)
    if workers < 0:
        raise ValueError("workers must be >= 0 or None")
    if workers == 0:
        return default_worker_count()
    return workers


class BlockExecutor:
    """Ordered, fail-fast parallel map over independent tasks.

    Parameters
    ----------
    workers:
        Number of worker threads; ``None`` uses all visible cores (see
        :func:`default_worker_count`), ``1`` runs serially (useful for
        debugging and for deterministic profiling).
    serial_threshold:
        Task counts at or below this threshold run serially regardless of
        the worker count (task submission would dominate).

    Notes
    -----
    The underlying :class:`~concurrent.futures.ThreadPoolExecutor` is
    created lazily on the first parallel :meth:`map` and reused by every
    subsequent call until :meth:`shutdown` (or context-manager exit).
    Submitting from multiple threads is safe; pool creation is guarded by a
    lock.
    """

    def __init__(self, workers: Optional[int] = None, serial_threshold: int = 2):
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers if workers is not None else default_worker_count()
        self.serial_threshold = int(serial_threshold)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------- lifecycle
    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="repro-block")
            return self._pool

    def shutdown(self, wait: bool = True) -> None:
        """Join and release the worker threads (idempotent).

        A later :meth:`map` call lazily re-creates the pool, so a shut-down
        executor remains usable — shutdown just bounds thread lifetime.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)

    def __enter__(self) -> "BlockExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    @property
    def active(self) -> bool:
        """Whether a live thread pool is currently held."""
        return self._pool is not None

    # ------------------------------------------------------------------- map
    def map(self, fn: Callable[[T], R], tasks: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every task, returning results in task order.

        If any task raises, all not-yet-started tasks are cancelled and the
        failure is re-raised immediately — remaining queued work is not
        executed first.  When several tasks fail near-simultaneously, the
        earliest *observed* failure in task order is raised (a slower
        failing task may still be running and lose the race).
        """
        tasks = list(tasks)
        if self.workers == 1 or len(tasks) <= self.serial_threshold:
            return [fn(t) for t in tasks]
        pool = self._ensure_pool()
        futures = [pool.submit(fn, t) for t in tasks]
        try:
            wait(futures, return_when=FIRST_EXCEPTION)
            error: Optional[BaseException] = None
            for future in futures:
                if future.done() and not future.cancelled():
                    exc = future.exception()
                    if exc is not None:
                        error = exc
                        break
            if error is not None:
                raise error
            return [future.result() for future in futures]
        finally:
            # On failure (or an interrupt reaching the main thread) cancel
            # whatever has not started yet so the pool drains promptly.
            for future in futures:
                if not future.done():
                    future.cancel()

"""Thread-based serving front-end with request coalescing and latency stats.

:class:`PredictionService` accepts queries one at a time (``submit`` returns
a future) or in bulk (``predict_many``), funnels them through a queue, and a
background dispatcher thread drains the queue into micro-batches for the
:class:`repro.serving.PredictionEngine`.  Under concurrent load, requests
that arrive while a batch is being evaluated are coalesced into the next
batch, so throughput approaches the engine's GEMM speed while each request
still gets an individual latency measurement.

The service keeps a sliding window of per-request latencies and reports the
standard serving statistics — p50/p95 latency, queries per second, mean
batch size — via :meth:`PredictionService.stats`.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..obs import RequestRecord, RequestTrail, global_registry
from ..obs.requests_log import next_request_id
from .engine import PredictionEngine

_STOP = object()


@dataclass
class _Request:
    x: np.ndarray
    future: Future
    t_submit: float
    record: RequestRecord


@dataclass
class ServingStats:
    """Latency / throughput snapshot of a running service."""

    completed: int = 0
    failed: int = 0
    batches: int = 0
    pending: int = 0
    mean_batch_size: float = 0.0
    p50_latency_ms: float = 0.0
    p95_latency_ms: float = 0.0
    max_latency_ms: float = 0.0
    qps: float = 0.0

    def summary(self) -> str:
        """One-line human readable summary."""
        return (f"{self.completed} served @ {self.qps:.0f} qps, "
                f"p50={self.p50_latency_ms:.2f} ms, "
                f"p95={self.p95_latency_ms:.2f} ms, "
                f"mean batch {self.mean_batch_size:.1f}")


class PredictionService:
    """Queue-and-dispatcher serving loop around a :class:`PredictionEngine`.

    Parameters
    ----------
    engine:
        The batched prediction engine (or a fitted classifier, which is
        wrapped in an engine with default settings).
    max_batch:
        Maximum number of requests coalesced into one engine call.
    batch_window:
        How long (seconds) the dispatcher waits for additional requests
        after the first one of a batch arrives.  ``0`` dispatches whatever
        is immediately available (lowest latency); larger windows trade
        latency for throughput.
    latency_window:
        Number of most recent per-request latencies kept for the
        percentile statistics.
    trail_size:
        Number of most recent finished :class:`repro.obs.RequestRecord`
        entries retained for :meth:`recent_requests` (ignored when an
        explicit ``trail`` is supplied).
    model_name:
        Value of the ``model`` label on this service's registry metrics
        (``repro_service_requests_total{model=...}``, latency histogram);
        defaults to ``"default"``.
    model_version:
        Monotonic model revision stamped into every request record
        (``0`` = unversioned).  Blue/green routers give each service
        generation its version so the shared trail shows a clean old→new
        boundary across a hot-swap.
    trail:
        Optional externally owned :class:`repro.obs.RequestTrail` to
        append finished records to — the hot-swap router shares one trail
        across service generations so ``recent_requests()`` spans swaps.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.datasets import gaussian_mixture
    >>> from repro.krr import KernelRidgeClassifier
    >>> from repro.serving import PredictionService
    >>> X, y = gaussian_mixture(n=128, d=4, seed=0)
    >>> clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="dense").fit(X, y)
    >>> with PredictionService(clf) as svc:
    ...     labels = svc.predict_many(X[:8])
    >>> bool(np.array_equal(labels, clf.predict(X[:8])))
    True
    """

    def __init__(self, engine, max_batch: int = 256,
                 batch_window: float = 0.002, latency_window: int = 8192,
                 trail_size: int = 1024, model_name: Optional[str] = None,
                 model_version: int = 0,
                 trail: Optional[RequestTrail] = None):
        # Duck-typed engine contract: anything with predict_many + X_train
        # serves (a PredictionEngine or a stand-in); fitted
        # classifiers are wrapped in a default engine.
        if not (hasattr(engine, "predict_many")
                and getattr(engine, "X_train", None) is not None):
            engine = PredictionEngine(engine)
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if batch_window < 0:
            raise ValueError("batch_window must be >= 0")
        self.engine = engine
        self.model_name = model_name or "default"
        self.model_version = int(model_version)
        self.trail = trail if trail is not None \
            else RequestTrail(capacity=trail_size)
        reg = global_registry()
        label = {"model": self.model_name}
        self._m_requests = reg.counter(
            "repro_service_requests_total",
            "Requests completed by the serving service",
            labelnames=("model",)).labels(**label)
        self._m_failed = reg.counter(
            "repro_service_failed_total",
            "Requests failed by the serving service",
            labelnames=("model",)).labels(**label)
        self._m_svc_batches = reg.counter(
            "repro_service_batches_total",
            "Micro-batches dispatched by the serving service",
            labelnames=("model",)).labels(**label)
        self._m_latency = reg.histogram(
            "repro_serving_latency_seconds",
            "End-to-end per-request serving latency (seconds)",
            labelnames=("model",)).labels(**label)
        self.max_batch = int(max_batch)
        self.batch_window = float(batch_window)
        self._queue: "queue.Queue" = queue.Queue()
        self._thread: Optional[threading.Thread] = None
        # True while submit() may enqueue. Guarded by _lock; submit holds the
        # lock across check-and-put so no request can slip in after stop()
        # flips it (which would strand the request's future forever).
        self._accepting = False
        self._lock = threading.Lock()
        self._latencies = deque(maxlen=int(latency_window))
        self._completed = 0
        self._failed = 0
        self._batches = 0
        self._batched_requests = 0
        self._first_submit: Optional[float] = None
        self._last_done: Optional[float] = None

    @classmethod
    def from_config(cls, config, engine) -> "PredictionService":
        """Build a service from a :class:`repro.runtime.RuntimeConfig`.

        Parameters
        ----------
        config:
            The resolved runtime config; ``serving.max_batch`` /
            ``serving.batch_window`` map onto the constructor arguments
            and ``serving.model`` becomes the metric label.
        engine:
            The :class:`PredictionEngine` (or fitted model) to serve.

        Returns
        -------
        PredictionService
            The configured (not yet started) service.
        """
        return cls(engine, max_batch=config.serving.max_batch,
                   batch_window=config.serving.batch_window,
                   model_name=config.serving.model)

    # -------------------------------------------------------------- lifecycle
    def start(self) -> "PredictionService":
        """Start the dispatcher thread (idempotent)."""
        with self._lock:
            if self._accepting:
                return self
            # Claim the start under the lock so two racing start() calls
            # cannot both spawn a dispatcher; requests submitted from here
            # on queue up and are served once the thread is running.
            self._accepting = True
            old = self._thread
        # A previous stop() may have left a dispatcher still working through
        # its backlog; wait for it (outside the lock — the dispatcher takes
        # it while serving) so two dispatchers never run at once.
        if old is not None and old.is_alive():
            old.join()
        thread = threading.Thread(target=self._dispatch_loop,
                                  name="repro-serving-dispatcher",
                                  daemon=True)
        with self._lock:
            self._thread = thread
        thread.start()
        return self

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        """Stop accepting requests, drain the backlog, stop the dispatcher.

        If the backlog takes longer than ``timeout`` to drain, the method
        returns while the dispatcher finishes asynchronously (it exits at
        the stop marker; every request submitted before ``stop`` is still
        served).
        """
        with self._lock:
            if not self._accepting:
                return
            self._accepting = False
        self._queue.put(_STOP)
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)
            if thread.is_alive():
                # Still draining a large backlog; it exits at _STOP. Keep
                # the handle so a later start() can wait on it.
                return
            self._thread = None

    def __enter__(self) -> "PredictionService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def is_running(self) -> bool:
        """True while the service accepts new requests."""
        with self._lock:
            return (self._accepting and self._thread is not None
                    and self._thread.is_alive())

    # ---------------------------------------------------------------- submit
    def submit(self, x: np.ndarray) -> Future:
        """Enqueue a single query point; resolves to its predicted label."""
        # Copy: the request may sit in the queue while the caller reuses
        # its buffer; aliasing it would corrupt pending queries.
        x = np.array(x, dtype=np.float64)
        if x.ndim == 2 and x.shape[0] == 1:
            x = x[0]
        if x.ndim != 1:
            raise ValueError(f"submit expects a single point, got shape {x.shape}")
        d = self.engine.X_train.shape[1]
        if x.shape[0] != d:
            # Reject here (synchronously) so one malformed request cannot
            # poison the whole micro-batch it would be coalesced into.
            raise ValueError(f"query has dimension {x.shape[0]}, expected {d}")
        fut: Future = Future()
        now = time.perf_counter()
        record = RequestRecord(request_id=next_request_id(), t_enqueue=now,
                               model=self.model_name,
                               model_version=self.model_version)
        with self._lock:
            # Check-and-enqueue under the lock: once stop() flips
            # _accepting, no request can enter the queue behind the stop
            # marker and be silently dropped.
            if not self._accepting:
                raise RuntimeError("service is not running; call start() first")
            if self._first_submit is None:
                self._first_submit = now
            self._queue.put(_Request(x=x, future=fut, t_submit=now,
                                     record=record))
        return fut

    def predict_many(self, X: np.ndarray, timeout: Optional[float] = None) -> np.ndarray:
        """Submit a batch of queries and wait for all results (in order)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        futures = [self.submit(X[i]) for i in range(X.shape[0])]
        return np.asarray([f.result(timeout=timeout) for f in futures])

    # ------------------------------------------------------------- dispatcher
    def _collect_batch(self, first: _Request) -> List[_Request]:
        """Coalesce queued requests behind ``first`` into one batch."""
        batch = [first]
        deadline = time.perf_counter() + self.batch_window
        while len(batch) < self.max_batch:
            remaining = deadline - time.perf_counter()
            try:
                if remaining > 0:
                    item = self._queue.get(timeout=remaining)
                else:
                    item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _STOP:
                # Preserve shutdown: process this batch, then exit the loop.
                self._queue.put(_STOP)
                break
            batch.append(item)
        return batch

    def _serve_batch(self, batch: List[_Request]) -> None:
        t_batch = time.perf_counter()
        for req in batch:
            req.record.status = "batched"
            req.record.t_batch = t_batch
            req.record.batch_size = len(batch)
        try:
            X = np.stack([req.x for req in batch])
            labels = self.engine.predict_many(X)
        except Exception as exc:  # propagate to every waiting caller
            done = time.perf_counter()
            with self._lock:
                self._failed += len(batch)
            self._m_failed.inc(len(batch))
            for req in batch:
                req.record.status = "failed"
                req.record.t_complete = done
                req.record.error = repr(exc)
                self.trail.append(req.record)
                if not req.future.cancelled():
                    req.future.set_exception(exc)
            return
        done = time.perf_counter()
        with self._lock:
            self._completed += len(batch)
            self._batches += 1
            self._batched_requests += len(batch)
            self._last_done = done
            for req in batch:
                self._latencies.append(done - req.t_submit)
        self._m_requests.inc(len(batch))
        self._m_svc_batches.inc()
        for req in batch:
            self._m_latency.observe(done - req.t_submit)
            req.record.status = "completed"
            req.record.t_complete = done
            self.trail.append(req.record)
        for req, label in zip(batch, labels):
            if not req.future.cancelled():
                req.future.set_result(label)

    def _dispatch_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                # Drain whatever is still queued, then exit.
                pending: List[_Request] = []
                while True:
                    try:
                        nxt = self._queue.get_nowait()
                    except queue.Empty:
                        break
                    if nxt is not _STOP:
                        pending.append(nxt)
                for start in range(0, len(pending), self.max_batch):
                    self._serve_batch(pending[start:start + self.max_batch])
                return
            self._serve_batch(self._collect_batch(item))

    # ------------------------------------------------------------------ stats
    def stats(self) -> ServingStats:
        """Current latency / throughput snapshot."""
        with self._lock:
            latencies = np.asarray(self._latencies, dtype=np.float64)
            completed = self._completed
            failed = self._failed
            batches = self._batches
            batched = self._batched_requests
            first = self._first_submit
            last = self._last_done
        stats = ServingStats(completed=completed, failed=failed,
                             batches=batches,
                             pending=self._queue.qsize())
        if batches:
            stats.mean_batch_size = batched / batches
        if latencies.size:
            stats.p50_latency_ms = float(np.percentile(latencies, 50) * 1e3)
            stats.p95_latency_ms = float(np.percentile(latencies, 95) * 1e3)
            stats.max_latency_ms = float(latencies.max() * 1e3)
        if completed and first is not None and last is not None and last > first:
            stats.qps = completed / (last - first)
        return stats

    def recent_requests(self, n: Optional[int] = None):
        """Most recent finished request records, oldest first.

        Each :class:`repro.obs.RequestRecord` carries the request id, its
        final status (``"completed"`` / ``"failed"``), the
        enqueue → batch → complete timestamps, the micro-batch size it was
        served in and, for failures, the error.  The trail is a bounded
        ring buffer (``trail_size`` entries), so this is cheap to call on
        a live service.

        Parameters
        ----------
        n:
            Number of records to return (``None`` → all retained).
        """
        return self.trail.recent(n)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "running" if self.is_running else "stopped"
        return (f"PredictionService({state}, max_batch={self.max_batch}, "
                f"batch_window={self.batch_window})")

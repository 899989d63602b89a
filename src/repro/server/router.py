"""Multi-tenant blue/green model routing over a :class:`ModelStore`.

The router owns one *entry* per served model name.  Each entry holds an
**active generation** — a store revision loaded into a
:class:`repro.serving.PredictionEngine` behind a
micro-batching :class:`repro.serving.PredictionService` — plus any
generations still draining after a swap.  A hot-swap is one atomic
pointer flip:

1. the new revision is loaded, built and *started* off to the side
   (green warms while blue serves);
2. the entry's active pointer flips under a lock — every request admitted
   from now on routes to the new generation;
3. the old generation stops accepting and drains its backlog on a
   background thread — every request admitted before the flip is still
   answered by the version that admitted it.

Because admission and the flip race benignly (a request can observe the
outgoing generation just as it stops accepting), :meth:`ModelRouter.submit`
retries against the refreshed active generation, so a swap under load
never fails a request.  All generations of one entry share a single
:class:`repro.obs.RequestTrail`, and every record carries the store
revision that served it — the old→new boundary is visible in
``recent_requests()``.

Per-model / per-version counters land in :func:`repro.obs.global_registry`:
``repro_server_predictions_total{model,version}``,
``repro_server_swaps_total{model}`` and the
``repro_server_model_revision{model}`` gauge.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..hss.streaming import DriftBudget, should_recompress
from ..obs import RequestTrail, global_registry
from ..serving import ModelStore, PredictionEngine, PredictionService

__all__ = ["ModelRouter", "RouterError", "ModelNotServed"]


class RouterError(RuntimeError):
    """An operator-facing routing failure (unknown model, bad swap, ...)."""


class ModelNotServed(RouterError):
    """Raised when a request names a model the router is not serving."""


@dataclass
class _Generation:
    """One live (or draining) version of a served model."""

    revision: int
    checksum: str
    service: PredictionService
    activated: float
    counter: object  # repro_server_predictions_total{model,version} handle


class _ModelEntry:
    """Router-side state of one served model name."""

    def __init__(self, name: str, trail_size: int):
        self.name = name
        self.lock = threading.Lock()
        self.trail = RequestTrail(capacity=trail_size)
        self.active: Optional[_Generation] = None
        self.draining: List[threading.Thread] = []


class ModelRouter:
    """Serve several named models concurrently with versioned hot-swap.

    Parameters
    ----------
    store:
        The :class:`repro.serving.ModelStore` models are loaded from (and
        whose monotonic :attr:`~repro.serving.ModelRecord.revision`
        stamps drive swap decisions).
    batch_size:
        Engine GEMM block size (see :class:`repro.serving.PredictionEngine`).
    cache_size:
        Kernel-row LRU capacity per engine.
    max_batch:
        Micro-batch cap of each generation's dispatcher.
    batch_window:
        Seconds the dispatcher waits to fill a micro-batch.
    drain_timeout:
        Seconds a retired generation gets to drain its backlog.
    trail_size:
        Shared per-model request-trail capacity (spans generations).
    """

    def __init__(self, store: ModelStore, batch_size: int = 1024,
                 cache_size: int = 0, max_batch: int = 256,
                 batch_window: float = 0.001,
                 drain_timeout: float = 10.0,
                 trail_size: int = 4096,
                 stream_budget: Optional[DriftBudget] = None,
                 recompress_mode: str = "auto"):
        if recompress_mode not in ("auto", "force", "off"):
            raise ValueError(
                f"recompress_mode must be 'auto', 'force' or 'off', "
                f"got {recompress_mode!r}")
        self.store = store
        self.batch_size = int(batch_size)
        self.cache_size = int(cache_size)
        self.max_batch = int(max_batch)
        self.batch_window = float(batch_window)
        self.drain_timeout = float(drain_timeout)
        self.trail_size = int(trail_size)
        self.stream_budget = stream_budget
        self.recompress_mode = recompress_mode
        self._entries: Dict[str, _ModelEntry] = {}
        self._recompressing: Dict[str, threading.Thread] = {}
        self._recompress_results: Dict[str, Dict[str, object]] = {}
        self._registry_lock = threading.Lock()
        reg = global_registry()
        self._m_predictions = reg.counter(
            "repro_server_predictions_total",
            "Predictions served by the HTTP router, by model and version",
            labelnames=("model", "version"))
        self._m_swaps = reg.counter(
            "repro_server_swaps_total",
            "Completed blue/green hot-swaps, by model",
            labelnames=("model",))
        self._m_revision = reg.gauge(
            "repro_server_model_revision",
            "Store revision currently served, by model",
            labelnames=("model",))

    @classmethod
    def from_config(cls, config, store: Optional[ModelStore] = None
                    ) -> "ModelRouter":
        """Build a router from a :class:`repro.runtime.RuntimeConfig`.

        Parameters
        ----------
        config:
            The resolved runtime config; ``serving.*`` supplies the
            engine/service knobs, ``server.drain_timeout`` the drain
            budget and ``stream.*`` the drift budget and recompression
            policy.
        store:
            Optional already-open store (``None`` opens
            ``serving.store``).

        Returns
        -------
        ModelRouter
            The configured router (no models served yet).
        """
        return cls(store if store is not None
                   else ModelStore.from_config(config),
                   batch_size=config.serving.batch_size,
                   cache_size=config.serving.cache_size,
                   max_batch=config.serving.max_batch,
                   batch_window=config.serving.batch_window,
                   drain_timeout=config.server.drain_timeout,
                   stream_budget=DriftBudget.from_config(config),
                   recompress_mode=config.stream.recompress)

    # ------------------------------------------------------------- generations
    def _build_generation(self, name: str, trail: RequestTrail,
                          applied=None) -> _Generation:
        """Start a serving generation of the latest store revision.

        ``applied`` is the ``(model, record)`` a :meth:`ModelStore.apply`
        of this router just published: while that record is still the
        store's latest the model in hand *is* the archive's content, so it
        is served as is; once an overlapping ``apply`` has published a
        newer revision, that one is loaded instead.
        """
        record = self.store.latest(name)
        if applied is not None and applied[1].revision == record.revision:
            model = applied[0]
        else:
            model = self.store.load(name)
        engine = PredictionEngine(model, batch_size=self.batch_size,
                                  cache_size=self.cache_size)
        service = PredictionService(
            engine, max_batch=self.max_batch,
            batch_window=self.batch_window, model_name=name,
            model_version=record.revision, trail=trail)
        service.start()
        counter = self._m_predictions.labels(model=name,
                                             version=str(record.revision))
        return _Generation(revision=record.revision,
                           checksum=record.checksum, service=service,
                           activated=time.time(), counter=counter)

    def _entry(self, name: str, create: bool = False) -> _ModelEntry:
        with self._registry_lock:
            entry = self._entries.get(name)
            if entry is None:
                if not create:
                    raise ModelNotServed(
                        f"model {name!r} is not being served; "
                        f"serving: {sorted(self._entries) or 'none'}")
                entry = _ModelEntry(name, self.trail_size)
                self._entries[name] = entry
            return entry

    # --------------------------------------------------------------- lifecycle
    def serve(self, name: str) -> int:
        """Start serving the latest stored revision of ``name``.

        Idempotent: an already-served model keeps its active generation
        (use :meth:`swap` to pick up a newer revision).

        Parameters
        ----------
        name:
            Store entry to serve.

        Returns
        -------
        int
            The revision now active.
        """
        entry = self._entry(name, create=True)
        with entry.lock:
            if entry.active is not None:
                return entry.active.revision
            entry.active = self._build_generation(name, entry.trail)
            self._m_revision.labels(model=name).set(entry.active.revision)
            return entry.active.revision

    def swap(self, name: str, force: bool = False,
             wait: bool = False) -> Dict[str, object]:
        """Hot-swap ``name`` to the latest store revision (blue/green).

        The replacement generation is built and started *before* the
        atomic flip, then the outgoing generation drains its admitted
        backlog on a background thread — zero requests are dropped.  When
        the store has no newer revision and ``force`` is false, the swap
        is a no-op.

        Parameters
        ----------
        name:
            Served model to swap.
        force:
            Rebuild and flip even when the store revision is unchanged
            (e.g. to pick up changed engine settings).
        wait:
            Block until the outgoing generation finished draining.

        Returns
        -------
        dict
            ``{"model", "old_revision", "new_revision", "swapped"}``.
        """
        return self._swap(name, force, wait)

    def _swap(self, name: str, force: bool = False, wait: bool = False,
              applied=None) -> Dict[str, object]:
        """:meth:`swap`, given what :meth:`_build_generation` can reuse."""
        entry = self._entry(name)
        with entry.lock:
            if entry.active is None:
                raise RouterError(f"model {name!r} has no active generation")
            old = entry.active
            latest = self.store.latest(name).revision
            if latest == old.revision and not force:
                return {"model": name, "old_revision": old.revision,
                        "new_revision": old.revision, "swapped": False}
            new = self._build_generation(name, entry.trail, applied)
            entry.active = new  # the atomic flip: new requests route here
            self._m_revision.labels(model=name).set(new.revision)
            self._m_swaps.labels(model=name).inc()
            drainer = threading.Thread(
                target=old.service.stop, args=(self.drain_timeout,),
                name=f"repro-server-drain-{name}", daemon=True)
            entry.draining.append(drainer)
            drainer.start()
        if wait:
            drainer.join(self.drain_timeout)
        return {"model": name, "old_revision": old.revision,
                "new_revision": new.revision, "swapped": True}

    def _apply_and_swap(self, name: str, verb: str, *args, **kwargs):
        """:meth:`ModelStore.apply` on a served model, then :meth:`swap`.

        The shared body of :meth:`refit`, :meth:`update` and the
        background recompression: the store loads the model, calls the
        verb and re-saves it (bumping the revision), and traffic flips to
        the result — the model in hand, not a second load of what was
        just saved.  Returns the mutated model and the swap result.
        """
        self._entry(name)  # must already be served
        applied = self.store.apply(name, verb, *args, **kwargs)
        return applied[0], self._swap(name, applied=applied)

    def refit(self, name: str, lam: float) -> Dict[str, object]:
        """Refit ``name`` at a new λ, re-save, and hot-swap to the result.

        The λ-only refactorization reuses the stored compression (the
        compress-once/refit-many contract); the re-save bumps the store
        revision under the per-model lock and the swap flips traffic to
        the refitted weights with in-flight requests draining on the old
        version.

        Parameters
        ----------
        name:
            Served model to refit.
        lam:
            New ridge parameter.

        Returns
        -------
        dict
            The :meth:`swap` result plus ``"lam"``.
        """
        _, result = self._apply_and_swap(
            name, "refit", float(lam), meta={"lambda": float(lam)})
        result["lam"] = float(lam)
        return result

    def update(self, name: str, X_new=None, y_new=None, remove=None,
               recompress: Optional[str] = None,
               wait: bool = False) -> Dict[str, object]:
        """Stream rows into/out of ``name`` and hot-swap to the result.

        The stored model is loaded, :meth:`~repro.krr.KernelRidgeClassifier.partial_fit`
        applies the removals and appended rows as a Woodbury correction
        (no recompression), the streamed artifact is re-saved (bumping
        the store revision) and traffic flips to it via :meth:`swap` —
        the cost of picking up new data is one capacitance solve, not a
        cold fit.  When the router's :class:`repro.hss.DriftBudget` is
        breached (or ``recompress="force"``), a *background* cold refit
        of the effective training set is scheduled; once it lands, the
        store revision bumps again and a second hot-swap publishes the
        recompressed model — serving continues on the corrected
        (slightly slower) model in the meantime, with zero dropped
        requests at either flip.

        Parameters
        ----------
        name:
            Served model to update.
        X_new, y_new:
            Rows (and their labels) to append, or ``None``.
        remove:
            Indices into the model's current training ordering to drop.
        recompress:
            ``"auto"`` (recompress only on budget breach, the default
            from the ``[stream]`` config), ``"force"`` or ``"off"``.
        wait:
            Block until a scheduled recompression (and its swap)
            completed instead of returning while it runs.

        Returns
        -------
        dict
            The :meth:`swap` result plus ``"stream"`` (drift bookkeeping
            of the applied update) and ``"recompress"`` (whether a
            background recompression was scheduled / completed).
        """
        mode = self.recompress_mode if recompress is None else recompress
        if mode not in ("auto", "force", "off"):
            raise RouterError(
                f"recompress must be 'auto', 'force' or 'off', got {mode!r}")
        self._entry(name)  # an unknown model is reported before bad rows
        X_arr = None if X_new is None else np.asarray(X_new, dtype=np.float64)
        y_arr = None if y_new is None else np.asarray(y_new)
        model, result = self._apply_and_swap(
            name, "partial_fit", X_new=X_arr, y_new=y_arr, remove=remove,
            budget=self.stream_budget, meta={"streamed": True})
        info = dict(model.stream_info_ or {})
        result["stream"] = info
        if should_recompress(mode, info):
            result["recompress"] = self._schedule_recompress(name, wait=wait)
        else:
            result["recompress"] = {"mode": mode, "scheduled": False}
        result["recompress"]["mode"] = mode
        return result

    def recompress(self, name: str, wait: bool = False) -> Dict[str, object]:
        """Schedule a background recompression of ``name`` (see :meth:`update`).

        Parameters
        ----------
        name:
            Served model to recompress.
        wait:
            Block until the recompression and its hot-swap completed.

        Returns
        -------
        dict
            ``{"scheduled", "running"}`` plus, once finished (always
            when ``wait``), the completed job's swap result or error.
        """
        self._entry(name)  # must already be served
        return self._schedule_recompress(name, wait=wait)

    def _schedule_recompress(self, name: str, wait: bool) -> Dict[str, object]:
        """Start (or join) the single in-flight recompress job of ``name``."""
        with self._registry_lock:
            thread = self._recompressing.get(name)
            started = thread is None or not thread.is_alive()
            if started:
                self._recompress_results.pop(name, None)
                thread = threading.Thread(
                    target=self._recompress_job, args=(name,),
                    name=f"repro-server-recompress-{name}", daemon=True)
                self._recompressing[name] = thread
        if started:
            thread.start()
        if wait:
            thread.join()
        result: Dict[str, object] = {"scheduled": started,
                                     "running": thread.is_alive()}
        done = self._recompress_results.get(name)
        if done is not None and not thread.is_alive():
            result.update(done)
        return result

    def _recompress_job(self, name: str) -> None:
        """Background worker: cold-refit the effective data and hot-swap."""
        try:
            _, swap = self._apply_and_swap(
                name, "recompress",
                meta={"streamed": None, "recompressed": True})
            self._recompress_results[name] = {"status": "completed",
                                              "swap": swap}
        except Exception as exc:  # noqa: BLE001 - surfaced via results dict
            self._recompress_results[name] = {"status": "failed",
                                              "error": str(exc)}

    def stop(self, name: str) -> None:
        """Stop serving ``name`` (drains the active generation).

        Parameters
        ----------
        name:
            Served model to retire.
        """
        entry = self._entry(name)
        with entry.lock:
            active, entry.active = entry.active, None
            drainers = list(entry.draining)
        if active is not None:
            active.service.stop(timeout=self.drain_timeout)
        for thread in drainers:
            thread.join(self.drain_timeout)
        with self._registry_lock:
            self._entries.pop(name, None)

    def close(self) -> None:
        """Stop every served model and wait for all drains."""
        for name in self.names():
            try:
                self.stop(name)
            except RouterError:  # pragma: no cover - raced removal
                continue

    # --------------------------------------------------------------- requests
    def submit(self, name: str, x: np.ndarray) -> Future:
        """Enqueue one query against the active generation of ``name``.

        Retries the admission when a hot-swap flips the active generation
        mid-submit, so requests racing a swap are never failed — they are
        re-routed to the incoming version.

        Parameters
        ----------
        name:
            Served model name.
        x:
            One query point (1-D array of the model's dimension).

        Returns
        -------
        concurrent.futures.Future
            Resolves to the predicted label.
        """
        entry = self._entry(name)
        while True:
            with entry.lock:
                generation = entry.active
            if generation is None:
                raise RouterError(f"model {name!r} has no active generation")
            try:
                future = generation.service.submit(x)
            except RuntimeError:
                # The generation stopped accepting between the read and
                # the submit (hot-swap flip); route to its replacement.
                continue
            generation.counter.inc()
            return future

    def predict(self, name: str, X: np.ndarray,
                timeout: Optional[float] = None) -> np.ndarray:
        """Predict a batch through the active generation (in order).

        Parameters
        ----------
        name:
            Served model name.
        X:
            Query matrix ``(m, d)``.
        timeout:
            Seconds to wait per result.

        Returns
        -------
        numpy.ndarray
            Predicted labels, aligned with the rows of ``X``.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        futures = [self.submit(name, X[i]) for i in range(X.shape[0])]
        return np.asarray([f.result(timeout=timeout) for f in futures])

    # ------------------------------------------------------------------ state
    def names(self) -> List[str]:
        """Names currently being served, sorted."""
        with self._registry_lock:
            return sorted(self._entries)

    def active_revision(self, name: str) -> int:
        """Revision of the generation currently serving ``name``.

        Parameters
        ----------
        name:
            Served model name.

        Returns
        -------
        int
            The active store revision.
        """
        entry = self._entry(name)
        with entry.lock:
            if entry.active is None:
                raise RouterError(f"model {name!r} has no active generation")
            return entry.active.revision

    def recent_requests(self, name: str, n: Optional[int] = None):
        """The model's shared request trail, oldest first (spans swaps).

        Parameters
        ----------
        name:
            Served model name.
        n:
            Number of records (``None`` → all retained).

        Returns
        -------
        list of repro.obs.RequestRecord
            Finished records with per-request ``model_version`` labels.
        """
        return self._entry(name).trail.recent(n)

    def status(self, name: str) -> Dict[str, object]:
        """Serving status of one model (the ``GET /models/<name>`` payload).

        Parameters
        ----------
        name:
            Served model name.

        Returns
        -------
        dict
            Active revision/checksum, store's latest revision, whether a
            newer revision is available, drain count and rolling service
            statistics (p50/p95 latency, QPS, completed/failed counts).
        """
        entry = self._entry(name)
        with entry.lock:
            generation = entry.active
            draining = sum(1 for t in entry.draining if t.is_alive())
        with self._registry_lock:
            job = self._recompressing.get(name)
        recompressing = job is not None and job.is_alive()
        if generation is None:
            return {"model": name, "status": "stopped", "draining": draining,
                    "recompressing": recompressing}
        stats = generation.service.stats()
        try:
            latest = self.store.latest(name).revision
        except Exception:
            latest = generation.revision
        return {
            "model": name,
            "status": "ready",
            "revision": generation.revision,
            "checksum": generation.checksum,
            "activated": generation.activated,
            "latest_revision": latest,
            "swap_available": latest > generation.revision,
            "draining": draining,
            "recompressing": recompressing,
            "stats": {
                "completed": stats.completed,
                "failed": stats.failed,
                "pending": stats.pending,
                "qps": stats.qps,
                "p50_latency_ms": stats.p50_latency_ms,
                "p95_latency_ms": stats.p95_latency_ms,
                "mean_batch_size": stats.mean_batch_size,
            },
        }

    def status_all(self) -> List[Dict[str, object]]:
        """Status of every served model (the ``GET /models`` payload).

        Returns
        -------
        list of dict
            One :meth:`status` payload per served name, sorted by name.
        """
        return [self.status(name) for name in self.names()]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ModelRouter(models={self.names()}, store={self.store.root!r})"

"""Micro-batched prediction on a trained classifier.

Step 3 of Algorithm 1 — the test-kernel rows ``K'(x') = K(x', X_train)`` —
is embarrassingly GEMM-shaped: a batch of ``b`` queries against ``n``
training points is one ``(b, d) x (d, n)`` matrix product, which
:meth:`repro.kernels.Kernel.from_inner_products` turns into kernel values
in place (row tile by row tile, with the training norms computed once per
engine), followed by one GEMV against the weights.  Answering queries one
at a time instead degrades every product to a GEMV and loses an order of
magnitude of throughput (the perf ledger's ``engine.single_row_us``
against ``engine.batch1k_s``).

:class:`PredictionEngine` therefore coalesces incoming queries into
micro-batches and evaluates each batch with the same evaluator and GEMM
shapes as the training-time classifier (so batched predictions match
``classifier.predict`` exactly at equal chunk sizes).  A batch's kernel
rows live only until its scores are taken, so a call holds one
``(batch, n)`` block at a time; batches run one after another in the
calling thread (BLAS threads each GEMM), and an LRU cache of computed
scores lets repeated query points — common under real traffic — skip the
kernel rows entirely.

Every model is served this way, sharded-trained or not: the decision value
``w . K'(x')`` needs the whole weight vector whichever process solved for
it, so a sharded model scores bitwise like ``model.decision_function`` at
equal chunk size.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..kernels.distance import sq_norms
from ..obs import global_registry
from ..utils.validation import check_array_2d, check_same_dimension


@dataclass
class EngineStats:
    """Counters accumulated by one :class:`PredictionEngine`."""

    queries: int = 0
    batches: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    rows_computed: int = 0
    eval_seconds: float = 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of queries answered from the kernel-row cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def rows_per_second(self) -> float:
        """Throughput of the kernel-row computation (computed rows only)."""
        return self.rows_computed / self.eval_seconds if self.eval_seconds else 0.0


class KernelRowCache:
    """Thread-safe LRU cache of computed kernel-row results per query point.

    Keys are digests of the raw query bytes; values are ``(kernel_row,
    score)`` pairs.  The score is what hits replay — the exact decision
    value of the first evaluation, instead of re-reducing the row (which
    could differ in the last bit).  The kernel row itself (``n_train``
    float64 values against the training set) is optional: the engine only
    stores it when asked to (``cache_rows=True``), since scores alone cost
    a few bytes per entry while rows cost ``capacity * n_train * 8`` bytes.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = int(capacity)
        self._data: "OrderedDict[bytes, tuple]" = OrderedDict()
        self._lock = threading.Lock()

    @staticmethod
    def key_for(x: np.ndarray) -> bytes:
        """Digest of one query point (dtype-normalized, order-insensitive)."""
        buf = np.ascontiguousarray(x, dtype=np.float64).tobytes()
        return hashlib.blake2b(buf, digest_size=16).digest()

    def get(self, key: bytes) -> Optional[tuple]:
        with self._lock:
            entry = self._data.get(key)
            if entry is not None:
                self._data.move_to_end(key)
            return entry

    def put(self, key: bytes, score: np.ndarray,
            row: Optional[np.ndarray] = None) -> None:
        with self._lock:
            self._data[key] = (row, score)
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


class PredictionEngine:
    """Batched prediction front-end over a fitted classifier.

    Parameters
    ----------
    model:
        A fitted :class:`repro.krr.KernelRidgeClassifier` or
        :class:`repro.krr.OneVsAllClassifier` (anything exposing
        ``kernel``, ``X_train_``, ``weights_`` and, for multi-class
        models, ``classes_``).
    batch_size:
        Maximum number of query rows evaluated in one GEMM.  The default
        matches the classifier's prediction block size, so un-cached
        batched scores are bitwise identical to ``model.predict``.
    cache_size:
        Capacity (in entries) of the LRU result cache; ``0`` disables
        caching.
    cache_rows:
        If ``True``, cached entries also retain the full kernel row of the
        query (``n_train`` float64 values each — budget accordingly);
        by default only the decision score is kept, which is all that
        prediction needs.
    """

    def __init__(self, model, batch_size: int = 1024, cache_size: int = 0,
                 cache_rows: bool = False):
        if getattr(model, "weights_", None) is None or getattr(model, "X_train_", None) is None:
            raise ValueError("PredictionEngine requires a fitted model")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.model = model
        self.kernel = model.kernel
        self.X_train = np.ascontiguousarray(model.X_train_, dtype=np.float64)
        self.weights = np.asarray(model.weights_, dtype=np.float64)
        # ||x||^2 of every training row, once: each batch's kernel rows
        # need them and the training set never changes under an engine.
        self._sq_train = sq_norms(self.X_train)
        self.classes = getattr(model, "classes_", None)
        self.batch_size = int(batch_size)
        self.cache = KernelRowCache(cache_size) if cache_size > 0 else None
        self.cache_rows = bool(cache_rows)
        self.stats = EngineStats()
        self._stats_lock = threading.Lock()
        # Metric handles resolved once at construction: decision_many does
        # a handful of inc() calls per *batch*, never a registry lookup per
        # query.  With obs disabled these are no-op metrics.
        reg = global_registry()
        self._m_queries = reg.counter(
            "repro_serving_queries_total", "Queries scored by prediction engines")
        self._m_batches = reg.counter(
            "repro_serving_batches_total", "Micro-batches evaluated (GEMM calls)")
        self._m_hits = reg.counter(
            "repro_serving_cache_hits_total", "Kernel-row cache hits")
        self._m_misses = reg.counter(
            "repro_serving_cache_misses_total", "Kernel-row cache misses")
        self._m_rows = reg.counter(
            "repro_serving_rows_computed_total", "Kernel rows computed (non-cached)")
        self._m_eval = reg.histogram(
            "repro_serving_eval_seconds", "Per-call kernel evaluation seconds")

    @classmethod
    def from_config(cls, config, model) -> "PredictionEngine":
        """Build an engine from a :class:`repro.runtime.RuntimeConfig`.

        Parameters
        ----------
        config:
            The resolved runtime config; ``serving.batch_size`` /
            ``serving.cache_size`` map onto the constructor arguments.
        model:
            The fitted model to serve.

        Returns
        -------
        PredictionEngine
            The configured engine.
        """
        return cls(model, batch_size=config.serving.batch_size,
                   cache_size=config.serving.cache_size)

    # ------------------------------------------------------------------ core
    @property
    def n_train(self) -> int:
        """Number of training rows the engine scores against."""
        return self.X_train.shape[0]

    def _kernel_rows(self, Xb: np.ndarray) -> np.ndarray:
        """Dense kernel rows of one micro-batch: its GEMM output, evaluated
        in place."""
        return self.kernel.from_inner_products(
            Xb @ self.X_train.T, sq_norms(Xb)[:, None],
            self._sq_train[None, :])

    def decision_many(self, X: np.ndarray) -> np.ndarray:
        """Decision scores for a batch of queries.

        Shape ``(m,)`` for binary models (``w . K'(x')``), ``(m, c)`` for
        one-vs-all models.  Cached rows are reused; the remaining rows are
        split into micro-batches and evaluated in turn as coalesced GEMMs.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-dimensional, got shape {X.shape}")
        if X.shape[0] == 0:
            d = self.X_train.shape[1]
            if X.shape[1] != d:
                raise ValueError(f"X has dimension {X.shape[1]}, expected {d}")
        else:
            X = check_array_2d(X, "X")
            check_same_dimension(X, self.X_train, ("X", "X_train"))
        m = X.shape[0]
        out_shape = (m,) if self.weights.ndim == 1 else (m, self.weights.shape[1])
        scores = np.empty(out_shape, dtype=np.float64)
        if m == 0:
            return scores

        hits = misses = 0
        dup_of: dict = {}
        if self.cache is not None:
            keys: List[bytes] = [self.cache.key_for(X[i]) for i in range(m)]
            miss_idx: List[int] = []
            first_seen: dict = {}
            for i, key in enumerate(keys):
                entry = self.cache.get(key)
                if entry is not None:
                    scores[i] = entry[1]
                    hits += 1
                elif key in first_seen:
                    # Duplicate within this call: reuse the in-flight result
                    # instead of computing the same kernel row twice.
                    dup_of[i] = first_seen[key]
                    hits += 1
                else:
                    first_seen[key] = i
                    miss_idx.append(i)
            miss = np.asarray(miss_idx, dtype=np.intp)
        else:
            keys = []
            miss = np.arange(m, dtype=np.intp)
        misses = int(miss.size)

        def score(sl: slice) -> None:
            # One micro-batch from kernel rows to scores: its rows die on
            # return, so only one batch's rows are alive at any time.
            rows = self._kernel_rows(X_miss[sl])
            chunk_scores = rows @ self.weights
            scores[miss[sl]] = chunk_scores
            if self.cache is not None:
                for j, i in enumerate(miss[sl]):
                    # Copy: rows[j] / chunk_scores[j] are views whose .base
                    # is the whole chunk; caching a view would pin the full
                    # (batch, n_train) array in memory.
                    self.cache.put(keys[i],
                                   np.array(chunk_scores[j], copy=True),
                                   row=rows[j].copy() if self.cache_rows
                                   else None)

        t0 = time.perf_counter()
        n_batches = 0
        if miss.size:
            # miss is increasing, so covering every row means it is all of X
            X_miss = X if miss.size == m else X[miss]
            for start in range(0, miss.size, self.batch_size):
                score(slice(start, min(start + self.batch_size, miss.size)))
                n_batches += 1
        for i, j in dup_of.items():
            scores[i] = scores[j]
        elapsed = time.perf_counter() - t0

        with self._stats_lock:
            self.stats.queries += m
            self.stats.batches += n_batches
            self.stats.cache_hits += hits
            self.stats.cache_misses += misses
            self.stats.rows_computed += misses
            self.stats.eval_seconds += elapsed
        self._m_queries.inc(m)
        if n_batches:
            self._m_batches.inc(n_batches)
        if hits:
            self._m_hits.inc(hits)
        if misses:
            self._m_misses.inc(misses)
            self._m_rows.inc(misses)
        self._m_eval.observe(elapsed)
        return scores

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        """Predicted labels for a batch of queries.

        Matches ``model.predict(X)`` exactly: sign of the decision value
        for binary models, argmax over per-class scores for one-vs-all
        models.
        """
        scores = self.decision_many(X)
        if self.classes is None:
            return np.where(scores >= 0.0, 1.0, -1.0)
        return self.classes[np.argmax(scores, axis=1)]

    def predict(self, x: np.ndarray):
        """Predicted label of a single query point."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        return self.predict_many(x)[0]

    # ------------------------------------------------------------------ misc
    def cached_row(self, x: np.ndarray) -> Optional[np.ndarray]:
        """Retained kernel row of a previously served query, or ``None``.

        Only available when the engine was built with ``cache_rows=True``
        (and the entry has not been evicted).  Useful for diagnostics:
        the row holds the query's kernel similarity to every training
        point, e.g. ``np.argsort(engine.cached_row(x))[::-1][:k]`` gives
        the indices of the ``k`` most influential training points.
        """
        if self.cache is None:
            return None
        x = np.asarray(x, dtype=np.float64).ravel()
        entry = self.cache.get(KernelRowCache.key_for(x))
        return None if entry is None else entry[0]

    def reset_stats(self) -> None:
        """Zero the engine's counters (e.g. between benchmark phases).

        Mutates the existing :class:`EngineStats` in place rather than
        rebinding ``self.stats``, so callers holding a reference to the
        stats object (dashboards, the serving layer) observe the reset
        instead of a frozen pre-reset copy.
        """
        with self._stats_lock:
            self.stats.queries = 0
            self.stats.batches = 0
            self.stats.cache_hits = 0
            self.stats.cache_misses = 0
            self.stats.rows_computed = 0
            self.stats.eval_seconds = 0.0

    def close(self) -> None:
        """Release the engine (a no-op: it holds no threads or handles).

        Kept so every engine owner can close what it built, directly or
        through the context manager; a closed engine remains usable.
        """

    def __enter__(self) -> "PredictionEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cache = self.cache.capacity if self.cache is not None else 0
        return (f"PredictionEngine(n_train={self.n_train}, "
                f"batch_size={self.batch_size}, cache_size={cache})")


"""Tests for the batched prediction engine and the serving front-end."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.datasets import gaussian_mixture
from repro.krr import KernelRidgeClassifier, OneVsAllClassifier
from repro.serving import (KernelRowCache, PredictionEngine, PredictionService)


@pytest.fixture(scope="module")
def binary_model():
    X, y = gaussian_mixture(n=256, d=6, seed=0)
    clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="hss", seed=0).fit(X, y)
    X_test, _ = gaussian_mixture(n=100, d=6, seed=1)
    return clf, X_test


@pytest.fixture(scope="module")
def multiclass_model():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((200, 4))
    y = rng.integers(0, 3, size=200)
    ova = OneVsAllClassifier(h=1.0, lam=1.0, solver="dense", seed=0).fit(X, y)
    X_test = rng.standard_normal((60, 4))
    return ova, X_test


class TestKernelRowCache:
    def test_lru_eviction(self):
        cache = KernelRowCache(capacity=2)
        cache.put(b"a", np.float64(0.0))
        cache.put(b"b", np.float64(1.0), row=np.full(3, 1.0))
        assert cache.get(b"a") is not None  # refresh "a"; "b" is now LRU
        cache.put(b"c", np.float64(2.0))
        assert cache.get(b"b") is None
        assert cache.get(b"a") is not None and cache.get(b"c") is not None
        assert len(cache) == 2

    def test_key_is_value_based(self):
        x = np.array([1.0, 2.0, 3.0])
        assert KernelRowCache.key_for(x) == KernelRowCache.key_for(x.copy())
        assert KernelRowCache.key_for(x) != KernelRowCache.key_for(x + 1e-12)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            KernelRowCache(0)


class TestPredictionEngine:
    def test_matches_classifier_exactly(self, binary_model):
        clf, X_test = binary_model
        engine = PredictionEngine(clf)
        assert np.array_equal(engine.predict_many(X_test), clf.predict(X_test))
        assert np.array_equal(engine.decision_many(X_test),
                              clf.decision_function(X_test))

    @pytest.mark.parametrize("batch_size", [1, 7, 32, 1024])
    def test_micro_batch_sizes_give_same_labels(self, binary_model, batch_size):
        clf, X_test = binary_model
        engine = PredictionEngine(clf, batch_size=batch_size)
        assert np.array_equal(engine.predict_many(X_test), clf.predict(X_test))

    def test_multiclass_matches_classifier(self, multiclass_model):
        ova, X_test = multiclass_model
        engine = PredictionEngine(ova, batch_size=1024)
        assert np.array_equal(engine.predict_many(X_test), ova.predict(X_test))
        assert np.array_equal(engine.decision_many(X_test),
                              ova.decision_function(X_test))

    def test_cache_stores_scores_only_by_default(self, binary_model):
        clf, X_test = binary_model
        engine = PredictionEngine(clf, batch_size=32, cache_size=256)
        engine.predict_many(X_test)
        assert len(engine.cache) == X_test.shape[0]
        for entry in engine.cache._data.values():
            assert entry[0] is None  # no kernel rows retained

    def test_cached_rows_do_not_pin_chunk_arrays(self, binary_model):
        """With cache_rows=True the entries must be copies, not views into
        the per-batch (batch_size, n_train) chunk matrices."""
        clf, X_test = binary_model
        engine = PredictionEngine(clf, batch_size=32, cache_size=256,
                                  cache_rows=True)
        engine.predict_many(X_test)
        for entry in engine.cache._data.values():
            assert entry[0].shape == (clf.X_train_.shape[0],)
            assert entry[0].base is None
            assert np.isscalar(entry[1]) or getattr(entry[1], "base", None) is None

    def test_cached_row_accessor(self, binary_model):
        clf, X_test = binary_model
        engine = PredictionEngine(clf, cache_size=256, cache_rows=True)
        engine.predict_many(X_test[:5])
        row = engine.cached_row(X_test[0])
        expected = clf.kernel.matrix(X_test[:1], clf.X_train_)[0]
        np.testing.assert_allclose(row, expected, rtol=1e-12)
        assert engine.cached_row(X_test[50]) is None  # never served
        # Without cache_rows the accessor reports nothing.
        lean = PredictionEngine(clf, cache_size=256)
        lean.predict_many(X_test[:5])
        assert lean.cached_row(X_test[0]) is None

    def test_cache_replays_exact_scores(self, binary_model):
        clf, X_test = binary_model
        engine = PredictionEngine(clf, cache_size=256)
        first = engine.decision_many(X_test)
        again = engine.decision_many(X_test)
        assert np.array_equal(first, again)
        assert engine.stats.cache_hits == X_test.shape[0]
        assert engine.stats.cache_misses == X_test.shape[0]
        assert engine.stats.hit_rate == pytest.approx(0.5)
        # Only the first pass computed kernel rows.
        assert engine.stats.rows_computed == X_test.shape[0]

    def test_intra_batch_duplicates_deduplicated(self, binary_model):
        """Repeated points inside one call are computed once and replayed."""
        clf, X_test = binary_model
        engine = PredictionEngine(clf, cache_size=256)
        traffic = np.vstack([X_test[:20], X_test[:20], X_test[5:10]])
        scores = engine.decision_many(traffic)
        assert engine.stats.rows_computed == 20
        assert engine.stats.cache_hits == 25
        assert np.array_equal(scores[20:40], scores[:20])
        assert np.array_equal(scores[40:], scores[5:10])
        assert np.array_equal(np.where(scores >= 0.0, 1.0, -1.0),
                              clf.predict(traffic))

    def test_cache_mixed_hit_miss_batch(self, binary_model):
        clf, X_test = binary_model
        engine = PredictionEngine(clf, cache_size=256)
        engine.predict_many(X_test[:40])
        mixed = np.vstack([X_test[20:60], X_test[:10]])
        assert np.array_equal(engine.predict_many(mixed), clf.predict(mixed))
        assert engine.stats.cache_hits == 30

    def test_single_point_predict(self, binary_model):
        clf, X_test = binary_model
        engine = PredictionEngine(clf)
        assert engine.predict(X_test[0]) == clf.predict(X_test[:1])[0]
        assert engine.predict(X_test[3][None, :]) == clf.predict(X_test[3:4])[0]

    def test_empty_batch(self, binary_model):
        clf, _ = binary_model
        engine = PredictionEngine(clf)
        out = engine.decision_many(np.empty((0, clf.X_train_.shape[1])))
        assert out.shape == (0,)

    def test_stats_reset(self, binary_model):
        clf, X_test = binary_model
        engine = PredictionEngine(clf)
        engine.predict_many(X_test)
        assert engine.stats.queries > 0
        engine.reset_stats()
        assert engine.stats.queries == 0

    def test_stats_reset_mutates_in_place(self, binary_model):
        """Regression: reset must not rebind ``engine.stats``.

        A dashboard (or the sharded service) holding the stats object must
        observe the reset — the old behaviour replaced the object and left
        external references frozen at the pre-reset counts.
        """
        clf, X_test = binary_model
        engine = PredictionEngine(clf)
        held = engine.stats
        engine.predict_many(X_test)
        assert held.queries == X_test.shape[0]
        engine.reset_stats()
        assert engine.stats is held
        assert held.queries == 0 and held.eval_seconds == 0.0
        engine.predict_many(X_test)
        assert held.queries == X_test.shape[0]

    def test_requires_fitted_model(self):
        with pytest.raises(ValueError):
            PredictionEngine(KernelRidgeClassifier())

    def test_dimension_mismatch(self, binary_model):
        clf, _ = binary_model
        engine = PredictionEngine(clf)
        with pytest.raises(ValueError):
            engine.predict_many(np.zeros((4, 3)))


class TestPredictionService:
    def test_predict_many_matches_direct(self, binary_model):
        clf, X_test = binary_model
        with PredictionService(clf, max_batch=16) as svc:
            labels = svc.predict_many(X_test)
        assert np.array_equal(labels, clf.predict(X_test))

    def test_submit_futures(self, binary_model):
        clf, X_test = binary_model
        expected = clf.predict(X_test)
        with PredictionService(PredictionEngine(clf), max_batch=8) as svc:
            futures = [svc.submit(X_test[i]) for i in range(X_test.shape[0])]
            got = np.asarray([f.result(timeout=30) for f in futures])
        assert np.array_equal(got, expected)

    def test_concurrent_submitters(self, binary_model):
        clf, X_test = binary_model
        expected = clf.predict(X_test)
        results = {}
        errors = []

        def client(lo, hi, svc):
            try:
                futs = [(i, svc.submit(X_test[i])) for i in range(lo, hi)]
                for i, f in futs:
                    results[i] = f.result(timeout=30)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        with PredictionService(clf, max_batch=32) as svc:
            threads = [threading.Thread(target=client,
                                        args=(lo, lo + 25, svc))
                       for lo in range(0, 100, 25)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        assert not errors
        got = np.asarray([results[i] for i in range(100)])
        assert np.array_equal(got, expected)

    def test_stats(self, binary_model):
        clf, X_test = binary_model
        with PredictionService(clf, max_batch=16) as svc:
            svc.predict_many(X_test)
            stats = svc.stats()
        assert stats.completed == X_test.shape[0]
        assert stats.failed == 0
        assert stats.batches >= 1
        assert stats.mean_batch_size >= 1.0
        assert stats.p95_latency_ms >= stats.p50_latency_ms >= 0.0
        assert stats.qps > 0.0
        assert "qps" in stats.summary()

    def test_recent_requests_trail(self, binary_model):
        clf, X_test = binary_model
        with PredictionService(clf, max_batch=16, trail_size=64) as svc:
            svc.predict_many(X_test[:20])
            trail = svc.recent_requests()
        assert len(trail) == 20
        ids = [r.request_id for r in trail]
        assert ids == sorted(ids)  # oldest first, ids monotone
        for rec in trail:
            assert rec.status == "completed"
            assert rec.t_enqueue <= rec.t_batch <= rec.t_complete
            assert rec.batch_size >= 1
            assert rec.latency >= rec.queue_wait >= 0.0
        assert len(svc.recent_requests(5)) == 5

    def test_trail_records_failures(self, binary_model):
        clf, X_test = binary_model
        engine = PredictionEngine(clf)
        with PredictionService(engine, max_batch=4) as svc:
            fut = svc.submit(X_test[0])
            fut.result(timeout=30)
            # Sabotage the engine so the next batch fails.
            engine.weights = np.zeros((3,))
            bad = svc.submit(X_test[1])
            with pytest.raises(Exception):
                bad.result(timeout=30)
            trail = svc.recent_requests()
        failed = [r for r in trail if r.status == "failed"]
        assert failed and failed[-1].error

    def test_stop_drains_queue(self, binary_model):
        clf, X_test = binary_model
        svc = PredictionService(clf, max_batch=4).start()
        futures = [svc.submit(X_test[i]) for i in range(20)]
        svc.stop()
        got = np.asarray([f.result(timeout=30) for f in futures])
        assert np.array_equal(got, clf.predict(X_test[:20]))
        assert not svc.is_running

    def test_submit_copies_caller_buffer(self, binary_model):
        """A caller reusing one buffer across submits must not corrupt
        queued requests."""
        clf, X_test = binary_model
        expected = clf.predict(X_test[:16])
        buf = np.empty(X_test.shape[1])
        with PredictionService(clf, max_batch=4) as svc:
            futures = []
            for i in range(16):
                buf[:] = X_test[i]
                futures.append(svc.submit(buf))
            got = np.asarray([f.result(timeout=30) for f in futures])
        assert np.array_equal(got, expected)

    def test_submit_requires_running(self, binary_model):
        clf, X_test = binary_model
        svc = PredictionService(clf)
        with pytest.raises(RuntimeError):
            svc.submit(X_test[0])

    def test_wrong_dimension_rejected_at_submit(self, binary_model):
        """A malformed request fails synchronously instead of poisoning the
        micro-batch it would have been coalesced into."""
        clf, X_test = binary_model
        with PredictionService(clf) as svc:
            with pytest.raises(ValueError):
                svc.submit(np.zeros(3))
            # The service stays healthy for well-formed requests.
            good = svc.submit(X_test[0]).result(timeout=30)
        assert good == clf.predict(X_test[:1])[0]

    def test_engine_error_propagates_to_futures(self, binary_model):
        """Failures inside the engine resolve the waiting futures with the
        exception instead of killing the dispatcher thread."""
        clf, X_test = binary_model
        engine = PredictionEngine(clf)
        original = engine.predict_many

        def flaky(X):
            raise RuntimeError("injected engine failure")

        with PredictionService(engine, max_batch=4) as svc:
            engine.predict_many = flaky
            fut = svc.submit(X_test[0])
            with pytest.raises(RuntimeError, match="injected"):
                fut.result(timeout=30)
            assert svc.is_running  # dispatcher survived
            engine.predict_many = original
            ok = svc.submit(X_test[1]).result(timeout=30)
        assert ok == clf.predict(X_test[1:2])[0]
        assert svc.stats().failed == 1

    def test_restartable(self, binary_model):
        clf, X_test = binary_model
        svc = PredictionService(clf)
        svc.start()
        svc.stop()
        svc.start()
        try:
            assert svc.submit(X_test[0]).result(timeout=30) == clf.predict(X_test[:1])[0]
        finally:
            svc.stop()

"""Tests of the ``repro.obs`` telemetry subsystem.

Covers the satellite checklist of the observability issue: registry
thread-safety under concurrent increments, histogram bucket-merge
exactness across shard snapshots, span-tree nesting, Prometheus text
round-tripping through the minimal parser, and the distributed snapshot
merge at ``shards=2`` (real worker processes).
"""

from __future__ import annotations

import json
import math
import threading

import numpy as np
import pytest

import repro.obs as obs
from repro.obs import (DEFAULT_BUCKETS, Counter, Gauge, Histogram,
                       MetricsRegistry, NullRegistry, RequestTrail, Tracer,
                       merge_snapshots, parse_prometheus,
                       snapshot_to_prometheus)
from repro.obs.requests_log import RequestRecord


# ----------------------------------------------------------------- registry
class TestRegistry:
    def test_get_or_create_returns_same_metric(self):
        reg = MetricsRegistry()
        c1 = reg.counter("x_total", "help text")
        c2 = reg.counter("x_total")
        assert c1 is c2

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError):
            reg.gauge("x_total")
        with pytest.raises(ValueError):
            reg.counter("x_total", labelnames=("a",))

    def test_counter_monotonic(self):
        c = Counter("c_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_up_down(self):
        g = Gauge("g")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value == 12.0

    def test_labeled_family(self):
        reg = MetricsRegistry()
        fam = reg.counter("req_total", labelnames=("model",))
        fam.labels(model="a").inc(2)
        fam.labels(model="b").inc(3)
        assert fam.labels(model="a").value == 2.0
        snap = reg.local_snapshot()
        assert snap["counters"]['req_total{model="a"}'] == 2.0
        assert snap["counters"]['req_total{model="b"}'] == 3.0
        with pytest.raises(ValueError):
            fam.labels(wrong="a")

    def test_thread_safety_under_concurrent_increments(self):
        reg = MetricsRegistry()
        c = reg.counter("hammer_total")
        h = reg.histogram("hammer_seconds")
        n_threads, per_thread = 8, 2000

        def hammer():
            for i in range(per_thread):
                c.inc()
                h.observe(1e-4 * (1 + i % 7))

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == n_threads * per_thread
        assert h.count == n_threads * per_thread
        snap = reg.local_snapshot()
        assert sum(snap["histograms"]["hammer_seconds"]["buckets"]) \
            == n_threads * per_thread

    def test_histogram_bucket_placement(self):
        h = Histogram("h")
        h.observe(0.0)            # below first bound -> bucket 0
        h.observe(1e9)            # above last bound -> +Inf bucket
        for bound in DEFAULT_BUCKETS:
            h.observe(bound)      # boundary values land at their own bound
        counts = h._sample()["buckets"]
        assert counts[0] == 2     # 0.0 plus the first bound itself
        assert counts[-1] == 1    # the 1e9 overflow
        assert sum(counts) == 2 + len(DEFAULT_BUCKETS)
        # every in-range observation v satisfies v <= its bucket bound
        assert h.percentile(50) in DEFAULT_BUCKETS

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("x_total").inc()
        reg.absorb("0", reg.local_snapshot())
        reg.reset()
        snap = reg.snapshot()
        assert snap["counters"] == {} and reg.remote_keys() == []


# -------------------------------------------------------------------- merge
class TestSnapshotMerge:
    def _registry_with(self, values):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds")
        for v in values:
            h.observe(v)
        reg.counter("n_total").inc(len(values))
        return reg

    def test_histogram_merge_is_exact(self):
        """Merged bucket counts equal a single registry observing both."""
        a_vals = [1e-5, 3e-4, 0.02, 0.5, 7.0]
        b_vals = [2e-6, 3e-4, 0.02, 90.0, 5e4]
        snap_a = self._registry_with(a_vals).local_snapshot()
        snap_b = self._registry_with(b_vals).local_snapshot()
        both = self._registry_with(a_vals + b_vals).local_snapshot()
        merged = merge_snapshots(snap_a, snap_b)
        assert merged["histograms"]["lat_seconds"]["buckets"] \
            == both["histograms"]["lat_seconds"]["buckets"]
        assert merged["histograms"]["lat_seconds"]["count"] == 10
        assert merged["counters"]["n_total"] == 10.0
        assert math.isclose(merged["histograms"]["lat_seconds"]["sum"],
                            sum(a_vals) + sum(b_vals))

    def test_merge_with_shard_label_keeps_samples_distinct(self):
        snap = self._registry_with([0.1]).local_snapshot()
        merged = merge_snapshots(snap, snap, extra_labels={"shard": "1"})
        assert merged["counters"]["n_total"] == 1.0
        assert merged["counters"]['n_total{shard="1"}'] == 1.0
        assert 'lat_seconds{shard="1"}' in merged["histograms"]

    def test_absorb_replace_semantics(self):
        """Repeated cumulative snapshots from one shard never double-count."""
        reg = MetricsRegistry()
        worker = MetricsRegistry()
        worker.counter("work_total").inc(5)
        reg.absorb("0", worker.local_snapshot())
        worker.counter("work_total").inc(5)   # cumulative: now 10
        reg.absorb("0", worker.local_snapshot())
        reg.absorb("0", worker.local_snapshot())
        assert reg.snapshot()["counters"]['work_total{shard="0"}'] == 10.0

    def test_json_round_trip(self):
        reg = self._registry_with([0.25])
        decoded = json.loads(reg.to_json())
        assert decoded["counters"]["n_total"] == 1.0


# ------------------------------------------------------------------ tracing
class TestTracing:
    def test_span_nesting(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("mid"):
                with tracer.span("inner"):
                    pass
            with tracer.span("sibling"):
                pass
        root = tracer.recent_roots()[-1]
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["mid", "sibling"]
        assert root.children[0].children[0].name == "inner"
        assert root.find("inner") is root.children[0].children[0]
        assert root.elapsed >= root.children[0].elapsed >= 0.0
        assert "inner" in root.format()

    def test_timing_log_phase_produces_nested_spans(self):
        from repro.utils.timing import TimingLog

        log = TimingLog()
        with log.phase("train_total"):
            with log.phase("factorization"):
                pass
        root = obs.trace.recent_roots()[-1]
        assert root.name == "train_total"
        assert root.children[0].name == "factorization"

    def test_timing_log_merge_does_not_double_report(self):
        from repro.utils.timing import TimingLog

        reg = obs.global_registry()
        fam = reg.counter("repro_phase_seconds_total", labelnames=("phase",))
        child = fam.labels(phase="merge_probe_phase")
        before = child.value
        other = TimingLog()
        other.add("merge_probe_phase", 1.0)   # recorded once here
        TimingLog().merge(other)              # must NOT record again
        assert math.isclose(child.value - before, 1.0)

    def test_thread_local_stacks(self):
        tracer = Tracer()
        seen = []

        def worker():
            with tracer.span("thread_root"):
                seen.append(tracer.current().name)

        with tracer.span("main_root"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
            assert tracer.current().name == "main_root"
        assert seen == ["thread_root"]
        names = {s.name for s in tracer.recent_roots()}
        assert names == {"thread_root", "main_root"}


# ----------------------------------------------------------------- requests
class TestRequestTrail:
    def test_ring_buffer_eviction(self):
        trail = RequestTrail(capacity=3)
        for i in range(5):
            trail.append(RequestRecord(request_id=i, status="completed"))
        assert len(trail) == 3
        assert [r.request_id for r in trail.recent()] == [2, 3, 4]
        assert [r.request_id for r in trail.recent(2)] == [3, 4]

    def test_record_as_dict(self):
        rec = RequestRecord(request_id=7, status="completed", t_enqueue=1.0,
                            t_batch=1.5, t_complete=2.0, batch_size=4)
        d = rec.as_dict()
        assert d["latency"] == 1.0 and d["queue_wait"] == 0.5
        json.dumps(d)  # JSON-serializable


# --------------------------------------------------------------- exporters
class TestPrometheus:
    def test_round_trip_through_parser(self):
        reg = MetricsRegistry()
        reg.counter("req_total", "Requests", labelnames=("model",)) \
            .labels(model="m-1").inc(3)
        reg.gauge("pool_size", "Pool").set(2)
        h = reg.histogram("lat_seconds", "Latency")
        h.observe(0.001)
        h.observe(0.2)
        text = reg.to_prometheus()
        assert "# TYPE req_total counter" in text
        assert "# HELP req_total Requests" in text
        samples = parse_prometheus(text)
        assert samples['req_total{model="m-1"}'] == 3.0
        assert samples["pool_size"] == 2.0
        assert samples["lat_seconds_count"] == 2.0
        # cumulative bucket counts: the +Inf bucket equals the total count
        assert samples['lat_seconds_bucket{le="+Inf"}'] == 2.0
        assert math.isclose(samples["lat_seconds_sum"], 0.201)

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus("this is not } a sample line {{{")
        with pytest.raises(ValueError):
            parse_prometheus("name_total not_a_number")

    def test_export_includes_absorbed_shards(self):
        reg = MetricsRegistry()
        worker = MetricsRegistry()
        worker.counter("work_total").inc(4)
        reg.absorb("1", worker.local_snapshot())
        samples = parse_prometheus(snapshot_to_prometheus(reg.snapshot()))
        assert samples['work_total{shard="1"}'] == 4.0

    def test_dump_metrics_formats(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("x_total").inc()
        prom = tmp_path / "metrics.prom"
        obs.dump_metrics(str(prom), registry=reg)
        assert parse_prometheus(prom.read_text())["x_total"] == 1.0
        js = tmp_path / "metrics.json"
        obs.dump_metrics(str(js), registry=reg)
        assert json.loads(js.read_text())["counters"]["x_total"] == 1.0

    def test_summarize_snapshot_percentiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds")
        for _ in range(99):
            h.observe(0.01)
        h.observe(50.0)
        summary = obs.summarize_snapshot(reg.local_snapshot())
        hist = summary["histograms"]["lat_seconds"]
        assert hist["count"] == 100
        assert hist["p50"] <= 0.011
        assert hist["p95"] <= 0.011 < hist["p50"] * 10  # tail not in p95


# ------------------------------------------------------------------ disable
class TestDisable:
    def test_null_registry_discards(self):
        reg = NullRegistry()
        c = reg.counter("x_total")
        c.inc()
        c.observe(1.0)
        c.labels(model="m").inc()
        assert c.value == 0.0

    def test_set_enabled_switches_global(self):
        real = obs.global_registry()
        try:
            obs.set_enabled(False)
            assert not obs.is_enabled()
            assert isinstance(obs.global_registry(), NullRegistry)
            obs.record_phase("disabled_probe", 1.0)  # discarded, no error
        finally:
            obs.set_enabled(True)
        assert obs.global_registry() is real
        snap = real.local_snapshot()
        assert ('repro_phase_seconds_total{phase="disabled_probe"}'
                not in snap["counters"])


# -------------------------------------------------------------- distributed
class TestDistributedTelemetry:
    def test_shards2_snapshot_merge(self):
        """A shards=2 fit lands per-shard phase timings in the registry.

        A worker's snapshot rides in its one ``fit`` reply and counts that
        reply, so a single fit shows every shard's transport counters."""
        from repro.config import HSSOptions
        from repro.datasets import load_dataset
        from repro.krr import KernelRidgeClassifier

        reg = obs.global_registry()
        reg.reset()
        data = load_dataset("susy", n_train=256, n_test=64, seed=0)
        KernelRidgeClassifier(
            h=data.h, lam=data.lam, shards=2, seed=0,
            solver_options={"hss_options": HSSOptions(
                rel_tol=1e-6, initial_samples=48)}).fit(data.X_train,
                                                        data.y_train)
        assert sorted(reg.remote_keys()) == ["0", "1"]
        snap = reg.snapshot()
        for shard in ("0", "1"):
            for phase in ("factorization", "hss_sampling"):
                key = (f'repro_phase_seconds_total{{phase="{phase}",'
                       f'shard="{shard}"}}')
                assert snap["counters"][key] >= 0.0
            # each worker's transport counters rode back with its snapshot,
            # the fit reply that carried it included
            assert snap["counters"][
                f'repro_transport_messages_total{{shard="{shard}"}}'] >= 1
            assert snap["counters"][
                f'repro_transport_bytes_total{{shard="{shard}"}}'] > 0
        # the parent's own transport counters are unlabeled: one fit
        # command and one stop per worker, carrying no array (the dataset
        # is published once, through a segment of its own)
        assert snap["counters"]["repro_transport_messages_total"] == 2 + 2
        assert snap["counters"]["repro_transport_bytes_total"] == 0
        # the whole cluster view exports and parses
        samples = parse_prometheus(reg.to_prometheus())
        assert any(k.startswith("repro_phase_seconds_total") for k in samples)

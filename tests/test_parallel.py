"""Tests for the parallel substrate: executor, machine model, cost model."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.clustering import cluster
from repro.config import HSSOptions
from repro.hss import build_hss_randomized
from repro.kernels import GaussianKernel, ShiftedKernelOperator
from repro.parallel import (CORI_HASWELL, BlockExecutor, DistributedCostModel,
                            MachineModel, default_worker_count,
                            estimate_hmatrix_work, estimate_hss_work,
                            estimate_sampling_work, resolve_workers,
                            simulate_strong_scaling)
from repro.parallel import executor as executor_module
from repro.hmatrix import build_hmatrix


@pytest.fixture(scope="module")
def built_hss():
    rng = np.random.default_rng(0)
    centers = rng.standard_normal((5, 4)) * 5
    X = centers[rng.integers(5, size=384)] + 0.4 * rng.standard_normal((384, 4))
    result = cluster(X, method="two_means", leaf_size=16, seed=0)
    op = ShiftedKernelOperator(result.X, GaussianKernel(h=1.0), 2.0)
    hss, stats = build_hss_randomized(op, result.tree, HSSOptions(rel_tol=0.1), rng=0)
    hmatrix = build_hmatrix(op, result.X, result.tree)
    return hss, stats, hmatrix


class TestMachineModel:
    def test_compute_time_scales_with_cores(self):
        m = MachineModel()
        assert m.compute_time(1e12, cores=1) == pytest.approx(
            2 * m.compute_time(1e12, cores=2))

    def test_message_time_components(self):
        m = MachineModel(network_latency=1e-6, network_inverse_bandwidth=1e-9)
        assert m.message_time(0) == pytest.approx(1e-6)
        assert m.message_time(1e6) == pytest.approx(1e-6 + 1e-3)
        assert m.message_time(1e6, intra_node=True) < m.message_time(1e6)

    def test_allreduce_grows_with_cores(self):
        m = CORI_HASWELL
        assert m.allreduce_time(1024, 256) > m.allreduce_time(1024, 2)
        assert m.allreduce_time(1024, 1) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineModel(flops_per_second_per_core=0)
        with pytest.raises(ValueError):
            MachineModel(cores_per_node=0)
        with pytest.raises(ValueError):
            CORI_HASWELL.compute_time(-1.0)
        with pytest.raises(ValueError):
            CORI_HASWELL.message_time(-1.0)

    def test_with_replaces(self):
        m = CORI_HASWELL.with_(cores_per_node=64)
        assert m.cores_per_node == 64
        assert CORI_HASWELL.cores_per_node == 32


class TestWorkModel:
    def test_estimates_positive_and_consistent(self, built_hss):
        hss, stats, hmatrix = built_hss
        work = estimate_hss_work(hss, n_random=stats.random_vectors)
        assert work.compression_flops > 0
        assert work.factorization_flops > 0
        assert work.solve_flops > 0
        assert work.dense_sampling_flops == pytest.approx(
            2.0 * hss.n * hss.n * stats.random_vectors)
        assert sum(work.factorization_flops_per_level.values()) == pytest.approx(
            work.factorization_flops)
        assert sum(work.nodes_per_level.values()) == hss.tree.n_nodes

    def test_sampling_work_hmatrix_cheaper(self, built_hss):
        hss, stats, hmatrix = built_hss
        flops = estimate_sampling_work(hss.n, stats.random_vectors, hmatrix)
        assert flops["hmatrix"] < flops["dense"]
        no_h = estimate_sampling_work(hss.n, stats.random_vectors, None)
        assert no_h["hmatrix"] == no_h["dense"]

    def test_hmatrix_work_positive(self, built_hss):
        *_, hmatrix = built_hss
        assert estimate_hmatrix_work(hmatrix) > 0


class TestCostModel:
    def test_phase_times_positive_and_decreasing_with_cores(self, built_hss):
        hss, stats, hmatrix = built_hss
        work = estimate_hss_work(hss, n_random=stats.random_vectors)
        model = DistributedCostModel(work, hmatrix_flops=estimate_hmatrix_work(hmatrix))
        t32 = model.phase_times(32)
        t512 = model.phase_times(512)
        for phase in ("sampling", "factorization", "solve"):
            assert t32.as_dict()[phase] > 0
            assert t512.as_dict()[phase] <= t32.as_dict()[phase]
        assert t32.hss_construction == pytest.approx(t32.sampling + t32.hss_other)
        assert t32.total > 0

    def test_sampling_dominates_construction(self, built_hss):
        # The paper's Table 4: sampling is the dominant part of the HSS
        # construction.
        hss, stats, hmatrix = built_hss
        work = estimate_hss_work(hss, n_random=stats.random_vectors)
        model = DistributedCostModel(work, n_sampling_sweeps=stats.rounds)
        times = model.phase_times(32)
        assert times.sampling > times.hss_other

    def test_invalid_cores(self, built_hss):
        hss, stats, _ = built_hss
        work = estimate_hss_work(hss)
        with pytest.raises(ValueError):
            DistributedCostModel(work).phase_times(0)

    def test_hmatrix_sampling_reduces_modelled_time(self, built_hss):
        hss, stats, hmatrix = built_hss
        work = estimate_hss_work(hss, n_random=stats.random_vectors)
        sampling = estimate_sampling_work(hss.n, stats.random_vectors, hmatrix)
        dense_model = DistributedCostModel(work)
        h_model = DistributedCostModel(work,
                                       hmatrix_sampling_flops=sampling["hmatrix"])
        assert h_model.phase_times(32).sampling < dense_model.phase_times(32).sampling


class TestStrongScaling:
    def test_speedup_monotone_then_saturating(self, built_hss):
        hss, stats, _ = built_hss
        work = estimate_hss_work(hss, n_random=stats.random_vectors)
        points = simulate_strong_scaling(work, core_counts=(32, 64, 128, 256, 512, 1024))
        times = [pt.factorization_time for pt in points]
        # times must be non-increasing with cores
        assert all(t1 >= t2 * 0.999 for t1, t2 in zip(times, times[1:]))
        # efficiency degrades at scale (communication / serial tree top)
        assert points[-1].parallel_efficiency < points[0].parallel_efficiency + 1e-9
        assert points[-1].parallel_efficiency < 1.0

    def test_invalid_core_counts(self, built_hss):
        hss, stats, _ = built_hss
        work = estimate_hss_work(hss)
        with pytest.raises(ValueError):
            simulate_strong_scaling(work, core_counts=[])


class TestBlockExecutor:
    def test_map_preserves_order(self):
        executor = BlockExecutor(workers=4, serial_threshold=0)
        results = executor.map(lambda x: x * x, list(range(50)))
        assert results == [x * x for x in range(50)]

    def test_serial_fallback(self):
        executor = BlockExecutor(workers=1)
        assert executor.map(lambda x: -x, [1, 2, 3]) == [-1, -2, -3]

    def test_exceptions_propagate(self):
        executor = BlockExecutor(workers=2, serial_threshold=0)

        def boom(x):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            executor.map(boom, [1, 2, 3, 4])

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            BlockExecutor(workers=0)

    def test_numpy_tasks(self):
        rng = np.random.default_rng(0)
        blocks = [rng.standard_normal((30, 30)) for _ in range(8)]
        executor = BlockExecutor(workers=4, serial_threshold=0)
        sums = executor.map(lambda b: float(np.trace(b @ b.T)), blocks)
        expected = [float(np.trace(b @ b.T)) for b in blocks]
        np.testing.assert_allclose(sums, expected)

    def test_pool_is_persistent_across_maps(self):
        with BlockExecutor(workers=2, serial_threshold=0) as executor:
            assert not executor.active
            executor.map(lambda x: x, [1, 2, 3])
            pool = executor._pool
            assert pool is not None
            executor.map(lambda x: x, [4, 5, 6])
            assert executor._pool is pool
        assert not executor.active

    def test_shutdown_is_idempotent_and_recoverable(self):
        executor = BlockExecutor(workers=2, serial_threshold=0)
        executor.map(lambda x: x, [1, 2, 3])
        executor.shutdown()
        executor.shutdown()
        assert not executor.active
        # A later map transparently re-creates the pool.
        assert executor.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]
        executor.shutdown()

    def test_failing_task_cancels_pending_work(self):
        executor = BlockExecutor(workers=2, serial_threshold=0)
        started = []
        lock = threading.Lock()

        def task(i):
            with lock:
                started.append(i)
            if i == 0:
                raise RuntimeError("poisoned")
            time.sleep(0.02)
            return i

        with pytest.raises(RuntimeError, match="poisoned"):
            executor.map(task, list(range(64)))
        # The poisoned first task must have cancelled (not run) the bulk of
        # the queue: with 2 workers only a handful of tasks can have
        # started before the failure was observed.
        assert len(started) < 64
        executor.shutdown()

    def test_exception_survives_mixed_successes(self):
        executor = BlockExecutor(workers=4, serial_threshold=0)

        def task(i):
            if i % 2 == 0:
                raise ValueError(f"task {i}")
            return i

        # Whichever failing task is observed first, its original exception
        # object (not a pool wrapper) must surface.
        with pytest.raises(ValueError, match=r"task \d+"):
            executor.map(task, list(range(16)))
        executor.shutdown()


class TestWorkerResolution:
    def test_default_worker_count_prefers_affinity(self, monkeypatch):
        monkeypatch.setattr(executor_module.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 64)
        assert default_worker_count() == 3

    def test_default_worker_count_falls_back_to_cpu_count(self, monkeypatch):
        def no_affinity(pid):
            raise AttributeError("not available on this platform")

        monkeypatch.setattr(executor_module.os, "sched_getaffinity",
                            no_affinity, raising=False)
        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 6)
        assert default_worker_count() == 6

    def test_resolve_workers_explicit(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(0) == default_worker_count()
        with pytest.raises(ValueError):
            resolve_workers(-4)
        with pytest.raises(ValueError):
            BlockExecutor(workers=-1)

    def test_resolve_workers_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(None) == 5

    @pytest.mark.parametrize("garbage", ["not-a-number", "0", "-2", "2.5"])
    def test_resolve_workers_env_garbage_raises(self, monkeypatch, garbage):
        """Invalid/zero/negative REPRO_WORKERS must fail loudly, naming
        the variable, instead of being silently ignored."""
        monkeypatch.setenv("REPRO_WORKERS", garbage)
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers(None)
        # Explicit arguments bypass the environment entirely.
        assert resolve_workers(3) == 3
        assert resolve_workers(0) == default_worker_count()

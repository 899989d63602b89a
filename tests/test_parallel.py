"""Tests for the parallel substrate: machine model, cost model, core count."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.clustering import cluster
from repro.config import HSSOptions
from repro.hss import build_hss_randomized
from repro.kernels import GaussianKernel, KernelOperator
from repro.distributed import resolve_shards
from repro.parallel import (CORI_HASWELL, DistributedCostModel, MachineModel,
                            estimate_hmatrix_work, estimate_hss_work,
                            estimate_sampling_work, simulate_strong_scaling)
from repro.runtime import host as host_module
from repro.runtime import visible_cores
from repro.hmatrix import HMatrix, build_hmatrix


@pytest.fixture(scope="module")
def built_hss():
    rng = np.random.default_rng(0)
    centers = rng.standard_normal((5, 4)) * 5
    X = centers[rng.integers(5, size=384)] + 0.4 * rng.standard_normal((384, 4))
    result = cluster(X, method="two_means", leaf_size=16, seed=0)
    op = KernelOperator(result.X, GaussianKernel(h=1.0))
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

    def test_hmatrix_work_charges_only_the_computed_leaves(self, built_hss):
        *_, hmatrix = built_hss
        computed, every = _leaf_sets(hmatrix)
        assert len(computed.blocks) < len(every.blocks)
        assert estimate_hmatrix_work(hmatrix) == estimate_hmatrix_work(computed)
        assert estimate_hmatrix_work(hmatrix) < estimate_hmatrix_work(every)

    def test_sampling_work_charges_every_leaf(self, built_hss):
        hss, stats, hmatrix = built_hss
        computed, every = _leaf_sets(hmatrix)
        k = stats.random_vectors
        flops = estimate_sampling_work(hss.n, k, hmatrix)["hmatrix"]
        assert flops == estimate_sampling_work(hss.n, k, every)["hmatrix"]
        assert flops > estimate_sampling_work(hss.n, k, computed)["hmatrix"]


def _leaf_sets(hmatrix):
    """The computed leaves alone, and every leaf as if each were computed."""
    computed = [b for b in hmatrix.blocks if b.mirror_of is None]
    every = [dataclasses.replace(b, mirror_of=None) for b in hmatrix.blocks]
    return (HMatrix(hmatrix.block_tree, computed),
            HMatrix(hmatrix.block_tree, every))


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


class TestVisibleCores:
    def test_prefers_affinity(self, monkeypatch):
        monkeypatch.setattr(host_module.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(host_module.os, "cpu_count", lambda: 64)
        assert visible_cores() == 3
        assert resolve_shards(0) == 3

    def test_falls_back_to_cpu_count(self, monkeypatch):
        def no_affinity(pid):
            raise AttributeError("not available on this platform")

        monkeypatch.setattr(host_module.os, "sched_getaffinity",
                            no_affinity, raising=False)
        monkeypatch.setattr(host_module.os, "cpu_count", lambda: 6)
        assert visible_cores() == 6
        assert resolve_shards(0) == 6

    def test_affinity_error_falls_back_to_cpu_count(self, monkeypatch):
        def failing_affinity(pid):
            raise OSError("affinity query refused")

        monkeypatch.setattr(host_module.os, "sched_getaffinity",
                            failing_affinity, raising=False)
        monkeypatch.setattr(host_module.os, "cpu_count", lambda: 5)
        assert visible_cores() == 5
        assert resolve_shards(0) == 5

    def test_unknown_cpu_count_means_one_core(self, monkeypatch):
        monkeypatch.delattr(host_module.os, "sched_getaffinity",
                            raising=False)
        monkeypatch.setattr(host_module.os, "cpu_count", lambda: None)
        assert visible_cores() == 1
        assert resolve_shards(0) == 1

    def test_explicit_zero_shards_ignores_the_environment(self, monkeypatch):
        monkeypatch.setattr(host_module.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.setenv("REPRO_SHARDS", "2")
        assert resolve_shards(0) == 4
        assert resolve_shards(None) == 2

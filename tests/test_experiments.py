"""Integration tests of the experiment harness (tiny problem sizes).

Each experiment module is run at a deliberately small size so the whole file
stays fast; what is checked is (a) the experiments run end to end, (b) they
produce the tables the benchmarks print, and (c) the headline qualitative
findings of the paper hold (clustering reduces memory, accuracy is
preserved, quasi-linear scaling, tuner competitive with grid search).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (run_ablation_kd_split, run_ablation_leafsize,
                               run_ablation_normalization, run_ablation_sampling,
                               run_ablation_solvers, run_ablation_tolerance,
                               run_fig1_singular_values, run_fig5_memory_vs_h,
                               run_fig6_tuning, run_fig7_asymptotic,
                               run_fig8_strong_scaling, run_table1_effective_rank,
                               run_table2_preprocessing, run_table3_large_scale,
                               run_table4_timing_breakdown)


class TestFig1AndTable1:
    def test_fig1_decay_faster_with_clustering(self):
        result = run_fig1_singular_values(n=256, h_values=(1.0,), seed=0)
        natural = result.decay_index("natural", 1.0)
        clustered = result.decay_index("two_means", 1.0)
        assert clustered <= natural
        assert "ordering" in result.table().render()

    def test_table1_shape(self):
        result = run_table1_effective_rank(n=256, h_values=(0.01, 1.0, 100.0), seed=0)
        assert result.ranks["natural"][0.01] <= 3
        assert result.improvement(1.0) >= 1.0
        rendered = result.table().render()
        assert "h=1.0" in rendered


class TestTable2:
    def test_two_datasets_small(self):
        result = run_table2_preprocessing(datasets=("gas", "pen"), n_train=384,
                                          n_test=96, two_means_repeats=1,
                                          orderings=("natural", "two_means"),
                                          seed=0)
        assert len(result.rows) == 2
        for row in result.rows:
            # clustering must not increase memory (Table 2's central finding)
            assert row.memory_mb["two_means"] <= row.memory_mb["natural"] * 1.1
            # accuracy independent of the ordering
            accs = list(row.accuracy.values())
            assert max(accs) - min(accs) < 0.08
        assert result.memory_improvement("gas") >= 1.0
        assert "mem two_means" in result.table().render()


class TestFig5:
    def test_memory_vs_h_structure(self):
        result = run_fig5_memory_vs_h(n=384, h_values=(0.6, 2.0, 8.0),
                                      orderings=("natural", "two_means"), seed=0)
        assert set(result.memory_mb) == {"natural", "two_means"}
        for ordering in result.memory_mb:
            assert all(v > 0 for v in result.memory_mb[ordering].values())
        # two-means <= natural for every h (paper's Figure 5)
        for h in (0.6, 2.0, 8.0):
            assert result.memory_mb["two_means"][h] <= \
                result.memory_mb["natural"][h] * 1.1
        assert "h=2.0" in result.table().render()


class TestFig6:
    def test_tuner_competitive_with_grid(self):
        result = run_fig6_tuning(n_train=160, n_val=64, grid_points_per_dim=5,
                                 tuner_budget=30, include_random_search=False,
                                 seed=0)
        assert result.grid.evaluations == 25
        assert result.bandit.evaluations == 30
        # The black-box tuner should be at least competitive with the grid.
        assert result.bandit.best_value >= result.grid.best_value - 0.05
        assert "strategy" in result.table().render()


class TestTable3:
    def test_large_scale_rows(self):
        result = run_table3_large_scale(datasets=("gas",) if False else ("susy",),
                                        n_train=512, n_test=128, seed=0)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.accuracy > 0.6
        assert row.compression_ratio > 1.0
        assert "compression" in result.table().render()


class TestFig7:
    def test_quasi_linear_growth(self):
        result = run_fig7_asymptotic(sizes=(256, 512, 1024), seed=0)
        assert len(result.points) == 3
        exponent = result.growth_exponent("hss_memory_mb")
        # quasi-linear: far below the dense exponent of 2
        assert exponent < 1.7
        times = [pt.factorization_time for pt in result.points]
        assert all(t > 0 for t in times)
        assert "hss_memory_mb" in result.table().render()

    def test_point_is_the_hss_solver_fit(self):
        """A point is measured on the path training runs: the λ-free,
        H-sampled compression of :class:`repro.krr.HSSSolver`."""
        from repro.clustering import cluster
        from repro.datasets import standardize, susy_like
        from repro.kernels import GaussianKernel
        from repro.krr import HSSSolver
        from repro.obs import global_registry

        evaluations = global_registry().counter(
            "repro_kernel_element_evaluations_total")
        n, h, lam = 512, 1.0, 4.0
        before = evaluations.value
        point = run_fig7_asymptotic(sizes=(n,), h=h, lam=lam, seed=0).points[0]
        fig7_evaluations = evaluations.value - before

        X, _ = susy_like(n, seed=0)
        clustering = cluster(standardize(X), method="two_means",
                             leaf_size=16, seed=0)
        solver = HSSSolver(seed=0)
        before = evaluations.value
        solver.fit(clustering.X, clustering.tree, GaussianKernel(h=h), lam)
        assert fig7_evaluations == evaluations.value - before > 0
        assert point.hss_memory_mb == solver.report.hss_memory_mb
        assert point.hmatrix_memory_mb == solver.report.hmatrix_memory_mb > 0
        assert point.max_rank == solver.report.max_rank


class TestTable4:
    def test_phase_breakdown(self):
        result = run_table4_timing_breakdown(datasets=("susy",), n_train=512,
                                             core_counts=(32, 512), seed=0)
        entry = result.entries[0]
        assert entry.measured_seconds["sampling"] >= 0
        assert entry.measured_seconds["factorization"] > 0
        t32 = entry.modelled[32]
        t512 = entry.modelled[512]
        # more cores -> not slower, for the scalable phases
        assert t512.factorization <= t32.factorization
        assert t512.sampling <= t32.sampling
        # sampling dominates hss construction (paper's Table 4)
        assert t32.sampling > t32.hss_other
        assert "phase" in result.table().render()


class TestFig8:
    def test_strong_scaling_curves(self):
        result = run_fig8_strong_scaling(datasets=("susy", "gas") if False
                                         else ("susy",),
                                         n_train=512,
                                         core_counts=(32, 128, 512), seed=0)
        curve = result.curves[0]
        times = curve.factorization_times()
        assert times[512] <= times[32]
        speedups = curve.speedup()
        assert speedups[512] >= speedups[128] * 0.99
        assert "32 cores" in result.table().render()


class TestAblations:
    def test_sampling_ablation(self):
        result = run_ablation_sampling(dataset="gas", n_train=384, seed=0)
        strategies = {row["strategy"] for row in result.rows}
        assert strategies == {"dense sampling", "hmatrix sampling"}
        table = result.table().render()
        assert "sampling_s" in table

    def test_leafsize_ablation(self):
        result = run_ablation_leafsize(dataset="gas", n_train=256,
                                       leaf_sizes=(16, 64), seed=0)
        assert len(result.rows) == 2
        assert all(row["memory_mb"] > 0 for row in result.rows)

    def test_tolerance_ablation_accuracy_saturates(self):
        result = run_ablation_tolerance(dataset="pen", n_train=256,
                                        tolerances=(0.5, 0.1, 1e-3), seed=0)
        accs = [row["accuracy_percent"] for row in result.rows]
        mems = [row["memory_mb"] for row in result.rows]
        # tighter tolerance -> larger memory
        assert mems[-1] >= mems[0]
        # accuracy at the paper's tolerance (0.1) close to the tightest one
        assert abs(accs[1] - accs[-1]) < 6.0

    def test_solver_ablation(self):
        result = run_ablation_solvers(dataset="letter", n_train=256,
                                      solvers=("dense", "hss"), seed=0)
        accs = {row["solver"]: row["accuracy_percent"] for row in result.rows}
        assert abs(accs["dense"] - accs["hss"]) < 5.0

    def test_kd_split_ablation(self):
        result = run_ablation_kd_split(dataset="covtype", n_train=256, seed=0)
        splits = {row["split"] for row in result.rows}
        assert splits == {"mean split", "median split"}
        for row in result.rows:
            assert row["max_leaf"] >= row["min_leaf"] >= 1

    def test_normalization_ablation(self):
        result = run_ablation_normalization(dataset="gas", n_train=384, seed=0)
        accs = {row["normalization"]: row["accuracy_percent"] for row in result.rows}
        assert set(accs) == {"zscore", "maxabs", "none"}
        assert accs["zscore"] >= 70.0

"""Tests for the configuration dataclasses."""

from __future__ import annotations

import pytest

from repro.config import ClusteringOptions, HMatrixOptions, HSSOptions


class TestHSSOptions:
    def test_defaults_match_paper(self):
        opts = HSSOptions()
        # Section 4.3's HSS leaf size of 16 is the cluster tree's
        assert ClusteringOptions().leaf_size == 16
        assert opts.rel_tol == pytest.approx(0.1)  # Section 5.2

    def test_with_replaces_fields(self):
        opts = HSSOptions().with_(rel_tol=1e-4, max_rank=32)
        assert opts.rel_tol == 1e-4
        assert opts.max_rank == 32
        # original untouched (frozen dataclass)
        assert HSSOptions().rel_tol == pytest.approx(0.1)

    @pytest.mark.parametrize("kwargs", [
        {"rel_tol": 0.0},
        {"rel_tol": -1.0},
        {"initial_samples": 0},
        {"sample_increment": 0},
        {"max_rank": 0},
        {"oversampling": -5},
        {"max_adaptive_rounds": -1},
    ])
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(ValueError):
            HSSOptions(**kwargs)

    def test_zero_oversampling_and_rounds_are_valid(self):
        opts = HSSOptions(oversampling=0, max_adaptive_rounds=0)
        assert (opts.oversampling, opts.max_adaptive_rounds) == (0, 0)

    @pytest.mark.parametrize("name", ["symmetric", "abs_tol"])
    def test_removed_fields_are_gone(self, name):
        # kernel matrices are symmetric, and the absolute floor never
        # changed a rank: neither is an option any more
        with pytest.raises(TypeError):
            HSSOptions(**{name: 0})
        assert not hasattr(HSSOptions(), name)


class TestHMatrixOptions:
    def test_defaults(self):
        opts = HMatrixOptions()
        assert opts.leaf_size >= 1
        assert opts.admissibility in ("centroid", "box")

    @pytest.mark.parametrize("kwargs", [
        {"leaf_size": 0},
        {"admissibility_eta": 0.0},
        {"admissibility": "bogus"},
        {"rel_tol": 0.0},
        {"max_rank": 0},
        {"max_rank": -3},
    ])
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(ValueError):
            HMatrixOptions(**kwargs)

    def test_max_rank_none_or_positive(self):
        assert HMatrixOptions().max_rank is None
        assert HMatrixOptions(max_rank=1).max_rank == 1


class TestClusteringOptions:
    def test_defaults(self):
        opts = ClusteringOptions()
        assert opts.method == "two_means"
        assert opts.leaf_size == 16

    @pytest.mark.parametrize("kwargs", [
        {"leaf_size": 0},
        {"max_iter": 0},
        {"balance_threshold": 0.5},
    ])
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(ValueError):
            ClusteringOptions(**kwargs)

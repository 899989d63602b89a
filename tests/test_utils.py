"""Tests for repro.utils (validation, RNG, timing, byte accounting)."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.utils import (Timer, TimingLog, as_generator, check_array_2d,
                         check_index_array, check_labels_binary,
                         check_non_negative, check_positive, check_square,
                         check_vector, format_bytes, megabytes,
                         nbytes_of_arrays, spawn_generators)
from repro.utils.bytes import dense_matrix_bytes
from repro.utils.validation import check_permutation, check_same_dimension


class TestValidation:
    def test_check_array_2d_accepts_lists(self):
        arr = check_array_2d([[1, 2], [3, 4]])
        assert arr.shape == (2, 2)
        assert arr.dtype == np.float64

    def test_check_array_2d_rejects_1d(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            check_array_2d([1.0, 2.0])

    def test_check_array_2d_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            check_array_2d([[1.0, np.nan]])

    def test_check_array_2d_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            check_array_2d(np.zeros((0, 3)))

    def test_check_vector_length(self):
        v = check_vector([1.0, 2.0, 3.0], length=3)
        assert v.shape == (3,)
        with pytest.raises(ValueError, match="length"):
            check_vector([1.0, 2.0], length=3)

    def test_check_square(self):
        check_square(np.eye(4))
        with pytest.raises(ValueError, match="square"):
            check_square(np.zeros((3, 4)))

    def test_check_index_array_bounds(self):
        check_index_array([0, 1, 2], 3)
        with pytest.raises(ValueError):
            check_index_array([0, 5], 3)

    @pytest.mark.parametrize("bad", [[1.5], [1.0], "12", [True], 2, [[0, 1]],
                                     np.array([0, 1], dtype=object)])
    def test_check_index_array_refuses_non_integers(self, bad):
        with pytest.raises(ValueError):
            check_index_array(bad, 20)

    def test_check_index_array_empty_and_integer_kinds(self):
        assert check_index_array([], 3).shape == (0,)
        out = check_index_array(np.array([2, 0], dtype=np.uint8), 3)
        assert out.dtype == np.intp and out.tolist() == [2, 0]

    def test_check_permutation(self):
        check_permutation([2, 0, 1], 3)
        with pytest.raises(ValueError, match="permutation"):
            check_permutation([0, 0, 2], 3)

    def test_check_labels_binary(self):
        check_labels_binary([1, -1, 1])
        with pytest.raises(ValueError, match="-1/\\+1"):
            check_labels_binary([0, 1, 1])

    def test_check_positive_and_non_negative(self):
        assert check_positive(1.5, "x") == 1.5
        with pytest.raises(ValueError):
            check_positive(0.0, "x")
        assert check_non_negative(0.0, "x") == 0.0
        with pytest.raises(ValueError):
            check_non_negative(-1.0, "x")

    def test_check_same_dimension(self):
        check_same_dimension(np.zeros((2, 3)), np.zeros((5, 3)))
        with pytest.raises(ValueError, match="same number of columns"):
            check_same_dimension(np.zeros((2, 3)), np.zeros((5, 4)))


class TestRandom:
    def test_as_generator_accepts_int_and_generator(self):
        g1 = as_generator(0)
        g2 = as_generator(0)
        assert g1.integers(1000) == g2.integers(1000)
        g3 = as_generator(g1)
        assert g3 is g1

    def test_spawn_generators_independent(self):
        gens = spawn_generators(7, 3)
        assert len(gens) == 3
        draws = [g.integers(10**9) for g in gens]
        assert len(set(draws)) == 3

    def test_spawn_generators_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)


class TestTiming:
    def test_timer_accumulates(self):
        t = Timer().start()
        time.sleep(0.01)
        elapsed = t.stop()
        assert elapsed > 0
        assert t.elapsed >= elapsed

    def test_timer_stop_without_start(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_timing_log_phase_and_merge(self):
        log = TimingLog()
        with log.phase("a"):
            time.sleep(0.005)
        log.add("b", 1.0)
        other = TimingLog()
        other.add("a", 2.0)
        log.merge(other)
        assert log.get("a") > 2.0
        assert log.get("b") == 1.0
        assert log.total() == pytest.approx(log.get("a") + 1.0)
        assert set(log.as_dict()) == {"a", "b"}


class TestBytes:
    def test_nbytes_of_arrays_ignores_none(self):
        arrays = [np.zeros(10), None, np.zeros((2, 2))]
        assert nbytes_of_arrays(arrays) == 10 * 8 + 4 * 8

    def test_megabytes(self):
        assert megabytes(2**20) == pytest.approx(1.0)

    def test_format_bytes_units(self):
        assert format_bytes(512).endswith("B")
        assert "KB" in format_bytes(2048)
        assert "MB" in format_bytes(5 * 2**20)

    def test_dense_matrix_bytes(self):
        assert dense_matrix_bytes(1000) == 1000 * 1000 * 8
        assert dense_matrix_bytes(10, 5, itemsize=4) == 200
        with pytest.raises(ValueError):
            dense_matrix_bytes(-1)

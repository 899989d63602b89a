"""Small shared utilities: validation, RNG handling, timing, byte formatting,
ragged index arithmetic."""

from .validation import (
    check_array_2d,
    check_vector,
    check_square,
    check_index_array,
    check_labels_binary,
    check_positive,
    check_non_negative,
)
from .random import as_generator, spawn_generators
from .timing import Timer, TimingLog
from .bytes import nbytes_of_arrays, format_bytes, megabytes
from .ragged import ragged_ranges, segment_offsets

__all__ = [
    "check_array_2d",
    "check_vector",
    "check_square",
    "check_index_array",
    "check_labels_binary",
    "check_positive",
    "check_non_negative",
    "as_generator",
    "spawn_generators",
    "Timer",
    "TimingLog",
    "nbytes_of_arrays",
    "format_bytes",
    "megabytes",
    "ragged_ranges",
    "segment_offsets",
]

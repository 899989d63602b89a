"""Ragged (concatenated) index arithmetic.

Several variable-length pieces laid end to end in one flat array, with an
offsets array marking where each piece starts — the layout behind the
batched segment extraction of the kernel operators and the wavefront ACA.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def segment_offsets(lengths: np.ndarray) -> np.ndarray:
    """Boundaries of ``lengths``-long pieces laid end to end.

    Piece ``b`` occupies ``offsets[b]:offsets[b + 1]``; ``offsets[-1]`` is
    the total length.
    """
    offsets = np.zeros(lengths.size + 1, dtype=np.intp)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def ragged_ranges(starts: np.ndarray, lengths: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenation of the index ranges ``starts[b] : starts[b] + lengths[b]``.

    Returns ``(index, offsets)`` with ``offsets = segment_offsets(lengths)``.
    """
    offsets = segment_offsets(lengths)
    index = np.arange(offsets[-1], dtype=np.intp)
    index += np.repeat(starts - offsets[:-1], lengths)
    return index, offsets

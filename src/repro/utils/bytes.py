"""Memory accounting helpers.

The paper's main performance metric alongside accuracy is the memory of the
compressed representation in MB: "the sum of the memory used by all the
individual smaller matrices in the HSS structure: D_i, U_i, V_i, B_ij, B_ji"
(Section 4.2) — of the ones a format stores; the symmetric HSS format
stores no ``V_i`` or ``B_ji`` (see :mod:`repro.hss.memory`).  These helpers
make that accounting uniform across the HSS and H-matrix formats.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

_MB = 1024.0 * 1024.0


def nbytes_of_arrays(arrays: Iterable[Optional[np.ndarray]]) -> int:
    """Total number of bytes of the given arrays, ignoring ``None`` entries."""
    total = 0
    for a in arrays:
        if a is not None:
            total += int(np.asarray(a).nbytes)
    return total


def megabytes(nbytes: float) -> float:
    """Convert a byte count into MiB (the unit used in the paper's tables)."""
    return float(nbytes) / _MB


def format_bytes(nbytes: float) -> str:
    """Human readable byte count (e.g. ``'1.25 MB'``)."""
    nbytes = float(nbytes)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(nbytes) < 1024.0 or unit == "TB":
            return f"{nbytes:.2f} {unit}"
        nbytes /= 1024.0
    return f"{nbytes:.2f} TB"  # pragma: no cover - unreachable


def dense_matrix_bytes(n: int, m: Optional[int] = None, itemsize: int = 8) -> int:
    """Bytes needed to store a dense ``n x m`` matrix (``m = n`` if omitted).

    Used for the paper's headline comparison: "storing a 1M dense matrix
    requires 8,000GB, whereas the HSS construction used in this work just
    required 1.3 GB" (Section 5.5).
    """
    if m is None:
        m = n
    if n < 0 or m < 0:
        raise ValueError("matrix dimensions must be non-negative")
    return int(n) * int(m) * int(itemsize)

"""H-matrix accelerated sampling for the HSS construction.

The randomized HSS construction spends almost all of its time in the
black-box product ``K @ R`` when the exact kernel operator is used
(Table 4: "Sampling" dominates "HSS construction").  The paper's remedy is
to first compress ``K`` into an H matrix — quasi-linear cost — and use its
fast matvec for the sampling, while element extraction (diagonal blocks,
``B`` couplings) still goes to the *exact* kernel so no accuracy is lost
where it matters.

:class:`HMatrixSampler` packages that hybrid: products are delegated to the
H matrix, elements to the exact operator.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..utils.timing import TimingLog
from .hmatrix import HMatrix


class HMatrixSampler:
    """Sampling operator combining an H matrix (products) and an exact operator
    (element extraction).

    Parameters
    ----------
    hmatrix:
        The compressed H approximation of the matrix (permuted ordering).
    exact_operator:
        The exact partially matrix-free operator (same ordering); only its
        ``block`` method is used.
    """

    def __init__(self, hmatrix: HMatrix, exact_operator):
        if hmatrix.n != (exact_operator.n if hasattr(exact_operator, "n")
                         else exact_operator.shape[0]):
            raise ValueError("H matrix and exact operator dimensions differ")
        self.hmatrix = hmatrix
        self.exact = exact_operator
        self.matvec_sweeps = 0

    # ------------------------------------------------------------------ shape
    @property
    def n(self) -> int:
        return self.hmatrix.n

    @property
    def shape(self) -> tuple:
        return self.hmatrix.shape

    @property
    def element_evaluations(self) -> int:
        """Element evaluations are counted by the exact operator."""
        return getattr(self.exact, "element_evaluations", 0)

    # ---------------------------------------------------------------- access
    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Exact element extraction (delegated to the exact operator)."""
        return self.exact.block(rows, cols)

    def row_segments(self, rows: np.ndarray, starts: np.ndarray,
                     lengths: np.ndarray) -> np.ndarray:
        """Exact batched row-segment extraction (delegated)."""
        return self.exact.row_segments(rows, starts, lengths)

    def col_segments(self, cols: np.ndarray, starts: np.ndarray,
                     lengths: np.ndarray) -> np.ndarray:
        """Exact batched column-segment extraction (delegated)."""
        return self.exact.col_segments(cols, starts, lengths)

    def diag(self) -> np.ndarray:
        return self.exact.diag()

    def matvec(self, v: np.ndarray) -> np.ndarray:
        self.matvec_sweeps += 1
        return self.hmatrix.matvec(v)

    def matmat(self, V: np.ndarray) -> np.ndarray:
        self.matvec_sweeps += 1
        return self.hmatrix.matmat(V)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HMatrixSampler(n={self.n}, hmatrix={self.hmatrix!r})"

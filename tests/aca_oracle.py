"""The one-block-at-a-time partially pivoted ACA, kept as the test oracle.

This is the loop ``repro.lowrank.aca`` ran per H-matrix block before the
wavefront replaced it (one Python iteration per cross step, O(rank) tiny
NumPy calls in each).  It stays here, unvectorised and easy to read, to pin
the wavefront's pivots, ranks and factors.  Besides the factors it records
the pivot sequence, which the library result does not carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np


@dataclass
class OracleResult:
    U: np.ndarray
    V: np.ndarray
    #: rows sampled, in order (a skipped row is sampled too)
    row_pivots: List[int] = field(default_factory=list)
    #: columns sampled, in order (one per accepted cross)
    col_pivots: List[int] = field(default_factory=list)
    #: stopping rule met, or no unused row left
    stopped: bool = False

    @property
    def rank(self) -> int:
        return self.U.shape[1]


def aca_loop(m: int, n: int, row_fn, col_fn, rel_tol: float = 1e-6,
             max_rank: Optional[int] = None,
             min_pivot: float = 1e-14) -> OracleResult:
    """Partially pivoted ACA of one ``m x n`` block, one step per iteration."""
    limit = min(m, n) if max_rank is None else min(int(max_rank), m, n)
    us, vs = [], []
    used_rows: set = set()
    used_cols: set = set()
    row_pivots: List[int] = []
    col_pivots: List[int] = []
    frob_sq = 0.0  # running estimate of ||A||_F^2 of the approximation
    stopped = False

    next_row = 0
    for _ in range(max(limit, 0)):
        # --- residual row at the pivot row
        if next_row in used_rows or next_row >= m:
            remaining = [i for i in range(m) if i not in used_rows]
            if not remaining:
                stopped = True
                break
            next_row = remaining[0]
        row = np.asarray(row_fn(next_row), dtype=np.float64).copy()
        row_pivots.append(next_row)
        for u, v in zip(us, vs):
            row -= u[next_row] * v
        used_rows.add(next_row)

        # --- column pivot: largest residual entry in that row
        if used_cols:
            masked = row.copy()
            masked[list(used_cols)] = 0.0
        else:
            masked = row
        j = int(np.argmax(np.abs(masked)))
        pivot = row[j]
        if abs(pivot) < min_pivot:
            # The row is (numerically) fully captured; try another row.
            remaining = [i for i in range(m) if i not in used_rows]
            if not remaining:
                stopped = True
                break
            next_row = remaining[0]
            continue

        col = np.asarray(col_fn(j), dtype=np.float64).copy()
        col_pivots.append(j)
        for u, v in zip(us, vs):
            col -= v[j] * u
        used_cols.add(j)

        u_new = col / pivot
        v_new = row
        us.append(u_new)
        vs.append(v_new)

        # --- stopping criterion (standard ACA norm update)
        unorm = float(np.linalg.norm(u_new))
        vnorm = float(np.linalg.norm(v_new))
        cross = 0.0
        for u, v in zip(us[:-1], vs[:-1]):
            cross += float((u @ u_new) * (v @ v_new))
        frob_sq += 2.0 * cross + (unorm * vnorm) ** 2
        frob = np.sqrt(max(frob_sq, 0.0))
        if unorm * vnorm <= rel_tol * max(frob, 1e-300):
            stopped = True
            break

        # --- next row pivot: largest residual entry of the new column
        masked_col = np.abs(u_new).copy()
        masked_col[list(used_rows)] = -1.0
        next_row = int(np.argmax(masked_col))

    U = np.column_stack(us) if us else np.zeros((m, 0))
    V = np.column_stack(vs) if vs else np.zeros((n, 0))
    return OracleResult(U, V, row_pivots, col_pivots, stopped)

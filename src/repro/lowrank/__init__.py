"""Low-rank approximation primitives.

These are the numerical kernels that both hierarchical formats are built
from:

* :func:`truncated_svd` — reference (optimal) low-rank factorization,
* :func:`rrqr` — rank-revealing (column-pivoted) QR with tolerance,
* :func:`row_id` / :func:`column_id` — interpolative decompositions, used by
  the HSS construction to pick representative rows/columns (skeletons),
* :func:`aca_blocks` / :func:`aca` / :func:`aca_full` — adaptive cross
  approximation, used to compress admissible H-matrix blocks from a few of
  their rows and columns (``aca_blocks``: many blocks in lock-step),
* :class:`LowRank` — a small ``U @ V.T`` container with memory accounting.
"""

from .lowrank_matrix import LowRank
from .truncated_svd import truncated_svd, singular_values, effective_rank
from .rrqr import rrqr, rank_from_tolerance
from .interpolative import row_id, column_id, InterpolativeDecomposition
from .aca import aca, aca_blocks, aca_full, ACAResult

__all__ = [
    "LowRank",
    "truncated_svd",
    "singular_values",
    "effective_rank",
    "rrqr",
    "rank_from_tolerance",
    "row_id",
    "column_id",
    "InterpolativeDecomposition",
    "aca",
    "aca_blocks",
    "aca_full",
    "ACAResult",
]

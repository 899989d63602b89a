"""Exhaustive grid search (the baseline of Figure 6a).

"A fine grid search is too costly, see Figure 6a" — the paper's grid uses
128 x 128 = 16,384 runs.  The grid resolution here is a parameter so the
benchmark can run a coarser grid while reporting the full-grid cost.

The evaluation order is chosen for the compress-once/refit-many split: all
configurations sharing the non-``lam`` parameters are visited
consecutively (``lam`` varies fastest), so within each group every move is
a λ-only move and a refit-aware objective (see
:class:`repro.tuning.KRRObjective`) pays one kernel build / compression
per group plus a cheap refit per λ.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .result import TuningResult, observed_move
from .search_space import ParameterSpace


def order_lam_fastest(configs: List[Dict[str, float]]) -> List[Dict[str, float]]:
    """Stable-reorder configurations so ``lam`` varies fastest.

    Configurations are grouped by their non-``lam`` parameters in first-
    appearance order (a stable bucketing, so inputs already grouped — like
    a row-major Cartesian grid with ``lam`` as the last axis — come back
    unchanged).  Consecutive evaluations within a group then differ only
    in ``lam``, which is what lets a refit-aware objective reuse its
    kernel compression.

    Parameters
    ----------
    configs:
        Configuration dictionaries; entries without a ``"lam"`` key are
        left in place relative to their group.

    Returns
    -------
    list of dict
        The same configurations, grouped for λ-only moves.
    """
    groups: Dict[tuple, List[Dict[str, float]]] = {}
    order: List[tuple] = []
    for config in configs:
        key = tuple(sorted((k, v) for k, v in config.items() if k != "lam"))
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(config)
    return [config for key in order for config in groups[key]]


class GridSearch:
    """Evaluate the objective on a full Cartesian grid.

    Parameters
    ----------
    space:
        The parameter space.
    points_per_dim:
        Number of grid points per parameter (the paper uses 128).
    max_evaluations:
        Optional cap on the number of evaluations (the grid is truncated
        after ordering); useful to bound benchmark time.
    lam_fastest:
        If ``True`` (default) the grid is visited with ``lam`` varying
        fastest (see :func:`order_lam_fastest`), so consecutive
        evaluations within a group are λ-only moves and ride the refit
        path of a refit-aware objective.
    """

    def __init__(self, space: ParameterSpace, points_per_dim: int = 16,
                 max_evaluations: Optional[int] = None,
                 lam_fastest: bool = True):
        if points_per_dim < 1:
            raise ValueError("points_per_dim must be >= 1")
        self.space = space
        self.points_per_dim = int(points_per_dim)
        self.max_evaluations = max_evaluations
        self.lam_fastest = bool(lam_fastest)

    @property
    def total_grid_size(self) -> int:
        """Number of configurations in the full grid."""
        return self.points_per_dim ** self.space.dim

    def optimize(self, objective: Callable[[Dict[str, float]], float]) -> TuningResult:
        """Run the search and return the :class:`TuningResult`.

        Parameters
        ----------
        objective:
            Callable mapping a configuration dictionary to a score.

        Returns
        -------
        TuningResult
            Full evaluation history (with per-evaluation move classes when
            the objective reports them) and the incumbent.
        """
        result = TuningResult()
        configs = self.space.grid(self.points_per_dim)
        if self.lam_fastest:
            configs = order_lam_fastest(configs)
        if self.max_evaluations is not None:
            configs = configs[: int(self.max_evaluations)]
        for config in configs:
            value = objective(config)
            result.record(config, value, move=observed_move(objective))
        return result

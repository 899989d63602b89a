"""Containers for tuning outcomes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class TuningResult:
    """Outcome of a hyper-parameter search.

    Parameters
    ----------
    best_config:
        The configuration with the highest objective value.
    best_value:
        The corresponding objective value (validation accuracy for the KRR
        objective).
    history:
        One ``(config, value)`` record per evaluation, in evaluation order;
        used to plot the accuracy-vs-evaluations curves of Figure 6.
    evaluations:
        Number of objective evaluations performed.
    """

    best_config: Dict[str, float] = field(default_factory=dict)
    best_value: float = float("-inf")
    history: List[Dict[str, float]] = field(default_factory=list)
    #: evaluation counts per move cost class (``cold``/``h_move``/
    #: ``lam_move``), populated when the objective reports moves
    moves: Dict[str, int] = field(default_factory=dict)

    @property
    def evaluations(self) -> int:
        """Number of objective evaluations recorded."""
        return len(self.history)

    def record(self, config: Dict[str, float], value: float,
               move: Optional[str] = None) -> None:
        """Add one evaluation and update the incumbent if it improved."""
        entry = dict(config)
        entry["objective"] = float(value)
        if move is not None:
            entry["move"] = str(move)
            self.moves[str(move)] = self.moves.get(str(move), 0) + 1
        self.history.append(entry)
        if value > self.best_value:
            self.best_value = float(value)
            self.best_config = dict(config)

    def best_so_far(self) -> List[float]:
        """Running maximum of the objective, per evaluation (Figure 6 curves)."""
        best = float("-inf")
        out = []
        for entry in self.history:
            best = max(best, entry["objective"])
            out.append(best)
        return out


def observed_move(objective) -> Optional[str]:
    """Cost class of the objective's last evaluation, when reported.

    Parameters
    ----------
    objective:
        The objective callable just evaluated.  Move-aware objectives
        (e.g. :class:`repro.tuning.KRRObjective`) expose a ``last_move``
        attribute with values ``"cold"``, ``"h_move"`` or ``"lam_move"``;
        plain callables do not.

    Returns
    -------
    str or None
        The move class, or ``None`` when the objective does not report one.
    """
    move = getattr(objective, "last_move", None)
    return None if move is None else str(move)

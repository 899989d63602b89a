"""Uniform random search over the parameter space."""

from __future__ import annotations

from typing import Callable, Dict

from ..utils.random import as_generator
from .result import TuningResult, observed_move
from .search_space import ParameterSpace


class RandomSearch:
    """Sample configurations uniformly (log-uniformly for log parameters).

    Random search is a surprisingly strong baseline for low-dimensional
    hyper-parameter spaces and is also one of the techniques inside the
    bandit tuner; having it standalone lets the benchmarks quantify how
    much the bandit's adaptive techniques add.

    Parameters
    ----------
    space:
        The parameter space.
    budget:
        Total number of objective evaluations.
    seed:
        Random seed.
    lam_sweep:
        λ values evaluated per sampled configuration.  With the default 1
        every evaluation draws a fresh configuration (pure random search,
        where — for a continuous space — no two draws ever share ``h``).
        With ``lam_sweep > 1`` the non-``lam`` parameters are sampled once
        per group and ``lam`` is resampled ``lam_sweep`` times inside it:
        the group's later evaluations are λ-only moves, so a refit-aware
        objective pays one compression per group instead of one per
        evaluation.  The marginal distribution of every parameter is
        unchanged.
    """

    def __init__(self, space: ParameterSpace, budget: int = 100, seed=None,
                 lam_sweep: int = 1):
        if budget < 1:
            raise ValueError("budget must be >= 1")
        if lam_sweep < 1:
            raise ValueError("lam_sweep must be >= 1")
        self.space = space
        self.budget = int(budget)
        self.seed = seed
        self.lam_sweep = int(lam_sweep)

    def optimize(self, objective: Callable[[Dict[str, float]], float]) -> TuningResult:
        """Run the search and return the :class:`TuningResult`.

        Parameters
        ----------
        objective:
            Callable mapping a configuration dictionary to a score.

        Returns
        -------
        TuningResult
            Full evaluation history and the incumbent.
        """
        rng = as_generator(self.seed)
        result = TuningResult()
        has_lam = "lam" in self.space.names
        lam_param = (next(p for p in self.space.parameters
                          if p.name == "lam") if has_lam else None)
        evaluated = 0
        while evaluated < self.budget:
            config = self.space.sample(rng)
            # λ-only follow-ups inside the group: same h, fresh lam draws.
            sweeps = (min(self.lam_sweep, self.budget - evaluated)
                      if has_lam else 1)
            for i in range(sweeps):
                if i > 0:
                    config = dict(config, lam=lam_param.sample(rng))
                result.record(config, objective(config),
                              move=observed_move(objective))
                evaluated += 1
        return result

"""OpenTuner-style black-box tuner: a bandit over search techniques.

OpenTuner's core design (Ansel et al., 2014 — reference [31] of the paper)
is a *meta* optimizer: several search techniques propose configurations and
a multi-armed bandit with an area-under-curve credit assignment decides
which technique gets to propose next.  This module implements that
architecture in miniature with five techniques that cover the same ground
as OpenTuner's default ensemble:

* pure random sampling (global exploration),
* Gaussian perturbation of the incumbent (local exploitation, log-scale),
* λ-only perturbation of the incumbent (holds every other parameter fixed
  so the evaluation is a λ-only move and rides the objective's cheap
  refit path — the paper's Section-5.3 diagonal-update observation),
* differential evolution (population-based recombination),
* Nelder–Mead style reflection steps on the best simplex.

The bandit uses a UCB1 rule on the recent success rate (an evaluation is a
"success" if it improves the incumbent), which is a faithful simplification
of OpenTuner's sliding-window AUC bandit.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Callable, Deque, Dict, List, Optional

import numpy as np

from ..utils.random import as_generator
from .result import TuningResult, observed_move
from .search_space import ParameterSpace

#: Relative evaluation costs by move class (λ-refit ≪ recompression ≪ cold
#: build), used by the cost-aware credit assignment.  The exact ratios only
#: shape arm preference, they are not timings.
MOVE_COSTS = {"lam_move": 1.0, "h_move": 4.0, "cold": 20.0}


class _Technique(abc.ABC):
    """A search technique proposing configurations."""

    name: str = "abstract"

    def __init__(self, space: ParameterSpace, rng: np.random.Generator):
        self.space = space
        self.rng = rng

    @abc.abstractmethod
    def propose(self, result: TuningResult) -> Dict[str, float]:
        """Propose the next configuration given the search history."""

    def _log_array(self, config: Dict[str, float]) -> np.ndarray:
        return np.log(np.maximum(self.space.to_array(config), 1e-12))

    def _from_log(self, values: np.ndarray) -> Dict[str, float]:
        return self.space.from_array(np.exp(values))


class _RandomTechnique(_Technique):
    name = "random"

    def propose(self, result: TuningResult) -> Dict[str, float]:
        return self.space.sample(self.rng)


class _PerturbTechnique(_Technique):
    """Gaussian perturbation of the incumbent in log space."""

    name = "perturb"

    def __init__(self, space: ParameterSpace, rng: np.random.Generator,
                 scale: float = 0.25):
        super().__init__(space, rng)
        self.scale = float(scale)

    def propose(self, result: TuningResult) -> Dict[str, float]:
        if not result.best_config:
            return self.space.sample(self.rng)
        center = self._log_array(result.best_config)
        step = self.rng.normal(scale=self.scale, size=center.shape)
        return self._from_log(center + step)


class _LambdaPerturbTechnique(_Technique):
    """Perturb only ``lam`` of the incumbent (a guaranteed λ-only move).

    Every proposal keeps the incumbent's other parameters bit-for-bit and
    perturbs the ridge parameter in log space, so when the previous
    evaluation visited the incumbent's ``h`` a refit-aware objective takes
    the cheap refit path — the tuner's way of exploiting the paper's
    Section-5.3 observation that λ changes do not require recompression.
    """

    name = "lam_perturb"

    def __init__(self, space: ParameterSpace, rng: np.random.Generator,
                 scale: float = 0.5):
        super().__init__(space, rng)
        self.scale = float(scale)

    def propose(self, result: TuningResult) -> Dict[str, float]:
        if not result.best_config or "lam" not in self.space.names:
            return self.space.sample(self.rng)
        config = dict(result.best_config)
        lam = max(float(config["lam"]), 1e-12)
        config["lam"] = float(np.exp(
            np.log(lam) + self.rng.normal(scale=self.scale)))
        return config


class _DifferentialEvolutionTechnique(_Technique):
    """DE/rand/1 recombination of three random history points (log space)."""

    name = "differential_evolution"

    def __init__(self, space: ParameterSpace, rng: np.random.Generator,
                 weight: float = 0.7):
        super().__init__(space, rng)
        self.weight = float(weight)

    def propose(self, result: TuningResult) -> Dict[str, float]:
        history = result.history
        if len(history) < 4:
            return self.space.sample(self.rng)
        picks = self.rng.choice(len(history), size=3, replace=False)
        a, b, c = (self._log_array(history[int(i)]) for i in picks)
        candidate = a + self.weight * (b - c)
        return self._from_log(candidate)


class _NelderMeadTechnique(_Technique):
    """Reflection of the worst of the best-(d+1) points through their centroid."""

    name = "nelder_mead"

    def propose(self, result: TuningResult) -> Dict[str, float]:
        history = result.history
        d = self.space.dim
        if len(history) < d + 1:
            return self.space.sample(self.rng)
        ranked = sorted(history, key=lambda e: e["objective"], reverse=True)
        simplex = ranked[: d + 1]
        points = np.array([self._log_array(e) for e in simplex])
        worst = points[-1]
        centroid = points[:-1].mean(axis=0)
        reflected = centroid + 1.0 * (centroid - worst)
        # A pinch of noise avoids proposing the exact same point repeatedly.
        reflected += self.rng.normal(scale=0.05, size=reflected.shape)
        return self._from_log(reflected)


class BanditTuner:
    """Multi-armed-bandit meta optimizer over several search techniques.

    Parameters
    ----------
    space:
        Parameter space to search.
    budget:
        Total number of objective evaluations (the paper's OpenTuner runs
        used ~100).
    seed:
        Random seed.
    window:
        Length of the sliding success window used by the credit assignment.
    exploration:
        UCB exploration constant.
    cost_aware:
        When ``True`` (default) and the objective reports move cost
        classes (see :class:`repro.tuning.KRRObjective`), each arm's
        exploitation term becomes *success per unit cost*: the sliding-
        window success rate is divided by the arm's mean observed move
        cost (:data:`MOVE_COSTS` — λ-refit ≪ recompression ≪ cold build).
        Arms whose proposals ride the cheap refit path (notably the
        λ-perturbation technique) then win ties against equally-successful
        expensive arms, steering the budget toward cheap moves.  With an
        objective that does not report moves this is a no-op and the
        trajectory is identical to ``cost_aware=False``.
    """

    def __init__(self, space: ParameterSpace, budget: int = 100, seed=None,
                 window: int = 30, exploration: float = 1.0,
                 cost_aware: bool = True):
        if budget < 1:
            raise ValueError("budget must be >= 1")
        if window < 1:
            raise ValueError("window must be >= 1")
        self.space = space
        self.budget = int(budget)
        self.seed = seed
        self.window = int(window)
        self.exploration = float(exploration)
        self.cost_aware = bool(cost_aware)
        self.technique_usage_: Dict[str, int] = {}

    def _make_techniques(self, rng: np.random.Generator) -> List[_Technique]:
        return [
            _RandomTechnique(self.space, rng),
            _PerturbTechnique(self.space, rng),
            _LambdaPerturbTechnique(self.space, rng),
            _DifferentialEvolutionTechnique(self.space, rng),
            _NelderMeadTechnique(self.space, rng),
        ]

    def optimize(self, objective: Callable[[Dict[str, float]], float]) -> TuningResult:
        """Run the tuner and return the :class:`TuningResult`."""
        rng = as_generator(self.seed)
        techniques = self._make_techniques(rng)
        n_tech = len(techniques)
        successes: List[Deque[int]] = [deque(maxlen=self.window) for _ in range(n_tech)]
        costs: List[Deque[float]] = [deque(maxlen=self.window) for _ in range(n_tech)]
        counts = np.zeros(n_tech, dtype=np.int64)
        result = TuningResult()
        self.technique_usage_ = {t.name: 0 for t in techniques}

        for step in range(self.budget):
            if step < n_tech:
                pick = step  # play every arm once
            else:
                scores = np.empty(n_tech)
                for i in range(n_tech):
                    wins = sum(successes[i]) if successes[i] else 0
                    plays = len(successes[i]) if successes[i] else 1
                    mean = wins / plays
                    if self.cost_aware and costs[i]:
                        # success per unit cost: cheap arms win ties
                        mean /= (sum(costs[i]) / len(costs[i]))
                    bonus = self.exploration * np.sqrt(
                        np.log(step + 1) / max(counts[i], 1))
                    scores[i] = mean + bonus
                pick = int(np.argmax(scores))

            technique = techniques[pick]
            config = self.space.clip(technique.propose(result))
            previous_best = result.best_value
            value = objective(config)
            move = observed_move(objective)
            result.record(config, value, move=move)
            improved = int(value > previous_best)
            successes[pick].append(improved)
            if move is not None:
                costs[pick].append(MOVE_COSTS.get(move, 1.0))
            counts[pick] += 1
            self.technique_usage_[technique.name] += 1

        return result

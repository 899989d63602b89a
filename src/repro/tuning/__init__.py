"""Hyper-parameter tuning for kernel ridge regression (Section 5.3).

The paper compares a fine grid search over ``(h, lambda)`` (128^2 runs,
Figure 6a) with black-box optimization using OpenTuner (100 runs,
Figure 6b) and finds that the black-box search reaches better accuracy at a
fraction of the cost.  This package provides both:

* :class:`GridSearch` — exhaustive search over a Cartesian grid,
* :class:`RandomSearch` — uniform random sampling of the space,
* :class:`BanditTuner` — an OpenTuner-style meta-optimizer: a multi-armed
  bandit (UCB-style credit assignment) over several search techniques
  (random sampling, Gaussian perturbation of the incumbent, differential
  evolution, Nelder–Mead simplex steps),
* :class:`KRRObjective` — the objective the paper optimizes: validation
  accuracy of a :class:`repro.krr.KernelRidgeClassifier` trained at a
  given ``(h, lambda)``, with the cheap-lambda-update optimization
  (changing ``lambda`` only updates the diagonal, no recompression —
  Section 5.3).

All three searchers are λ-move aware: the grid is walked with ``lam``
varying fastest, random search can sweep several λ values per sampled
configuration, and the bandit carries a λ-only perturbation technique —
so ``KRRObjective`` (either backend) pays one kernel build / compression
per distinct ``h`` and a cheap refit per λ.

The cost model is three-tiered (``lam_move`` ≪ ``h_move`` ≪ ``cold``;
see :data:`MOVE_COSTS` and ``docs/tuning.md``) and is the classifier's
own: a λ-move is :meth:`~repro.krr.KernelRidgeClassifier.refit`, which
refactors from the resident factors
(:meth:`repro.hss.ULVFactorization.refactor`); an ``h``-move is
:meth:`~repro.krr.KernelRidgeClassifier.refit_kernel`, a fit on the
retained clustering with the block cluster tree reused; a cold move is a
``fit``.  ``KRRObjective(cv=K)`` swaps the held-out score for K-fold
cross-validation computed as fold-removal solves on the classifier's
factorization.  Every evaluation's move class is recorded
(``EvaluationRecord.move``, ``TuningResult.moves``).
"""

from .search_space import ParameterSpace, ContinuousParameter, LogUniformParameter
from .grid_search import GridSearch, order_lam_fastest
from .random_search import RandomSearch
from .bandit import BanditTuner, MOVE_COSTS
from .objective import KRRObjective, EvaluationRecord
from .result import TuningResult, observed_move

__all__ = [
    "ParameterSpace",
    "ContinuousParameter",
    "LogUniformParameter",
    "GridSearch",
    "order_lam_fastest",
    "RandomSearch",
    "BanditTuner",
    "MOVE_COSTS",
    "KRRObjective",
    "EvaluationRecord",
    "TuningResult",
    "observed_move",
]

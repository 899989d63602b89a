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
  accuracy of the KRR classifier for a given ``(h, lambda)``, with the
  cheap-lambda-update optimization (changing ``lambda`` only updates the
  diagonal, no recompression — Section 5.3).

All three searchers are λ-move aware: the grid is walked with ``lam``
varying fastest, random search can sweep several λ values per sampled
configuration, and the bandit carries a λ-only perturbation technique —
so a refit-capable objective (``KRRObjective``, either backend) pays one
kernel build / compression per distinct ``h`` and a cheap refit per λ.

The cost model is three-tiered (``lam_move`` ≪ ``h_move`` ≪ ``cold``;
see :data:`MOVE_COSTS` and ``docs/tuning.md``): an ``h``-move re-fits a
resident solver on its retained tree, block cluster tree reused
(:meth:`repro.krr.solvers.KernelSystemSolver.refit_kernel`), instead of
rebuilding from scratch, every λ-move refactors from the resident
factors and so shares the λ-free half of the ULV sweep
(:meth:`repro.hss.ULVFactorization.refactor`), and ``KRRObjective(cv=K)``
swaps the held-out score for K-fold cross-validation computed as
fold-removal multi-RHS solves on the shared factorization.  Every
evaluation's move class is recorded (``EvaluationRecord.move``,
``TuningResult.moves``).
"""

from .search_space import ParameterSpace, ContinuousParameter, LogUniformParameter
from .grid_search import GridSearch, order_lam_fastest
from .random_search import RandomSearch
from .bandit import BanditTuner, MOVE_COSTS
from .objective import KRRObjective, EvaluationRecord
from .result import TuningResult, observed_move, observed_refit

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
    "observed_refit",
]

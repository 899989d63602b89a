"""Parallel execution substrate and distributed-memory performance model.

The paper's large-scale results (Table 4, Figure 8) come from a distributed
memory MPI code running on up to 1,024 cores of NERSC's Cori machine.  This
environment has neither MPI nor 1,024 cores, so the package provides two
an analytic stand-in (see DESIGN.md for the substitution rationale); the
measured parallel axis is the process-sharded path of
:mod:`repro.distributed`:

* :class:`MachineModel` / :class:`DistributedCostModel` /
  :func:`simulate_strong_scaling` — an analytic alpha–beta performance
  model of the distributed HSS/H algorithms, driven by the *measured*
  per-node operation counts of our own implementation, which reproduces
  the strong-scaling behaviour of the paper's Figure 8 and the per-phase
  timing breakdown of Table 4.
"""

from .machine import MachineModel, CORI_HASWELL
from .work_model import (
    HSSWorkEstimate,
    estimate_hss_work,
    estimate_hmatrix_work,
    estimate_sampling_work,
)
from .cost_model import DistributedCostModel, PhaseTimes
from .strong_scaling import simulate_strong_scaling, StrongScalingPoint

__all__ = [
    "MachineModel",
    "CORI_HASWELL",
    "HSSWorkEstimate",
    "estimate_hss_work",
    "estimate_hmatrix_work",
    "estimate_sampling_work",
    "DistributedCostModel",
    "PhaseTimes",
    "simulate_strong_scaling",
    "StrongScalingPoint",
]

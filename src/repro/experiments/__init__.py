"""Experiment harness: one module per table / figure of the paper.

Every module exposes a ``run_*`` function that generates the workload,
performs the sweep, and returns both structured results and a rendered
plain-text table mirroring the corresponding table/figure of the paper.
The ``benchmarks/`` directory wraps these functions with pytest-benchmark;
the ``examples/`` scripts call them directly.

Problem sizes default to values that run in seconds-to-minutes in pure
Python; every function takes explicit size parameters so the sweeps can be
scaled up towards the paper's sizes on bigger machines.
"""

from .fig1_singular_values import run_fig1_singular_values
from .table1_effective_rank import run_table1_effective_rank
from .table2_preprocessing import run_table2_preprocessing
from .fig5_memory_vs_h import run_fig5_memory_vs_h
from .fig6_tuning import run_fig6_tuning
from .table3_large_scale import run_table3_large_scale
from .fig7_asymptotic import run_fig7_asymptotic
from .table4_timing_breakdown import run_table4_timing_breakdown
from .fig8_strong_scaling import run_fig8_strong_scaling
from .ablations import (
    run_ablation_sampling,
    run_ablation_leafsize,
    run_ablation_tolerance,
    run_ablation_solvers,
    run_ablation_kd_split,
    run_ablation_normalization,
)

__all__ = [
    "run_fig1_singular_values",
    "run_table1_effective_rank",
    "run_table2_preprocessing",
    "run_fig5_memory_vs_h",
    "run_fig6_tuning",
    "run_table3_large_scale",
    "run_fig7_asymptotic",
    "run_table4_timing_breakdown",
    "run_fig8_strong_scaling",
    "run_ablation_sampling",
    "run_ablation_leafsize",
    "run_ablation_tolerance",
    "run_ablation_solvers",
    "run_ablation_kd_split",
    "run_ablation_normalization",
]

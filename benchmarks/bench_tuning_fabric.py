"""2-D (h, λ) grid tuning: the move-cost fabric vs per-point cold fits.

The tuning fabric prices the three move classes of a hyper-parameter
search very differently (``lam_move ≪ h_move ≪ cold``, see
``docs/tuning.md``): a λ-move refits the resident compression (one ULV,
batch-prefactored per λ column via ``factor_many``), an h-move re-fits
the resident solver on its retained tree, block cluster tree reused
(``refit_kernel``), and only the very first evaluation pays a cold
build.  This benchmark runs the *same* H x L grid twice through the
real HSS training stack:

* **fabric** — :class:`repro.tuning.KRRObjective` with the per-``h``
  cache on: 1 cold build + (H-1) h-moves + H·(L-1) λ-moves;
* **cold** — the identical objective with ``cache_kernels=False``:
  every grid point is a full build.

and asserts the contract of both: the two runs are **bitwise
identical** in every objective value and pick the same best (h, λ),
while the fabric performs ``H ≪ H·L`` kernel constructions and beats
the cold sweep's wall-clock (≥ 3x at the default scale).  Per-move
wall-clock buckets land in ``BENCH_tuning_fabric.json``.

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_tuning_fabric.py -q
"""

from __future__ import annotations

import os

# Pin BLAS to one thread so timings compare single axes of parallelism
# (must happen before NumPy loads its BLAS).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import time

import pytest
from _harness import write_bench_json
from conftest import bench_scale, scaled

from repro.config import HMatrixOptions, HSSOptions
from repro.datasets import standardize, susy_like
from repro.tuning import GridSearch, KRRObjective, ParameterSpace

LEAF_SIZE = 32
POINTS_PER_DIM = 5  # 5 x 5 = 25 grid points, 5 distinct h columns


@pytest.fixture(scope="module")
def tuning_problem():
    n_train = scaled(640)
    n_val = scaled(224)
    X, y = susy_like(n_train + n_val, seed=0)
    X = standardize(X)
    return (X[:n_train], y[:n_train], X[n_train:], y[n_train:])


class _TimedObjective:
    """Wrap an objective, bucketing per-evaluation wall-clock by move class.

    Attribute access falls through to the wrapped objective, so the
    searchers still see ``prepare_lam_schedule`` / ``last_move`` /
    ``last_was_refit`` and behave exactly as if unwrapped.
    """

    def __init__(self, objective):
        self._objective = objective
        self.move_seconds = {}
        self.total_seconds = 0.0

    def __call__(self, config):
        t0 = time.perf_counter()
        value = self._objective(config)
        elapsed = time.perf_counter() - t0
        self.total_seconds += elapsed
        move = self._objective.last_move or "cold"
        self.move_seconds[move] = self.move_seconds.get(move, 0.0) + elapsed
        return value

    def __getattr__(self, name):
        return getattr(self._objective, name)


def _make_objective(problem, **overrides):
    X_tr, y_tr, X_val, y_val = problem
    kwargs = dict(
        solver="hss", leaf_size=LEAF_SIZE, seed=0,
        hss_options=HSSOptions(leaf_size=LEAF_SIZE, rel_tol=1e-4,
                               initial_samples=48),
        hmatrix_options=HMatrixOptions(leaf_size=LEAF_SIZE, rel_tol=1e-4))
    kwargs.update(overrides)
    return KRRObjective(X_tr, y_tr, X_val, y_val, **kwargs)


def test_tuning_fabric_grid_speedup(benchmark, tuning_problem):
    space = ParameterSpace.krr_default(h_bounds=(0.5, 2.5),
                                       lam_bounds=(0.25, 8.0))
    grid_points = POINTS_PER_DIM ** 2

    # --- fabric: per-h cache + h-moves on the retained tree + prefactor
    fabric = _TimedObjective(_make_objective(tuning_problem))
    t0 = time.perf_counter()
    fabric_result = GridSearch(space, points_per_dim=POINTS_PER_DIM) \
        .optimize(fabric)
    fabric_s = time.perf_counter() - t0
    fabric_moves = dict(fabric.move_counts)
    fabric_builds = fabric.kernel_constructions

    # --- cold baseline: the identical grid, every point a full build
    cold = _TimedObjective(_make_objective(tuning_problem,
                                           cache_kernels=False))
    t1 = time.perf_counter()
    cold_result = GridSearch(space, points_per_dim=POINTS_PER_DIM) \
        .optimize(cold)
    cold_s = time.perf_counter() - t1

    # The fabric changes the *cost* of the sweep, never its answers:
    # every objective value is bitwise equal to the cold run's and the
    # selected best (h, λ) is identical.
    assert fabric_result.evaluations == cold_result.evaluations == grid_points
    for fab, ref in zip(fabric_result.history, cold_result.history):
        assert (fab["h"], fab["lam"]) == (ref["h"], ref["lam"])
        assert fab["objective"] == ref["objective"], \
            f"fabric diverges at (h={fab['h']}, lam={fab['lam']})"
    assert fabric_result.best_config == cold_result.best_config
    assert fabric_result.best_value == cold_result.best_value

    # Move accounting: one cold build, (H-1) retained-tree h-moves,
    # H·(L-1) λ-refits — kernel constructions ≪ grid points.
    assert fabric_moves == {"cold": 1,
                            "h_move": POINTS_PER_DIM - 1,
                            "lam_move": grid_points - POINTS_PER_DIM}
    assert cold.move_counts == {"cold": grid_points}
    assert fabric_builds == POINTS_PER_DIM
    assert fabric_builds * 4 <= grid_points, \
        "fabric must build kernels for far fewer points than it evaluates"

    speedup = cold_s / fabric_s
    n_train = tuning_problem[0].shape[0]

    def _mean(bucket, count):
        return round(bucket / count, 4) if count else 0.0

    path = write_bench_json(
        "tuning_fabric",
        results={
            "grid_points": grid_points,
            "fabric_total_s": round(fabric_s, 4),
            "cold_total_s": round(cold_s, 4),
            "grid_speedup": round(speedup, 3),
            "fabric_kernel_constructions": int(fabric_builds),
            "cold_kernel_constructions": int(cold.kernel_constructions),
            "fabric_moves": fabric_moves,
            "fabric_move_seconds": {k: round(v, 4)
                                    for k, v in fabric.move_seconds.items()},
            "mean_cold_s": _mean(cold.total_seconds, grid_points),
            "mean_h_move_s": _mean(fabric.move_seconds.get("h_move", 0.0),
                                   fabric_moves.get("h_move", 0)),
            "mean_lam_move_s": _mean(fabric.move_seconds.get("lam_move", 0.0),
                                     fabric_moves.get("lam_move", 0)),
            "best_h": float(fabric_result.best_config["h"]),
            "best_lam": float(fabric_result.best_config["lam"]),
            "best_accuracy": float(fabric_result.best_value),
        },
        sizes={"n_train": int(n_train),
               "n_val": int(tuning_problem[2].shape[0]),
               "dim": int(tuning_problem[0].shape[1]),
               "leaf_size": LEAF_SIZE,
               "points_per_dim": POINTS_PER_DIM})
    benchmark.extra_info["grid_speedup"] = round(speedup, 3)
    benchmark.extra_info["fabric_kernel_constructions"] = int(fabric_builds)
    print(f"\n{grid_points}-point grid: fabric={fabric_s:.3f}s "
          f"cold={cold_s:.3f}s ({speedup:.2f}x), "
          f"{fabric_builds} kernel constructions, moves={fabric_moves} "
          f"-> {path}")

    # Record one timed λ-move for the pytest-benchmark JSON: re-evaluating
    # the last grid point hits the resident compression.
    last = fabric.records[-1]
    benchmark.pedantic(lambda: fabric({"h": last.h, "lam": last.lam}),
                       rounds=1, iterations=1)
    assert fabric.last_move == "lam_move"

    fabric.close()
    cold.close()

    # Skipping (H·L - H) compressions is robust at every scale, so the
    # fabric must always win outright; the ≥ 3x acceptance bar is
    # calibrated at the default problem size (and holds with margin
    # there), so only enforce it when not scaled down.
    assert fabric_s < cold_s, (
        f"expected the tuning fabric to beat per-point cold fits: "
        f"fabric {fabric_s:.3f}s vs cold {cold_s:.3f}s")
    if bench_scale() >= 1.0:
        assert speedup >= 3.0, (
            f"expected >= 3x over per-point cold fits at full scale, "
            f"got {speedup:.2f}x")

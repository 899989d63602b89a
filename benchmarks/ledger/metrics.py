"""Catalogue of every metric the ledger emits: name, unit, direction, bound.

The single source the runner, ``BENCHMARK.json``, the smoke test and the
README table are checked against.  Per-layer names are ``<module>.<what>``
with the module named after the ``repro`` package it measures.
"""

from __future__ import annotations

WORKLOADS = ("lowdim", "highdim", "unclustered")

#: metrics that depend only on the fixed dataset of the workload, so they are
#: the same on every run and every seed
DETERMINISTIC = ("accuracy", "accuracy_vs_dense", "model_memory_mb",
                 "train_kernel_evals", "train_py_calls")

#: (name, unit, better, bound) — bound is the share of the parent's median
#: by which the metric may get worse.  What repeats exactly carries 0.01 and
#: ``peak_rss_mb`` 0.05, as the issue asked.  Wall-clock metrics carry 0.25,
#: not the issue's 0.10: the driver refuses a benchmark whose ten-seed
#: quartile spread exceeds the bound, and on this host that spread is
#: 3-8 % in a quiet hour and 9-17 % in a busy one.  The issue's
#: ``http_p50_ms`` and ``http_batch_rows_per_s`` are per-layer metrics here
#: (``server.*``): they spread by up to 25 % (README.md, "Noise rules").
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("train_s", "s", "lower", 0.25),
    ("refit_s", "s", "lower", 0.25),
    ("h_move_s", "s", "lower", 0.25),
    ("update_s", "s", "lower", 0.25),
    ("load_s", "s", "lower", 0.25),
    ("predict_rows_per_s", "1/s", "higher", 0.25),
    ("accuracy", "ratio", "higher", 0.01),
    ("accuracy_vs_dense", "ratio", "higher", 0.01),
    ("model_memory_mb", "MB", "lower", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("train_kernel_evals", "count", "lower", 0.01),
    ("train_py_calls", "count", "lower", 0.01),
)

#: (name, unit, better) — measured by the traced run, never gated
PER_LAYER = (
    ("clustering.tree_s", "s", "lower"),
    ("clustering.leaves", "count", "lower"),
    ("clustering.depth", "count", "lower"),
    ("clustering.py_calls", "count", "lower"),
    ("kernels.block_1k_s", "s", "lower"),
    ("kernels.evals_compress", "count", "lower"),
    ("kernels.evals_per_query", "count", "lower"),
    ("lowrank.aca_block_s", "s", "lower"),
    ("lowrank.aca_rank", "count", "lower"),
    ("hmatrix.build_s", "s", "lower"),
    ("hmatrix.matmat64_s", "s", "lower"),
    ("hmatrix.memory_mb", "MB", "lower"),
    ("hmatrix.lowrank_blocks", "count", "higher"),
    ("hmatrix.dense_blocks", "count", "lower"),
    ("hmatrix.py_calls", "count", "lower"),
    ("hss.build_s", "s", "lower"),
    ("hss.matvec_s", "s", "lower"),
    ("hss.max_rank", "count", "lower"),
    ("hss.memory_mb", "MB", "lower"),
    ("hss.py_calls", "count", "lower"),
    ("ulv.factor_s", "s", "lower"),
    ("ulv.solve_s", "s", "lower"),
    ("ulv.factor_many4_s", "s", "lower"),
    ("ulv.memory_mb", "MB", "lower"),
    ("ulv.py_calls", "count", "lower"),
    ("stream.add32_s", "s", "lower"),
    ("stream.remove32_s", "s", "lower"),
    ("stream.correction_rank", "count", "lower"),
    ("krr.predict_1k_s", "s", "lower"),
    ("krr.stage_sum_s", "s", "lower"),
    ("tuning.grid3x3_s", "s", "lower"),
    ("tuning.cold_evals", "count", "lower"),
    ("tuning.h_moves", "count", "lower"),
    ("tuning.lam_moves", "count", "higher"),
    ("parallel.train_w2_s", "s", "lower"),
    ("parallel.speedup_w2", "ratio", "higher"),
    ("parallel.train_blas2_s", "s", "lower"),
    ("distributed.train_p2_s", "s", "lower"),
    ("distributed.spawn_s", "s", "lower"),
    ("distributed.comm_bytes", "count", "lower"),
    ("distributed.comm_messages", "count", "lower"),
    ("serialize.save_s", "s", "lower"),
    ("serialize.load_s", "s", "lower"),
    ("serialize.artifact_mb", "MB", "lower"),
    ("engine.single_row_us", "us", "lower"),
    ("engine.batch1k_s", "s", "lower"),
    ("engine.cache_hit_rate", "ratio", "higher"),
    ("service.submit_p50_ms", "ms", "lower"),
    ("service.mean_batch", "count", "higher"),
    ("http.parse_us", "us", "lower"),
    ("http.render_us", "us", "lower"),
    ("server.json_decode_us", "us", "lower"),
    ("server.http_p50_ms", "ms", "lower"),
    ("server.http_p99_ms", "ms", "lower"),
    ("server.http_batch_rows_per_s", "1/s", "higher"),
    ("server.overhead_ms", "ms", "lower"),
    ("server.rps_c2", "1/s", "higher"),
    ("server.rejected_share", "ratio", "lower"),
    ("obs.overhead_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

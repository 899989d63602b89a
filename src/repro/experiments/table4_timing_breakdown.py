"""Table 4: timing breakdown of the algorithmic phases at 32 and 512 cores.

The paper's Table 4 lists, for SUSY (4.5M) and COVTYPE (0.5M) at 32 and
512 cores: H construction, HSS construction (split into sampling and
"other"), factorization and solve times.  The expected shape:

* sampling dominates the HSS construction,
* the H construction is much cheaper than the (H-accelerated) sampling,
* factorization and solve are orders of magnitude cheaper than
  construction,
* everything except the prototype H construction speeds up substantially
  from 32 to 512 cores.

We measure the serial phases of our own implementation at a reduced N and
feed the measured structure (per-node ranks, block sizes, flop counts) into
the distributed cost model to produce the 32- and 512-core columns.  The
cost model reads the H matrix itself, so the stages are called one by one —
the calls :func:`repro.hss.compress_kernel` makes, on the λ-free kernel —
and the ridge shift is applied by the ULV factorization, as in training.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..config import HMatrixOptions, HSSOptions
from ..clustering.api import cluster
from ..datasets import load_dataset
from ..diagnostics.report import Table
from ..hmatrix.build import build_hmatrix
from ..hmatrix.sampler import HMatrixSampler
from ..hss.build_random import build_hss_randomized
from ..hss.ulv import ULVFactorization
from ..kernels.gaussian import GaussianKernel
from ..kernels.operator import KernelOperator
from ..parallel.cost_model import DistributedCostModel, PhaseTimes
from ..parallel.work_model import (estimate_hmatrix_work, estimate_hss_work,
                                   estimate_sampling_work)
from ..utils.timing import TimingLog


@dataclass
class Table4Entry:
    """Measured serial times and modelled distributed times for one dataset."""

    dataset: str
    n: int
    measured_seconds: Dict[str, float] = field(default_factory=dict)
    modelled: Dict[int, PhaseTimes] = field(default_factory=dict)


@dataclass
class Table4Result:
    entries: List[Table4Entry] = field(default_factory=list)
    core_counts: Sequence[int] = (32, 512)

    def table(self) -> Table:
        table = Table(title="Table 4 — phase timing breakdown "
                            "(measured serial + modelled distributed)")
        for entry in self.entries:
            for phase in ("h_construction", "hss_construction", "sampling",
                          "hss_other", "factorization", "solve"):
                row: Dict[str, object] = {
                    "dataset": entry.dataset.upper(),
                    "phase": phase,
                    "measured_serial_s": round(entry.measured_seconds.get(phase, 0.0), 4),
                }
                for cores in self.core_counts:
                    pt = entry.modelled[cores]
                    row[f"model_{cores}_cores_s"] = round(pt.as_dict()[phase], 4)
                table.rows.append(row)
        return table


def run_table4_timing_breakdown(
    datasets: Sequence[str] = ("susy", "covtype"),
    n_train: int = 4096,
    core_counts: Sequence[int] = (32, 512),
    hss_options: Optional[HSSOptions] = None,
    hmatrix_options: Optional[HMatrixOptions] = None,
    seed: int = 0,
) -> Table4Result:
    """Measure the serial phases and model the distributed breakdown."""
    hss_opts = hss_options if hss_options is not None else HSSOptions()
    h_opts = hmatrix_options if hmatrix_options is not None else HMatrixOptions()
    result = Table4Result(core_counts=tuple(core_counts))

    for idx, name in enumerate(datasets):
        data = load_dataset(name, n_train=n_train, n_test=64, seed=seed + idx)
        clustering = cluster(data.X_train, method="two_means",
                             leaf_size=16, seed=seed)
        operator = KernelOperator(clustering.X, GaussianKernel(h=data.h))
        log = TimingLog()
        hmatrix = build_hmatrix(operator, clustering.X, clustering.tree,
                                options=h_opts, timing=log)
        sampler = HMatrixSampler(hmatrix, operator)
        hss, stats = build_hss_randomized(sampler, clustering.tree,
                                          options=hss_opts, rng=seed, timing=log)
        factorization = ULVFactorization.factor(hss, lam=data.lam, timing=log)
        factorization.solve(clustering.permute_labels(data.y_train), timing=log)

        measured = {
            "h_construction": log.get("h_construction"),
            "sampling": log.get("hss_sampling"),
            "hss_other": log.get("hss_other"),
            "hss_construction": log.get("hss_sampling") + log.get("hss_other"),
            "factorization": log.get("factorization"),
            "solve": log.get("solve"),
        }

        work = estimate_hss_work(hss, n_random=stats.random_vectors)
        sampling_flops = estimate_sampling_work(hss.n, stats.random_vectors, hmatrix)
        model = DistributedCostModel(
            work,
            n_sampling_sweeps=stats.rounds,
            hmatrix_flops=estimate_hmatrix_work(hmatrix),
            hmatrix_sampling_flops=sampling_flops["hmatrix"],
        )
        entry = Table4Entry(dataset=name, n=hss.n, measured_seconds=measured)
        for cores in core_counts:
            entry.modelled[int(cores)] = model.phase_times(int(cores))
        result.entries.append(entry)
    return result

"""repro — hierarchical matrix formats and clustering for kernel ridge regression.

A from-scratch Python reproduction of

    E. Rebrova, G. Chávez, Y. Liu, P. Ghysels, X. S. Li,
    "A Study of Clustering Techniques and Hierarchical Matrix Formats for
    Kernel Ridge Regression", 2018 (arXiv:1803.10274).

The library provides:

* clustering-based reorderings of a dataset (natural, recursive two-means,
  k-d tree, PCA tree, ball tree, agglomerative) producing the cluster tree
  that drives hierarchical matrix partitions — :mod:`repro.clustering`;
* HSS matrices with randomized (partially matrix-free) construction and a
  ULV factorization / solver — :mod:`repro.hss`;
* H matrices (strong admissibility, ACA) used as a fast sampling engine —
  :mod:`repro.hmatrix`;
* kernel ridge regression classification (binary and one-vs-all) on top of
  interchangeable dense / HSS / CG solvers — :mod:`repro.krr`;
* hyper-parameter tuning (grid search and an OpenTuner-style black-box
  tuner) — :mod:`repro.tuning`;
* synthetic stand-ins for the paper's UCI / MNIST datasets —
  :mod:`repro.datasets`;
* a distributed-memory performance model reproducing the paper's strong
  scaling study — :mod:`repro.parallel`;
* the experiment harness regenerating every table and figure —
  :mod:`repro.experiments`;
* model persistence (checksummed ``.npz`` artifacts, a directory-backed
  :class:`repro.serving.ModelStore`) and batched online prediction serving
  (:class:`repro.serving.PredictionEngine`,
  :class:`repro.serving.PredictionService`) — :mod:`repro.serving`;
* process-sharded training over subtree ownership, mirroring the paper's
  rank-per-subtree MPI runs (``KernelRidgeClassifier(shards=...)``) —
  :mod:`repro.distributed`;
* unified observability — metrics registry, span tracing, per-request
  status trails and Prometheus/JSON exporters across the train / refit /
  serve stack — :mod:`repro.obs`;
* a layered runtime configuration spine (``repro.toml`` + ``REPRO_*`` env
  vars + CLI flags, with per-value provenance) and the ``repro`` umbrella
  CLI (``train`` / ``tune`` / ``refit`` / ``serve`` / ``bench`` /
  ``inspect`` / ``env``) driving the whole lifecycle without writing
  Python — :mod:`repro.runtime`, :mod:`repro.cli`.

Quickstart
----------
>>> from repro.datasets import load_dataset
>>> from repro.krr import KernelRidgeClassifier
>>> data = load_dataset("gas", n_train=512, n_test=128, seed=0)
>>> clf = KernelRidgeClassifier(h=data.h, lam=data.lam, solver="hss",
...                             clustering="two_means")
>>> acc = clf.fit(data.X_train, data.y_train).score(data.X_test, data.y_test)
"""

from . import obs
from . import runtime
from . import clustering, datasets, hmatrix, hss, kernels, krr, lowrank, utils
from . import serving
from . import distributed
from .config import ClusteringOptions, HMatrixOptions, HSSOptions
from .clustering import ClusterTree, cluster
from .hss import HSSMatrix, ULVFactorization, build_hss_from_dense, build_hss_randomized
from .hmatrix import HMatrix, HMatrixSampler, build_hmatrix
from .kernels import GaussianKernel, KernelOperator, get_kernel
from .krr import (KernelRidgeClassifier, KernelRidgeRegressor,
                  OneVsAllClassifier)
from .datasets import load_dataset
from .serving import (ModelStore, PredictionEngine, PredictionService,
                      load_model, save_model)
from .distributed import ShardPlan
from .runtime import RuntimeConfig, resolve_runtime_config

__version__ = "1.0.0"

__all__ = [
    "ClusteringOptions",
    "HMatrixOptions",
    "HSSOptions",
    "ClusterTree",
    "cluster",
    "HSSMatrix",
    "ULVFactorization",
    "build_hss_from_dense",
    "build_hss_randomized",
    "HMatrix",
    "HMatrixSampler",
    "build_hmatrix",
    "GaussianKernel",
    "KernelOperator",
    "get_kernel",
    "KernelRidgeClassifier",
    "KernelRidgeRegressor",
    "OneVsAllClassifier",
    "load_dataset",
    "ModelStore",
    "PredictionEngine",
    "PredictionService",
    "save_model",
    "load_model",
    "ShardPlan",
    "RuntimeConfig",
    "resolve_runtime_config",
    "obs",
    "runtime",
    "__version__",
]

"""Model persistence and batched prediction serving.

A fitted estimator's expensive product — the clustered, compressed,
factored kernel system plus the trained weight vector — lives inside the
process that ran :meth:`repro.krr.KernelRidgeClassifier.fit`.  This
package turns it into a deployable predictor with the train-offline / serve-online split used by
production KRR systems:

* :mod:`repro.serving.serialize` — versioned, checksummed ``.npz``
  round-trips (no pickled code) for :class:`repro.clustering.ClusterTree`,
  :class:`repro.hss.HSSMatrix`, :class:`repro.hss.ULVFactorization` and
  fitted classifiers, producing self-describing :class:`ModelArtifact`\\ s;
* :mod:`repro.serving.store` — :class:`ModelStore`, a directory registry
  with save / load / list / delete, content hashes and free-form
  metadata (``repro train`` records its accuracy / memory / timing row);
* :mod:`repro.serving.engine` — :class:`PredictionEngine`, micro-batching
  queries into coalesced test-kernel-row GEMMs with an LRU cache of
  kernel rows for repeated points, serving every model (sharded-trained
  or not) in the calling thread;
* :mod:`repro.serving.service` — :class:`PredictionService`, a
  thread-based front-end (``predict_many``, ``submit``/future API) with
  p50/p95 latency and QPS statistics.
"""

from .serialize import (ArtifactError, ModelArtifact, hss_from_arrays,
                        hss_to_arrays, kernel_from_spec, kernel_to_spec,
                        load_model, load_model_as, read_artifact, save_model,
                        tree_from_arrays, tree_to_arrays, ulv_from_arrays,
                        ulv_to_arrays)
from .store import ModelRecord, ModelStore
from .engine import EngineStats, KernelRowCache, PredictionEngine
from .service import PredictionService, ServingStats

__all__ = [
    "ArtifactError",
    "ModelArtifact",
    "save_model",
    "load_model",
    "load_model_as",
    "read_artifact",
    "tree_to_arrays",
    "tree_from_arrays",
    "hss_to_arrays",
    "hss_from_arrays",
    "ulv_to_arrays",
    "ulv_from_arrays",
    "kernel_to_spec",
    "kernel_from_spec",
    "ModelStore",
    "ModelRecord",
    "PredictionEngine",
    "EngineStats",
    "KernelRowCache",
    "PredictionService",
    "ServingStats",
]

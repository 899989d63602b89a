"""Writes the ``legacy_*.npz`` fixtures next to this file.

Provenance, not part of the suite: the fixtures must come from the last
writer of the per-member container (schema versions 1 and 2), so this
script is run against a checkout of that commit, never against the
current tree::

    git clone <this repo> /tmp/parent && git -C /tmp/parent checkout 33d77b0
    PYTHONPATH=/tmp/parent/src python tests/data/make_legacy_artifacts.py

``tests/test_legacy_artifacts.py`` loads what it wrote.  ``expected.npz``
holds the query rows, each model's weights and decision values on them,
and the rows the lifecycle verbs of that test stream in.
"""

import os

import numpy as np

from repro.datasets import gaussian_mixture
from repro.krr import KernelRidgeClassifier, OneVsAllClassifier
from repro.serving import read_artifact

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    X, y = gaussian_mixture(n=64, d=3, seed=0)
    extra_X, extra_y = gaussian_mixture(n=8, d=3, seed=1)
    queries = np.random.default_rng(7).standard_normal((8, 3))
    classes = (y > 0).astype(int) + (X[:, 0] > 0).astype(int)
    common = dict(h=1.0, lam=1.0, clustering="two_means", leaf_size=24,
                  seed=0)

    models = {
        "hss": KernelRidgeClassifier(solver="hss", shards=1, **common).fit(X, y),
        "dense": KernelRidgeClassifier(solver="dense", **common).fit(
            X[:48], y[:48]),
        "ova": OneVsAllClassifier(solver="hss", shards=1, **common).fit(
            X, classes),
        "sharded": KernelRidgeClassifier(solver="hss", shards=2, **common).fit(
            X, y),
        "midstream": KernelRidgeClassifier(solver="hss", shards=1, **common).fit(
            X, y),
    }
    models["midstream"].partial_fit(extra_X[:4], extra_y[:4], remove=[3, 17])

    expected = {"queries": queries, "extra_X": extra_X, "extra_y": extra_y}
    for name, model in models.items():
        path = os.path.join(HERE, f"legacy_{name}.npz")
        model.save(path)
        artifact = read_artifact(path)
        assert artifact.version <= 2, "run this against the parent commit"
        expected[f"weights.{name}"] = model.weights_
        expected[f"decision.{name}"] = model.decision_function(queries)
        print(f"{name}: version {artifact.version}, "
              f"{os.path.getsize(path)} bytes, {artifact.checksum[:12]}")
        solver = model.solver_
        if hasattr(solver, "close"):
            solver.close()
    np.savez(os.path.join(HERE, "expected.npz"), **expected)


if __name__ == "__main__":
    main()

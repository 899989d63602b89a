"""Writes the ``legacy_*.npz`` fixtures next to this file.

Provenance, not part of the suite: each set of fixtures must come from
the last writer of its container, so this script is run against a
checkout of that commit, never against the current tree.  The per-member
container (schema versions 1 and 2) was last written by 33d77b0::

    git clone <this repo> /tmp/parent && git -C /tmp/parent checkout 33d77b0
    PYTHONPATH=/tmp/parent/src python tests/data/make_legacy_artifacts.py

the JSON-indexed packed container (schema version 3) by a02e8fb, which
writes ``legacy_v3_*.npz`` by loading each per-member fixture and saving
it again — the same arrays, so the same ``expected.npz`` holds::

    git -C /tmp/parent checkout a02e8fb
    PYTHONPATH=/tmp/parent/src python tests/data/make_legacy_artifacts.py v3

and the last artifacts that store the per-node ``V`` / ``B21`` /
``col_skeleton`` copies of the symmetric HSS format (schema version 4)
by 4787a08, which writes ``legacy_v4_*.npz`` the same way::

    git -C /tmp/parent checkout 4787a08
    PYTHONPATH=/tmp/parent/src python tests/data/make_legacy_artifacts.py v4

and the last artifacts that store the general (two-transform) ULV
factors — ``q``, ``g1``, ``g2``, the root LU — (schema version 5) by
86aa42e, which writes ``legacy_v5_*.npz`` the same way::

    git -C /tmp/parent checkout 86aa42e
    PYTHONPATH=/tmp/parent/src python tests/data/make_legacy_artifacts.py v5

and the last artifacts that store the per-node ``row_skeleton`` indices
and the ``hss_lam_free`` / ``dist.lam_free`` markers of the λ-free
compression (schema version 6) by b3ef5d1, which writes
``legacy_v6_*.npz`` the same way::

    git -C /tmp/parent checkout b3ef5d1
    PYTHONPATH=/tmp/parent/src python tests/data/make_legacy_artifacts.py v6

and the last artifacts whose header names the fitted solver's class
(``sharded`` / ``distributed``) and stores only part of its options — the
``cg_tol`` / ``cg_max_iter`` / ``shards`` extras — (schema version 7) by
b91c071, which writes ``legacy_v7_*.npz`` the same way::

    git -C /tmp/parent checkout b91c071
    PYTHONPATH=/tmp/parent/src python tests/data/make_legacy_artifacts.py v7

``tests/test_legacy_artifacts.py`` loads what it wrote.  ``expected.npz``
holds the query rows, each model's weights and decision values on them,
and the rows the lifecycle verbs of that test stream in.
"""

import os
import sys

import numpy as np

from repro.datasets import gaussian_mixture
from repro.krr import KernelRidgeClassifier, OneVsAllClassifier
from repro.serving import load_model, read_artifact

HERE = os.path.dirname(os.path.abspath(__file__))
NAMES = ("hss", "dense", "ova", "sharded", "midstream")


#: schema version -> the commit whose writer saved its fixtures last
RESAVED_BY = {3: "a02e8fb", 4: "4787a08", 5: "86aa42e", 6: "b3ef5d1",
              7: "b91c071"}


def resave_as(version):
    for name in NAMES:
        model = load_model(os.path.join(HERE, f"legacy_{name}.npz"))
        path = os.path.join(HERE, f"legacy_v{version}_{name}.npz")
        artifact = model.save(path)
        assert artifact.version == version, \
            f"run this against {RESAVED_BY[version]}"
        print(f"v{version}_{name}: {os.path.getsize(path)} bytes, "
              f"{artifact.checksum[:12]}")


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
    if sys.argv[1:] in (["v3"], ["v4"], ["v5"], ["v6"], ["v7"]):
        resave_as(int(sys.argv[1][1:]))
    else:
        main()

"""Round-trip tests for the model persistence layer (repro.serving)."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.clustering import cluster
from repro.datasets import gaussian_mixture
from repro.hss import ULVFactorization, build_hss_from_dense
from repro.kernels import GaussianKernel, LaplacianKernel
from repro.krr import KernelRidgeClassifier, OneVsAllClassifier
from repro.serving import (ArtifactError, ModelStore, hss_from_arrays,
                           hss_to_arrays, kernel_from_spec, kernel_to_spec,
                           load_model, read_artifact, save_model,
                           tree_from_arrays, tree_to_arrays, ulv_from_arrays,
                           ulv_to_arrays)


@pytest.fixture(scope="module")
def binary_data():
    X, y = gaussian_mixture(n=256, d=6, seed=0)
    X_test, y_test = gaussian_mixture(n=64, d=6, seed=1)
    return X, y, X_test, y_test


@pytest.fixture(scope="module")
def multiclass_data():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((220, 5))
    y = rng.integers(0, 4, size=220)
    X_test = rng.standard_normal((48, 5))
    return X, y, X_test


def _npz_round_trip(tmp_path, arrays):
    """Write an array dict to .npz and read it back (like the artifact does)."""
    path = os.path.join(tmp_path, "payload.npz")
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with np.load(path) as npz:
        return {k: npz[k] for k in npz.files}


class TestArrayRoundTrips:
    def test_cluster_tree(self, tmp_path, binary_data):
        X, _, _, _ = binary_data
        tree = cluster(X, method="two_means", leaf_size=16, seed=0).tree
        restored = tree_from_arrays(_npz_round_trip(tmp_path, tree_to_arrays(tree)))
        assert np.array_equal(restored.perm, tree.perm)
        assert restored.root == tree.root
        assert restored.n_nodes == tree.n_nodes
        for a, b in zip(restored.nodes, tree.nodes):
            assert (a.start, a.stop, a.left, a.right, a.parent, a.level) == \
                (b.start, b.stop, b.left, b.right, b.parent, b.level)

    def test_hss_matrix(self, tmp_path, clustered_kernel_matrix):
        K, clustering = clustered_kernel_matrix
        hss = build_hss_from_dense(K, clustering.tree)
        arrays = _npz_round_trip(tmp_path, hss_to_arrays(hss))
        restored = hss_from_arrays(arrays, clustering.tree)
        assert np.array_equal(restored.to_dense(), hss.to_dense())
        assert restored.max_rank == hss.max_rank

    def test_ulv_factorization(self, tmp_path, clustered_kernel_matrix):
        K, clustering = clustered_kernel_matrix
        hss = build_hss_from_dense(K, clustering.tree)
        ulv = ULVFactorization(hss)
        arrays = _npz_round_trip(
            tmp_path, {**hss_to_arrays(hss), **ulv_to_arrays(ulv)})
        restored = ulv_from_arrays(arrays, hss_from_arrays(arrays, clustering.tree))
        rng = np.random.default_rng(0)
        b = rng.standard_normal(hss.n)
        B = rng.standard_normal((hss.n, 3))
        assert np.array_equal(restored.solve(b), ulv.solve(b))
        assert np.array_equal(restored.solve(B), ulv.solve(B))

    def test_missing_payload_raises(self, clustered_kernel_matrix):
        _, clustering = clustered_kernel_matrix
        with pytest.raises(ArtifactError):
            hss_from_arrays({}, clustering.tree)


class TestKernelSpec:
    @pytest.mark.parametrize("kernel", [GaussianKernel(h=1.7),
                                        LaplacianKernel(h=0.4)])
    def test_radial_round_trip(self, kernel):
        restored = kernel_from_spec(kernel_to_spec(kernel))
        assert type(restored) is type(kernel)
        assert restored.h == kernel.h

    def test_linear_round_trip(self):
        from repro.kernels import LinearKernel
        restored = kernel_from_spec(kernel_to_spec(LinearKernel()))
        assert type(restored) is LinearKernel

    def test_unreconstructable_kernel_fails_at_save_time(self):
        """A kernel caching derived attributes must be rejected when the
        spec is built, not discovered as unloadable later."""
        from repro.kernels.base import KERNEL_REGISTRY, Kernel, register_kernel

        @register_kernel("_test_cauchy")
        class _CauchyKernel(Kernel):
            def __init__(self, h=1.0):
                self.h = float(h)
                self._inv2 = 1.0 / (h * h)  # derived, not a constructor arg

            def _evaluate_sq(self, sq):
                return 1.0 / (1.0 + self._inv2 * np.asarray(sq))

        try:
            with pytest.raises(ArtifactError, match="reconstructed"):
                kernel_to_spec(_CauchyKernel(h=2.0))
        finally:
            KERNEL_REGISTRY.pop("_test_cauchy", None)


class TestClassifierRoundTrip:
    """save -> load must reproduce predictions bitwise (acceptance criterion)."""

    @pytest.mark.parametrize("solver", ["dense", "hss", "cg"])
    def test_binary_predictions_identical(self, tmp_path, binary_data, solver):
        X, y, X_test, _ = binary_data
        clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver=solver,
                                    clustering="two_means", seed=0).fit(X, y)
        path = os.path.join(tmp_path, "model.npz")
        artifact = clf.save(path)
        assert artifact.checksum
        reloaded = KernelRidgeClassifier.load(path)
        assert np.array_equal(reloaded.predict(X_test), clf.predict(X_test))
        assert np.array_equal(reloaded.decision_function(X_test),
                              clf.decision_function(X_test))

    @pytest.mark.parametrize("solver", ["dense", "hss"])
    def test_reloaded_solver_solves_new_rhs(self, tmp_path, binary_data, solver):
        X, y, _, _ = binary_data
        clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver=solver, seed=0).fit(X, y)
        path = os.path.join(tmp_path, "model.npz")
        clf.save(path)
        reloaded = KernelRidgeClassifier.load(path)
        rhs = np.linspace(-1.0, 1.0, X.shape[0])
        assert np.array_equal(reloaded.solver_.solve(rhs), clf.solver_.solve(rhs))

    @pytest.mark.parametrize("solver", ["dense", "hss", "cg"])
    def test_multiclass_predictions_identical(self, tmp_path, multiclass_data,
                                              solver):
        X, y, X_test = multiclass_data
        ova = OneVsAllClassifier(h=1.2, lam=0.5, solver=solver, seed=0).fit(X, y)
        path = os.path.join(tmp_path, "ova.npz")
        ova.save(path)
        reloaded = OneVsAllClassifier.load(path)
        assert np.array_equal(reloaded.classes_, ova.classes_)
        assert np.array_equal(reloaded.predict(X_test), ova.predict(X_test))
        assert np.array_equal(reloaded.decision_function(X_test),
                              ova.decision_function(X_test))

    def test_predict_only_artifact(self, tmp_path, binary_data):
        X, y, X_test, _ = binary_data
        clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="hss", seed=0).fit(X, y)
        full = os.path.join(tmp_path, "full.npz")
        lean = os.path.join(tmp_path, "lean.npz")
        clf.save(full)
        clf.save(lean, include_factorization=False)
        assert os.path.getsize(lean) < os.path.getsize(full)
        reloaded = load_model(lean)
        assert reloaded.solver_ is None
        assert np.array_equal(reloaded.predict(X_test), clf.predict(X_test))

    def test_kind_mismatch_raises(self, tmp_path, binary_data):
        X, y, _, _ = binary_data
        clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="dense", seed=0).fit(X, y)
        path = os.path.join(tmp_path, "model.npz")
        clf.save(path)
        with pytest.raises(ArtifactError):
            OneVsAllClassifier.load(path)

    def test_unfitted_model_rejected(self, tmp_path):
        clf = KernelRidgeClassifier(h=1.0, lam=1.0)
        with pytest.raises(ArtifactError):
            save_model(clf, os.path.join(tmp_path, "model.npz"))

    def test_object_dtype_classes_rejected(self, tmp_path, multiclass_data):
        """Object-dtype labels would be silently pickled by np.savez and the
        resulting artifact would be unreadable with allow_pickle=False."""
        X, y, _ = multiclass_data
        labels = np.array(["cat", "dog", "emu", "fox"], dtype=object)[y]
        ova = OneVsAllClassifier(h=1.0, lam=1.0, solver="dense", seed=0)
        ova.fit(X, labels)
        path = os.path.join(tmp_path, "ova.npz")
        with pytest.raises(ArtifactError, match="object dtype"):
            ova.save(path)
        assert not os.path.exists(path)
        # Fixed-width string labels serialize fine.
        ova.fit(X, labels.astype(str))
        ova.save(path)
        reloaded = OneVsAllClassifier.load(path)
        assert np.array_equal(reloaded.classes_, ova.classes_)


class TestArtifactIntegrity:
    def test_header_readable_without_full_load(self, tmp_path, binary_data):
        X, y, _, _ = binary_data
        clf = KernelRidgeClassifier(h=1.5, lam=2.0, solver="dense", seed=0).fit(X, y)
        path = os.path.join(tmp_path, "model.npz")
        clf.save(path, metadata={"dataset": "gmix"})
        artifact = read_artifact(path)
        assert artifact.kind == "kernel_ridge_classifier"
        assert artifact.config["h"] == 1.5
        assert artifact.metadata["dataset"] == "gmix"
        assert "dense" in artifact.describe()

    def test_corruption_detected(self, tmp_path, binary_data):
        X, y, _, _ = binary_data
        clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="dense", seed=0).fit(X, y)
        path = os.path.join(tmp_path, "model.npz")
        clf.save(path)
        # Flip one byte in the middle of the archive payload.
        with open(path, "r+b") as fh:
            fh.seek(os.path.getsize(path) // 2)
            byte = fh.read(1)
            fh.seek(-1, os.SEEK_CUR)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(ArtifactError):
            load_model(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ArtifactError):
            load_model(os.path.join(tmp_path, "nope.npz"))

    def test_non_artifact_npz_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "random.npz")
        np.savez(path, a=np.arange(3))
        with pytest.raises(ArtifactError):
            load_model(path)


class TestModelStore:
    def test_save_load_list_delete(self, tmp_path, binary_data):
        X, y, X_test, _ = binary_data
        store = ModelStore(tmp_path / "store")
        clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="hss", seed=0).fit(X, y)
        record = store.save(clf, "gmix-hss", metadata={"note": "unit test"})
        assert record.checksum and "gmix-hss" in store and len(store) == 1

        reloaded = store.load("gmix-hss")
        assert np.array_equal(reloaded.predict(X_test), clf.predict(X_test))

        records = store.list_models()
        assert [r.name for r in records] == ["gmix-hss"]
        assert records[0].metadata["note"] == "unit test"
        assert records[0].kind == "kernel_ridge_classifier"

        store.delete("gmix-hss")
        assert len(store) == 0 and "gmix-hss" not in store
        with pytest.raises(ArtifactError):
            store.load("gmix-hss")

    def test_interrupted_save_leaves_no_ghost_entry(self, tmp_path, binary_data):
        """A crash before the record is published must not block a retry."""
        X, y, X_test, _ = binary_data
        store = ModelStore(tmp_path / "store")
        clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="dense", seed=0).fit(X, y)
        # Simulate a save that died mid-archive: partial temp file, no record.
        ghost_dir = tmp_path / "store" / "ghost"
        ghost_dir.mkdir()
        (ghost_dir / "model.npz.tmp").write_bytes(b"partial")
        assert "ghost" not in store and store.list_models() == []
        record = store.save(clf, "ghost")  # retry succeeds without overwrite
        assert record.checksum
        reloaded = store.load("ghost")
        assert np.array_equal(reloaded.predict(X_test), clf.predict(X_test))

    def test_missing_required_entry_raises_artifact_error(self, tmp_path,
                                                          binary_data):
        """Archives with a valid header but missing model arrays must fail
        with ArtifactError, not a bare KeyError."""
        X, y, _, _ = binary_data
        clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="dense", seed=0).fit(X, y)
        path = os.path.join(tmp_path, "model.npz")
        clf.save(path)
        from repro.serving.serialize import _read_archive, _write_archive
        header, arrays = _read_archive(path)
        # Rewrite without the weights; the writer stamps a matching checksum.
        del arrays["model.weights"]
        _write_archive(path, header, arrays)
        with pytest.raises(ArtifactError, match="missing required entry"):
            load_model(path)

    def test_overwrite_protection(self, tmp_path, binary_data):
        X, y, _, _ = binary_data
        store = ModelStore(tmp_path / "store")
        clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="dense", seed=0).fit(X, y)
        store.save(clf, "m")
        with pytest.raises(FileExistsError):
            store.save(clf, "m")
        store.save(clf, "m", overwrite=True)

    def test_invalid_name_rejected(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        with pytest.raises(ValueError):
            store._model_dir("../escape")

    def test_stray_directories_do_not_break_listing(self, tmp_path, binary_data):
        X, y, _, _ = binary_data
        store = ModelStore(tmp_path / "store")
        clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="dense", seed=0).fit(X, y)
        store.save(clf, "good")
        # A backup directory with an invalid store name, containing a record.
        backup = tmp_path / "store" / ".good-backup"
        backup.mkdir()
        (backup / "record.json").write_text("{}")
        assert [r.name for r in store.list_models()] == ["good"]
        assert len(store) == 1

    def test_save_over_existing_is_atomic(self, tmp_path, binary_data):
        """Re-saving leaves no temp file and the artifact stays loadable."""
        X, y, X_test, _ = binary_data
        clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="dense", seed=0).fit(X, y)
        path = os.path.join(tmp_path, "model.npz")
        clf.save(path)
        clf.save(path)  # overwrite in place
        assert not os.path.exists(path + ".tmp")
        reloaded = KernelRidgeClassifier.load(path)
        assert np.array_equal(reloaded.predict(X_test), clf.predict(X_test))

    def test_store_metadata_is_recorded_and_described(self, tmp_path,
                                                      binary_data):
        X, y, X_test, y_test = binary_data
        clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="hss",
                                    seed=0).fit(X, y)
        accuracy_percent = round(100.0 * clf.score(X_test, y_test), 2)
        store = ModelStore(tmp_path / "store")
        record = store.save(clf, "from-metadata", metadata={
            "dataset": "gmix", "accuracy_percent": accuracy_percent})
        assert record.metadata["dataset"] == "gmix"
        assert record.metadata["accuracy_percent"] == accuracy_percent
        assert store.record("from-metadata").metadata == record.metadata
        assert f"acc={accuracy_percent}%" in record.describe()

    def test_explicit_kernel_bandwidth_survives_fit_and_reload(
            self, tmp_path, binary_data):
        """``h`` describes the kernel the model was given, not the
        constructor default, before and after a save / load."""
        X, y, X_test, _ = binary_data
        clf = KernelRidgeClassifier(lam=1.0, solver="dense",
                                    kernel=GaussianKernel(h=2.0)).fit(X, y)
        assert clf.h == clf.kernel.h == 2.0
        path = os.path.join(tmp_path, "explicit-kernel.npz")
        clf.save(path)
        assert read_artifact(path).config["h"] == 2.0
        reloaded = KernelRidgeClassifier.load(path)
        assert reloaded.h == reloaded.kernel.h == 2.0
        assert np.array_equal(reloaded.predict(X_test), clf.predict(X_test))

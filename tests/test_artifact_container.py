"""The packed artifact container (schema version 3) and its faults.

Three groups:

* a guard, in the style of ``test_call_count_budget``, so one zip member
  per array per node cannot creep back: member count, the Python + C calls
  of one ``load_model``, and the properties the views must keep (writable,
  saved memory order, bitwise re-solve);
* torn and hostile archives, table-driven over both containers (the packed
  one and the per-member one of versions 1 and 2): every row makes
  ``load_model`` raise :class:`ArtifactError` — never ``ValueError``,
  ``IndexError`` or ``BadZipFile`` — and ``read_artifact`` raises only
  when the zip structure or the header member itself is damaged;
* the publish step: a write that fails midway leaves the previous archive
  in place and no temp file behind.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import shutil
import struct
import zipfile

import numpy as np
import pytest

from repro.datasets import standardize, susy_like
from repro.krr import KernelRidgeClassifier
from repro.obs import trace
from repro.serving import ArtifactError, load_model, read_artifact
from repro.serving.serialize import (_ALIGN, _HEADER_KEY, _INDEX_KEY,
                                     _PAYLOAD_KEY, FORMAT_VERSION,
                                     _read_archive)

LEGACY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                      "legacy_hss.npz")


@pytest.fixture(scope="module")
def susy():
    X, y = susy_like(512, seed=0)
    return standardize(X), y


def _fit(susy, **kwargs):
    X, y = susy
    kwargs.setdefault("shards", 1)
    return KernelRidgeClassifier(h=1.0, lam=1.0, clustering="two_means",
                                 leaf_size=16, seed=0, **kwargs).fit(X, y)


@pytest.fixture(scope="module")
def hss_model(susy):
    return _fit(susy, solver="hss")


@pytest.fixture(scope="module")
def packed(tmp_path_factory, hss_model):
    """A version-3 archive of the 97-node HSS model."""
    path = str(tmp_path_factory.mktemp("packed") / "model.npz")
    hss_model.save(path)
    return path


# ----------------------------------------------------------------- the guard
class TestPackedContainerGuard:
    def test_member_count_and_load_call_budget(self, packed, hss_model):
        """Per-node members made this 97-node model a 1 297-member archive
        whose load took 236 313 Python + C calls; packed, it has three
        members and loads in about 18 600.  The budget is a sixth of the
        old count."""
        assert hss_model.clustering_.tree.n_nodes == 97
        with zipfile.ZipFile(packed) as zf:
            assert sorted(zf.namelist()) == sorted(
                f"{key}.npy" for key in (_HEADER_KEY, _INDEX_KEY, _PAYLOAD_KEY))
        assert read_artifact(packed).version == FORMAT_VERSION == 3
        profiler = cProfile.Profile()
        gc.collect()
        gc.disable()
        try:
            model = profiler.runcall(lambda: load_model(packed))
        finally:
            gc.enable()
        assert np.array_equal(model.weights_, hss_model.weights_)
        calls = sum(entry.callcount for entry in profiler.getstats())
        assert calls <= 40_000, calls

    def test_views_are_writable_aligned_and_keep_their_memory_order(
            self, packed, hss_model):
        from repro.serving.serialize import hss_to_arrays, ulv_to_arrays
        solver = hss_model.solver_
        saved = {**hss_to_arrays(solver.hss_),
                 **ulv_to_arrays(solver.factorization_)}
        _, arrays = _read_archive(packed)
        fortran = 0
        for key, original in saved.items():
            restored = arrays[key]
            assert restored.flags.writeable, key
            assert restored.flags.aligned, key
            layout = (original.flags.c_contiguous, original.flags.f_contiguous)
            if not any(layout):  # a strided slice is stored C-ordered,
                layout = (True, restored.ndim < 2 or 1 in restored.shape)
            assert (restored.flags.c_contiguous,        # as .npy does
                    restored.flags.f_contiguous) == layout, key
            assert np.array_equal(restored, original), key
            fortran += original.flags.f_contiguous and not original.flags.c_contiguous
        # The fixture exercises what it guards: ULV's transposed factors.
        assert fortran > 0
        with np.load(packed) as npz:
            index = json.loads(bytes(npz[_INDEX_KEY]))
        assert all(entry["offset"] % _ALIGN == 0 for entry in index)

    @pytest.mark.parametrize("kwargs", [dict(solver="hss"),
                                        dict(solver="dense"),
                                        dict(solver="hss", shards=2)],
                             ids=["hss", "dense", "shards2"])
    def test_reload_solves_a_new_rhs_bitwise(self, tmp_path, susy, kwargs):
        model = _fit(susy, **kwargs)
        path = str(tmp_path / "model.npz")
        model.save(path)
        reloaded = load_model(path)
        rhs = np.linspace(-1.0, 1.0, susy[0].shape[0])
        try:
            assert np.array_equal(reloaded.solver_.solve(rhs),
                                  model.solver_.solve(rhs))
            assert np.array_equal(reloaded.decision_function(susy[0][:32]),
                                  model.decision_function(susy[0][:32]))
        finally:
            if hasattr(model.solver_, "close"):
                model.solver_.close()

    def test_save_and_load_open_spans(self, tmp_path, hss_model):
        path = str(tmp_path / "model.npz")
        hss_model.save(path)
        load_model(path)
        load, save = (trace.recent_roots()[-1], trace.recent_roots()[-2])
        assert (save.name, load.name) == ("artifact.save", "artifact.load")
        for span in (save, load):
            assert span.attributes["bytes"] == os.path.getsize(path)
            assert span.attributes["version"] == FORMAT_VERSION
            assert span.attributes["arrays"] > 97


def test_docs_recipe_reads_the_archive_without_the_library(
        tmp_path, monkeypatch, susy, hss_model):
    """The "Reading an artifact without the library" block of
    ``docs/serving.md``, executed as written (CI runs it against the
    archive the ``repro`` CLI leaves behind)."""
    docs = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                        "docs", "serving.md")
    with open(docs, encoding="utf-8") as fh:
        section = fh.read().split(
            "## Reading an artifact without the library")[1]
    recipe = section.split("```python\n")[1].split("```")[0]
    assert "import repro" not in recipe and "from repro" not in recipe
    hss_model.save(str(tmp_path / "model.npz"))
    monkeypatch.chdir(tmp_path)  # the recipe opens "model.npz"
    scope = {}
    exec(compile(recipe, "docs/serving.md", "exec"), scope)
    _, arrays = _read_archive("model.npz")
    assert sorted(scope["arrays"]) == sorted(arrays)
    for key, restored in arrays.items():
        assert np.array_equal(scope["arrays"][key], restored), key
    queries = susy[0][:64]
    assert np.array_equal(scope["predict"](queries),
                          hss_model.predict(queries))


# ------------------------------------------------------- torn and hostile
def _regions(path):
    """``{member name: (first, one-past-last) byte of its data}`` plus the
    central directory's range, read off the zip structure."""
    out = {}
    with zipfile.ZipFile(path) as zf, open(path, "rb") as fh:
        for info in zf.infolist():
            fh.seek(info.header_offset + 26)
            name_len, extra_len = struct.unpack("<HH", fh.read(4))
            start = info.header_offset + 30 + name_len + extra_len
            out[info.filename] = (start, start + info.compress_size)
        out["central directory"] = (zf.start_dir, os.path.getsize(path))
    return out


def _middle(path, region):
    first, stop = _regions(path)[region]
    assert stop - first >= 2, region
    return (first + stop) // 2


def _truncate(path, region):
    os.truncate(path, _middle(path, region))


def _flip(path, region):
    with open(path, "r+b") as fh:
        fh.seek(_middle(path, region))
        byte = fh.read(1)
        fh.seek(-1, os.SEEK_CUR)
        fh.write(bytes([byte[0] ^ 0xFF]))


#: (container, damage, region, does the header-only read still succeed)
DAMAGE = [
    ("packed", _truncate, f"{_HEADER_KEY}.npy", False),
    ("packed", _truncate, f"{_INDEX_KEY}.npy", False),
    ("packed", _truncate, f"{_PAYLOAD_KEY}.npy", False),
    ("packed", _truncate, "central directory", False),
    ("packed", _flip, f"{_HEADER_KEY}.npy", False),
    ("packed", _flip, f"{_INDEX_KEY}.npy", True),
    ("packed", _flip, f"{_PAYLOAD_KEY}.npy", True),
    ("legacy", _truncate, f"{_HEADER_KEY}.npy", False),
    ("legacy", _truncate, "model.weights.npy", False),
    ("legacy", _truncate, "central directory", False),
    ("legacy", _flip, f"{_HEADER_KEY}.npy", False),
    ("legacy", _flip, "model.weights.npy", True),
    ("legacy", _flip, "ulv.1.omega.npy", True),
]


def _assert_header_read(path, header_survives):
    """``read_artifact`` raises nothing but ``ArtifactError``."""
    if header_survives:
        assert read_artifact(path).kind == "kernel_ridge_classifier"
    else:
        with pytest.raises(ArtifactError):
            read_artifact(path)


@pytest.mark.parametrize(
    "container,damage,region,header_survives", DAMAGE,
    ids=[f"{c}-{d.__name__.strip('_')}-{r}" for c, d, r, _ in DAMAGE])
def test_damaged_archive_raises_artifact_error(tmp_path, packed, container,
                                               damage, region,
                                               header_survives):
    path = str(tmp_path / "model.npz")
    shutil.copyfile(packed if container == "packed" else LEGACY, path)
    assert load_model(path) is not None  # the copy is good before the damage
    damage(path, region)
    with pytest.raises(ArtifactError):
        load_model(path)
    _assert_header_read(path, header_survives)


def _repack(source, target, edit):
    """Rewrite a packed archive with ``edit(index, payload)`` applied — a
    well-formed zip with fresh CRCs, so only the library's own checks stand
    between the edit and an array."""
    with np.load(source) as npz:
        header = npz[_HEADER_KEY]
        index = json.loads(bytes(npz[_INDEX_KEY]))
        payload = npz[_PAYLOAD_KEY]
    index = edit(index, payload) or index
    np.savez(target, **{
        _HEADER_KEY: header,
        _INDEX_KEY: np.frombuffer(json.dumps(index).encode(), dtype=np.uint8),
        _PAYLOAD_KEY: payload})


def _set(position, **fields):
    def edit(index, payload):
        index[position].update(fields)
    return edit


def _past_the_payload(index, payload):
    index[-1]["offset"] = -(-payload.size // _ALIGN) * _ALIGN


def _payload_bit(index, payload):
    payload[payload.size // 2] ^= 0x01


HOSTILE = {
    "offset-past-payload": (_past_the_payload, "malformed index"),
    "shape-past-payload": (_set(-1, shape=[1 << 40]), "malformed index"),
    "negative-shape": (_set(0, shape=[-1]), "malformed index"),
    "object-dtype": (_set(0, dtype="|O"), "malformed index"),
    "structured-object-dtype": (_set(0, dtype="f8,O"), "malformed index"),
    "not-a-dtype": (_set(0, dtype="no such type"), "malformed index"),
    "duplicated-key": (_set(1, key="hss.n_nodes"), "malformed index"),
    "overlapping-views": (_set(1, offset=0), "malformed index"),
    "misaligned-offset": (_set(1, offset=72), "malformed index"),
    "fractional-offset": (_set(1, offset=64.0), "malformed index"),
    "unknown-order": (_set(0, order="Z"), "malformed index"),
    "missing-field": (lambda index, payload: index[0].pop("shape"),
                      "malformed index"),
    "index-is-not-a-list": (lambda index, payload: {"arrays": index},
                            "malformed index"),
    "flipped-payload-bit": (_payload_bit, "checksum"),
    "renamed-key": (_set(0, key="hss.n_node"), "checksum"),
}


def test_repacking_without_an_edit_loads(tmp_path, packed, hss_model):
    """The harness of the hostile rows writes loadable archives."""
    path = str(tmp_path / "model.npz")
    _repack(packed, path, lambda index, payload: None)
    assert np.array_equal(load_model(path).weights_, hss_model.weights_)


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_index_raises_artifact_error(tmp_path, packed, name):
    edit, message = HOSTILE[name]
    path = str(tmp_path / "model.npz")
    _repack(packed, path, edit)
    with pytest.raises(ArtifactError, match=message):
        load_model(path)
    with pytest.raises(ArtifactError, match=message):
        _read_archive(path)  # the reader itself: no array leaves it
    _assert_header_read(path, header_survives=True)


def test_index_that_is_not_json(tmp_path, packed):
    path = str(tmp_path / "model.npz")
    with np.load(packed) as npz:
        members = {key: npz[key] for key in npz.files}
    members[_INDEX_KEY] = np.frombuffer(b"\xff\xfe not json", dtype=np.uint8)
    np.savez(path, **members)
    with pytest.raises(ArtifactError, match="corrupted index"):
        load_model(path)
    del members[_INDEX_KEY]
    np.savez(path, **members)
    with pytest.raises(ArtifactError):
        load_model(path)
    _assert_header_read(path, header_survives=True)


# ------------------------------------------------------------ publish step
class _FailingZipFile(zipfile.ZipFile):
    """A zip writer whose eighth member write fails, as a full disk would:
    past the header and the index, inside the payload."""

    writes = 0

    def open(self, name, mode="r", *args, **kwargs):
        member = super().open(name, mode, *args, **kwargs)
        if mode == "w":
            real_write = member.write

            def write(data):
                type(self).writes += 1
                if type(self).writes == 8:
                    raise OSError(28, "No space left on device")
                return real_write(data)

            member.write = write
        return member


def test_failed_write_keeps_the_previous_archive_and_no_temp(
        tmp_path, monkeypatch, hss_model):
    path = str(tmp_path / "model.npz")
    hss_model.save(path)
    with open(path, "rb") as fh:
        before = fh.read()
    monkeypatch.setattr(zipfile, "ZipFile", _FailingZipFile)
    with pytest.raises(OSError, match="No space left"):
        hss_model.save(path)
    monkeypatch.undo()
    assert _FailingZipFile.writes >= 8
    assert os.listdir(tmp_path) == ["model.npz"]  # no *.tmp left behind
    with open(path, "rb") as fh:
        assert fh.read() == before
    assert np.array_equal(load_model(path).weights_, hss_model.weights_)

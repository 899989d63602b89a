"""The packed artifact container (schema versions 4 to 7) and its faults.

Four groups:

* a guard, in the style of ``test_call_count_budget``, so neither one zip
  member per array per node nor per-array Python in the index can creep
  back: member count (the same for every tree size), the Python + C calls
  of one ``load_model``, and the properties the views must keep
  (writable, aligned, saved memory order, bitwise re-solve);
* torn and hostile archives, table-driven over the three containers (the
  columnar one of version 4, the JSON-indexed one of version 3 and the
  per-member one of versions 1 and 2): every row makes ``load_model``
  raise :class:`ArtifactError` — never ``ValueError``, ``IndexError`` or
  ``BadZipFile`` — and ``read_artifact`` raises only when the zip
  structure or the header member itself is damaged;
* payloads that pass the checksum but do not make a model (a generator
  missing or of the wrong shape, a ULV scalar missing) raise
  :class:`ArtifactError` too, and a saved model holds the symmetric HSS
  format of version 7 — no ``V`` / ``B21`` / ``col_skeleton`` copies and
  no skeleton indices;
* the publish step: a write that fails midway leaves the previous archive
  in place and no temp file behind.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import os
import shutil
import struct
import zipfile

import numpy as np
import pytest
from conftest import docs_recipe

from repro.datasets import standardize, susy_like
from repro.krr import KernelRidgeClassifier
from repro.obs import trace
from repro.serving import ArtifactError, load_model, read_artifact
from repro.serving.serialize import (_HEADER_KEY, _INDEX_KEY, _KEYS_KEY,
                                     _PAYLOAD_KEY, FORMAT_VERSION,
                                     _read_archive, _write_archive)
from repro.utils.packing import ALIGN as _ALIGN

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
#: the same model in the per-member (version 1) and the JSON-indexed
#: (version 3) container, written by those containers' last writers
LEGACY = os.path.join(DATA, "legacy_hss.npz")
V3 = os.path.join(DATA, "legacy_v3_hss.npz")
#: leading columns of a version-4 index row (docs/serving.md)
CODE, ORDER, NDIM, OFFSET, SHAPE = range(5)


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
    """A version-4 archive of the 97-node HSS model."""
    path = str(tmp_path_factory.mktemp("packed") / "model.npz")
    hss_model.save(path)
    return path


# ----------------------------------------------------------------- the guard
class TestPackedContainerGuard:
    def test_member_count_and_load_call_budget(self, packed, hss_model,
                                               susy, tmp_path):
        """Per-node members made this 97-node model a 1 297-member archive
        whose load took 236 313 Python + C calls; the JSON-indexed
        container of version 3 loaded it in about 18 600 (budget 40 000)
        and the columnar one of version 4 in about 6 130.  The budget keeps
        version 3's relative headroom, 2.15 times the count."""
        assert hss_model.clustering_.tree.n_nodes == 97
        members = sorted(f"{key}.npy" for key in (
            _HEADER_KEY, _KEYS_KEY, _INDEX_KEY, _PAYLOAD_KEY))
        with zipfile.ZipFile(packed) as zf:
            assert sorted(zf.namelist()) == members
        # ... and a 9-node tree has the same members as the 97-node one.
        small = _fit((susy[0][:40], susy[1][:40]), solver="hss")
        assert small.clustering_.tree.n_nodes == 9
        small.save(str(tmp_path / "small.npz"))
        with zipfile.ZipFile(tmp_path / "small.npz") as zf:
            assert sorted(zf.namelist()) == members
        assert read_artifact(packed).version == FORMAT_VERSION == 8
        profiler = cProfile.Profile()
        gc.collect()
        gc.disable()
        try:
            model = profiler.runcall(lambda: load_model(packed))
        finally:
            gc.enable()
        assert np.array_equal(model.weights_, hss_model.weights_)
        calls = sum(entry.callcount for entry in profiler.getstats())
        assert calls <= 13_200, calls

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
            table = npz[_INDEX_KEY]
        assert np.all(table[:, OFFSET] % _ALIGN == 0)

    @pytest.mark.parametrize("kwargs", [dict(solver="hss"),
                                        dict(solver="dense"),
                                        dict(solver="cg"),
                                        dict(solver="hss", shards=2)],
                             ids=["hss", "dense", "cg", "shards2"])
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
    recipe = docs_recipe()
    assert "import repro" not in recipe and "from repro" not in recipe
    artifact = hss_model.save(str(tmp_path / "model.npz"))
    monkeypatch.chdir(tmp_path)  # the recipe opens "model.npz"
    scope = {}
    exec(compile(recipe, "docs/serving.md", "exec"), scope)
    assert scope["digest"].hexdigest() == artifact.checksum
    _, arrays = _read_archive("model.npz")
    assert sorted(scope["arrays"]) == sorted(arrays)
    for key, restored in arrays.items():
        assert np.array_equal(scope["arrays"][key], restored), key
        assert scope["arrays"][key].dtype == restored.dtype, key
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
    ("packed", _truncate, f"{_KEYS_KEY}.npy", False),
    ("packed", _truncate, f"{_INDEX_KEY}.npy", False),
    ("packed", _truncate, f"{_PAYLOAD_KEY}.npy", False),
    ("packed", _truncate, "central directory", False),
    ("packed", _flip, f"{_HEADER_KEY}.npy", False),
    ("packed", _flip, f"{_KEYS_KEY}.npy", True),
    ("packed", _flip, f"{_INDEX_KEY}.npy", True),
    ("packed", _flip, f"{_PAYLOAD_KEY}.npy", True),
    ("v3", _truncate, f"{_HEADER_KEY}.npy", False),
    ("v3", _truncate, f"{_INDEX_KEY}.npy", False),
    ("v3", _truncate, f"{_PAYLOAD_KEY}.npy", False),
    ("v3", _truncate, "central directory", False),
    ("v3", _flip, f"{_HEADER_KEY}.npy", False),
    ("v3", _flip, f"{_INDEX_KEY}.npy", True),
    ("v3", _flip, f"{_PAYLOAD_KEY}.npy", True),
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
    shutil.copyfile({"packed": packed, "v3": V3, "legacy": LEGACY}[container],
                    path)
    assert load_model(path) is not None  # the copy is good before the damage
    damage(path, region)
    with pytest.raises(ArtifactError):
        load_model(path)
    _assert_header_read(path, header_survives)


def _assert_hostile(path, message):
    """Neither the loader nor the reader itself lets an array out."""
    with pytest.raises(ArtifactError, match=message):
        load_model(path)
    with pytest.raises(ArtifactError, match=message):
        _read_archive(path)
    _assert_header_read(path, header_survives=True)


# ------------------------------------------------ version 4: columnar index
class _Parts:
    """The members of a version-4 archive, decoded and editable: the dtype
    vocabulary and the keys (the two halves of the key list), the index
    table and the payload."""

    def __init__(self, npz):
        self.header = json.loads(bytes(npz[_HEADER_KEY]))
        vocabulary, *self.keys = bytes(npz[_KEYS_KEY]).decode().split("\n")
        self.dtypes = vocabulary.split(" ")
        self.table = npz[_INDEX_KEY].copy()
        self.payload = npz[_PAYLOAD_KEY].copy()

    def key_list(self):
        text = "\n".join([" ".join(self.dtypes), *self.keys])
        return np.frombuffer(text.encode(), dtype=np.uint8).copy()


def _repack_v4(source, target, edit=None, flip=None):
    """Rewrite a version-4 archive with ``edit(parts)`` applied and the
    checksum stamped afresh — a well-formed zip with fresh CRCs and a
    matching digest, so only the library's structural checks stand
    between the edit and an array — or with one byte of the member
    ``flip`` inverted after the digest was taken."""
    with np.load(source) as npz:
        parts = _Parts(npz)
    if edit is not None:
        edit(parts)
    members = {_KEYS_KEY: parts.key_list(), _INDEX_KEY: parts.table,
               _PAYLOAD_KEY: parts.payload}
    digest = hashlib.sha256()
    for key in (_KEYS_KEY, _INDEX_KEY, _PAYLOAD_KEY):
        digest.update(np.ascontiguousarray(members[key]).tobytes())
    parts.header["checksum"] = digest.hexdigest()
    if flip is not None:
        raw = members[flip].reshape(-1).view(np.uint8)
        raw[raw.size // 2] ^= 0x01
    np.savez(target, **members, **{_HEADER_KEY: np.frombuffer(
        json.dumps(parts.header).encode(), dtype=np.uint8)})


def _cell(row, column, value):
    def edit(parts):
        parts.table[row, column] = value
    return edit


def _payload_end(parts):
    parts.table[-1, OFFSET] = -(-parts.payload.size // _ALIGN) * _ALIGN + _ALIGN


def _wrapping_shape(parts):
    """Dims whose int64 product wraps to 0: only a float bound sees them."""
    row = int(np.flatnonzero(parts.table[:, NDIM] == 2)[0])
    parts.table[row, SHAPE:SHAPE + 2] = 1 << 32


def _dim_past_ndim(parts):
    row = int(np.flatnonzero(parts.table[:, NDIM] == 1)[0])
    parts.table[row, SHAPE + 1] = 5


def _ndim_past_the_table(parts):
    parts.table[0, NDIM] = parts.table.shape[1] - SHAPE + 1


def _code_past_the_vocabulary(parts):
    parts.table[0, CODE] = len(parts.dtypes)


def _vocabulary(position, dtype):
    def edit(parts):
        parts.dtypes[position] = dtype
    return edit


def _duplicate_key(parts):
    parts.keys[1] = parts.keys[0]


def _drop_key(parts):
    parts.keys.pop()


def _extra_key(parts):
    parts.keys.append("model.extra")


def _narrow_table(parts):
    parts.table = np.ascontiguousarray(parts.table[:, :NDIM])


def _float_table(parts):
    parts.table = parts.table.astype(np.float64)


def _int16_payload(parts):
    parts.payload = parts.payload.astype(np.int16)


HOSTILE_V4 = {
    "misaligned-offset": _cell(1, OFFSET, 72),
    "overlapping-offsets": _cell(1, OFFSET, 0),
    "negative-offset": _cell(0, OFFSET, -_ALIGN),
    "offset-past-payload": _payload_end,
    "shape-past-payload": _cell(-1, SHAPE, 1 << 40),
    "wrapping-shape": _wrapping_shape,
    "negative-dim": _cell(0, SHAPE, -1),
    "dim-past-ndim": _dim_past_ndim,
    "ndim-wider-than-table": _ndim_past_the_table,
    "negative-ndim": _cell(0, NDIM, -1),
    "dtype-code-out-of-range": _code_past_the_vocabulary,
    "negative-dtype-code": _cell(0, CODE, -1),
    "unknown-order": _cell(0, ORDER, 2),
    "object-dtype": _vocabulary(0, "|O"),
    "structured-object-dtype": _vocabulary(0, "f8,O"),
    "not-a-dtype": _vocabulary(0, "nosuchtype"),
    "duplicate-keys": _duplicate_key,
    "fewer-keys-than-rows": _drop_key,
    "more-keys-than-rows": _extra_key,
    "table-narrower-than-its-fixed-columns": _narrow_table,
    "float-table": _float_table,
    "int16-payload": _int16_payload,
}


def test_repacking_v4_without_an_edit_loads(tmp_path, packed, hss_model):
    """The harness of the hostile rows writes loadable archives."""
    path = str(tmp_path / "model.npz")
    _repack_v4(packed, path)
    assert np.array_equal(load_model(path).weights_, hss_model.weights_)


@pytest.mark.parametrize("name", sorted(HOSTILE_V4))
def test_hostile_v4_index_raises_artifact_error(tmp_path, packed, name):
    path = str(tmp_path / "model.npz")
    _repack_v4(packed, path, edit=HOSTILE_V4[name])
    _assert_hostile(path, "malformed index")


@pytest.mark.parametrize("member", [_KEYS_KEY, _INDEX_KEY, _PAYLOAD_KEY])
def test_one_flipped_byte_fails_the_v4_checksum(tmp_path, packed, member):
    path = str(tmp_path / "model.npz")
    _repack_v4(packed, path, flip=member)
    _assert_hostile(path, "checksum")


def test_renamed_key_fails_the_v4_checksum(tmp_path, packed):
    path = str(tmp_path / "model.npz")
    _repack_v4(packed, path)
    with np.load(path) as npz:
        members = {key: npz[key] for key in npz.files}
    members[_KEYS_KEY] = np.frombuffer(bytes(members[_KEYS_KEY]).replace(
        b"hss.n_nodes", b"hss.n_nodez"), dtype=np.uint8)
    np.savez(path, **members)
    _assert_hostile(path, "checksum")


def test_missing_v4_member(tmp_path, packed):
    path = str(tmp_path / "model.npz")
    with np.load(packed) as npz:
        members = {key: npz[key] for key in npz.files if key != _KEYS_KEY}
    np.savez(path, **members)
    with pytest.raises(ArtifactError):
        load_model(path)
    _assert_header_read(path, header_survives=True)


# ------------------------------------------------ inconsistent payloads
def _without(key):
    def edit(arrays):
        del arrays[key]
    return edit


def _one_row_short(key):
    def edit(arrays):
        arrays[key] = arrays[key][:-1]
    return edit


#: payload edits that leave a well-formed, checksummed archive whose
#: arrays do not make a model (node 3 is an internal non-root node)
INCONSISTENT = {
    "missing-transfer-matrix": _without("hss.3.U"),
    "missing-ulv-node-factor": _without("ulv.3.w"),
    "wrong-shaped-transfer-matrix": _one_row_short("hss.3.U"),
}


@pytest.mark.parametrize("name", sorted(INCONSISTENT))
def test_inconsistent_hss_payload_raises_artifact_error(tmp_path, packed,
                                                        name):
    """Re-packed through the library's own writer, so the checksum holds
    and only the restore step can tell."""
    header, arrays = _read_archive(packed)
    arrays = dict(arrays)
    INCONSISTENT[name](arrays)
    path = str(tmp_path / "model.npz")
    _write_archive(path, header, arrays)
    with pytest.raises(ArtifactError, match="corrupted HSS / ULV payload"):
        load_model(path)


#: header edits that leave a checksummed archive whose recipe cannot
#: rebuild the stored solver
BAD_RECIPES = {
    "state-of-another-solver": ({"shards": 2}, "does not fit"),
    "unknown-compression-option": (
        {"solver_options": {"hss_options": {"tolerance": 0.1}}},
        "invalid model configuration"),
}


@pytest.mark.parametrize("name", sorted(BAD_RECIPES))
def test_a_recipe_that_cannot_rebuild_the_solver_raises_artifact_error(
        tmp_path, packed, name):
    """The header's recipe builds the solver the stored state is attached
    to; one that builds another solver, or none, fails the load, typed."""
    edit, message = BAD_RECIPES[name]
    header, arrays = _read_archive(packed)
    path = str(tmp_path / "model.npz")
    _write_archive(path, {**header, "config": {**header["config"], **edit}},
                   arrays)
    with pytest.raises(ArtifactError, match=message):
        load_model(path)


@pytest.mark.parametrize("kwargs", [dict(solver="hss"),
                                    dict(solver="hss", shards=2)],
                         ids=["hss", "shards2"])
def test_saved_hss_is_the_symmetric_format(tmp_path, susy, kwargs):
    """Version 7 stores ``D``, ``U`` and ``B12`` per HSS node and
    ``omega``, ``u_hat``, ``lu``, ``piv`` and ``w`` per ULV node, with no
    root keys and no λ-free marker, in the serial and in every per-shard
    section."""
    model = _fit(susy, **kwargs)
    try:
        path = str(tmp_path / "model.npz")
        artifact = model.save(path)
        assert artifact.version == FORMAT_VERSION == 8
        assert "hss_lam_free" not in artifact.config
    finally:
        if hasattr(model.solver_, "close"):
            model.solver_.close()
    _, arrays = _read_archive(path)
    hss_keys = [key for key in arrays
                if key.startswith("hss.") or ".hss." in key]
    fields = {key.rpartition(".")[2] for key in hss_keys} - {"n_nodes"}
    assert fields == {"D", "U", "B12"}
    assert "dist.lam_free" not in arrays
    ulv_keys = [key for key in arrays
                if key.startswith("ulv.") or ".ulv." in key]
    fields = {key.rpartition(".")[2] for key in ulv_keys}
    assert fields == {"meta", "omega", "u_hat", "lu", "piv", "w"}
    assert any(key.startswith("dist.") for key in arrays) == (
        "shards" in kwargs)


# -------------------------------------------- version 3: JSON list index
def _repack(source, target, edit):
    """Rewrite a version-3 archive with ``edit(index, payload)`` applied —
    a well-formed zip with fresh CRCs, so only the library's own checks
    stand between the edit and an array (the per-array checksum of
    version 3 covers no offset, order or padding)."""
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


def test_repacking_without_an_edit_loads(tmp_path):
    """The harness of the hostile version-3 rows writes loadable archives."""
    path = str(tmp_path / "model.npz")
    _repack(V3, path, lambda index, payload: None)
    assert read_artifact(path).version == 3
    assert np.array_equal(load_model(path).weights_,
                          load_model(V3).weights_)


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_index_raises_artifact_error(tmp_path, name):
    edit, message = HOSTILE[name]
    path = str(tmp_path / "model.npz")
    _repack(V3, path, edit)
    _assert_hostile(path, message)


def test_index_that_is_not_json(tmp_path):
    path = str(tmp_path / "model.npz")
    with np.load(V3) as npz:
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
    past the key list and the index, inside the payload."""

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

"""Versioned, checksummed binary serialization of trained models.

The expensive artifacts of the pipeline — the cluster tree, the compressed
HSS representation, its ULV factorization and the fitted classifier weights
— are all collections of plain NumPy arrays plus a small amount of scalar
configuration.  They are persisted as a single ``.npz`` archive (no code is
ever pickled, so artifacts are safe to load from untrusted storage and
stable across library versions) together with a JSON header describing the
payload:

* every array has a dotted hierarchical key (``tree.perm``, ``hss.7.D``,
  ``ulv.3.omega``, ``model.weights``); the archive holds four members
  whatever the tree size — the header, a key list (the keys plus a dtype
  vocabulary, as one string), an ``int64`` index table (dtype code,
  memory order, ndim, byte offset and shape per array) and one ``uint8``
  payload every array is a view into,
* the header records a format tag, a schema version, the model kind, the
  scalar configuration (kernel name and parameters, ``h``, ``lambda``,
  solver) and a SHA-256 checksum over the key list, the index table and
  the payload,
* the checksum is verified on load, so a truncated or corrupted artifact
  raises :class:`ArtifactError` instead of silently mispredicting.

Round-trip fidelity is exact: float64 arrays survive ``save``/``load``
bitwise, so a reloaded classifier reproduces the original's predictions
down to the last bit.

Schema history (full layout spec in ``docs/serving.md``):

* **version 1** — trees / HSS / ULV / weights; solver states ``hss``,
  ``dense``, ``cg``, ``none``.
* **version 2** — adds the sharded-artifact section: models trained with
  ``shards > 1`` persist their per-shard ULV factors and coupling state
  under ``dist.*`` (solver state ``sharded``), restoring to an in-process
  :class:`repro.distributed.ShardedULVSolver` with full re-solve
  capability.
* **version 3** — the packed container: the same keys and arrays, but
  one payload member plus an index instead of one zip member per array
  (7 084 members for a 531-node tree made a reload cost 60 % of a cold
  fit).  Versions 1 and 2 remain readable, the reader picking the
  container from the header's version.
* **version 4** — the columnar index: the JSON list of version 3 (one
  entry per array, decoded and checked in a Python step each) becomes the
  key list plus one ``int64`` table the reader checks with vectorised
  NumPy, and the per-array checksum (two ``update`` calls per array)
  becomes one SHA-256 over the other three members, verified in three
  ``update`` calls whatever the number of arrays.  The
  keys, dtypes, shapes and bytes of the arrays are those of version 3.
  Written for every model; versions 1-3 remain readable and keep their
  per-array checksum.

Since the compress-once/refit-many split, artifacts additionally carry the
λ-free compression (the stored ``hss.*`` / ``dist.*.hss.*`` generators no
longer bake the ridge shift in — flagged by the ``hss_lam_free`` config
key and the ``dist.lam_free`` marker) plus the permuted training targets
(``model.y_perm`` / ``model.targets``), so a reloaded model can be
re-factored at a new λ entirely offline via ``model.refit(lam)``.  Both
additions are backward compatible: old readers ignore the extra keys, and
artifacts from old writers load fine but refuse ``refit`` (their
compression is not λ-free).

The header's ``clustering_options`` config entry records every field of
the :class:`repro.config.ClusteringOptions` the model was fitted with, so
``recompress()`` after a load reorders exactly like the original fit.
Headers without it (older writers) fall back to the method name plus the
stored ``leaf_size`` and ``seed``, with the other fields at their defaults.
"""

from __future__ import annotations

import contextlib
import datetime
import hashlib
import json
import math
import os
import uuid
import zipfile
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..clustering.api import ClusteringResult
from ..clustering.tree import ClusterTree
from ..config import ClusteringOptions
from ..hss.generators import HSSNodeData
from ..hss.hss_matrix import HSSMatrix
from ..hss.ulv import ULVFactorization, _NodeFactors
from ..kernels.base import Kernel, get_kernel
from ..krr.classifier import KernelRidgeClassifier
from ..krr.multiclass import OneVsAllClassifier
from ..krr.solvers import CGSolver, DenseSolver, HSSSolver, KernelSystemSolver
from ..obs.tracing import trace
from ..utils.timing import TimingLog

#: format tag written into every artifact header
FORMAT_TAG = "repro.serving/model"
#: schema version this library writes, and the highest it reads (4 is the
#: columnar index; 3 indexed the same payload with JSON, and 1 and 2 stored
#: one zip member per array — see docs/serving.md)
FORMAT_VERSION = 4

KIND_BINARY = "kernel_ridge_classifier"
KIND_MULTICLASS = "one_vs_all_classifier"
#: archive key of the permuted training targets, per model kind
_TARGETS_KEY = {KIND_BINARY: "model.y_perm", KIND_MULTICLASS: "model.targets"}


class ArtifactError(RuntimeError):
    """Raised when an artifact is missing, corrupted or incompatible."""


@dataclass
class ModelArtifact:
    """Self-describing metadata of one persisted model.

    Attributes
    ----------
    path:
        Location of the ``.npz`` archive on disk.
    kind:
        Model kind tag (:data:`KIND_BINARY` or :data:`KIND_MULTICLASS`).
    version:
        Schema version the artifact was written with.
    created:
        ISO-8601 UTC timestamp of the save.
    checksum:
        SHA-256 hex digest over the key list, index table and payload
        (versions 1-3: over every array's key, dtype, shape and bytes).
    config:
        Scalar model configuration (kernel, ``h``, ``lambda``, solver, ...).
    metadata:
        Free-form user metadata attached at save time (dataset name,
        accuracy, memory, ... — see :class:`repro.serving.ModelStore`).
    """

    path: str
    kind: str
    version: int = FORMAT_VERSION
    created: str = ""
    checksum: str = ""
    config: Dict[str, object] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        """Size of the archive on disk in bytes."""
        return os.path.getsize(self.path)

    def describe(self) -> str:
        """One-line human readable summary."""
        return (f"{self.kind} [{self.checksum[:12]}] "
                f"h={self.config.get('h')} lam={self.config.get('lam')} "
                f"solver={self.config.get('solver')} ({self.nbytes} bytes)")


# --------------------------------------------------------------------------
# array-level round trips
# --------------------------------------------------------------------------

def tree_to_arrays(tree: ClusterTree, prefix: str = "tree.") -> Dict[str, np.ndarray]:
    """Flatten a :class:`ClusterTree` into a dictionary of arrays."""
    return {
        f"{prefix}perm": np.asarray(tree.perm, dtype=np.int64),
        f"{prefix}nodes": tree.node_table(),
        f"{prefix}root": np.array([tree.root], dtype=np.int64),
    }


def tree_from_arrays(arrays: Dict[str, np.ndarray], prefix: str = "tree.") -> ClusterTree:
    """Rebuild a :class:`ClusterTree` from :func:`tree_to_arrays` output."""
    try:
        perm = np.asarray(arrays[f"{prefix}perm"], dtype=np.intp)
        node_table = np.asarray(arrays[f"{prefix}nodes"], dtype=np.int64)
        root = int(arrays[f"{prefix}root"][0])
    except KeyError as exc:
        raise ArtifactError(f"artifact is missing cluster-tree array {exc}") from exc
    return ClusterTree.from_node_table(perm, node_table, root)


#: HSSNodeData array attributes persisted per node
_HSS_FIELDS = ("D", "U", "V", "B12", "B21", "row_skeleton", "col_skeleton")


def hss_to_arrays(hss: HSSMatrix, prefix: str = "hss.") -> Dict[str, np.ndarray]:
    """Flatten the per-node generators of an :class:`HSSMatrix`.

    The partition tree is *not* included; serialize it separately with
    :func:`tree_to_arrays` (the classifier artifact stores it once and
    shares it between the clustering result and the HSS matrix).
    """
    out: Dict[str, np.ndarray] = {
        f"{prefix}n_nodes": np.array([len(hss.node_data)], dtype=np.int64)}
    for i, data in enumerate(hss.node_data):
        for name in _HSS_FIELDS:
            a = getattr(data, name)
            if a is not None:
                out[f"{prefix}{i}.{name}"] = np.asarray(a)
    return out


def hss_from_arrays(arrays: Dict[str, np.ndarray], tree: ClusterTree,
                    prefix: str = "hss.") -> HSSMatrix:
    """Rebuild an :class:`HSSMatrix` over ``tree`` from flattened arrays."""
    key = f"{prefix}n_nodes"
    if key not in arrays:
        raise ArtifactError("artifact does not contain an HSS matrix")
    n_nodes = int(arrays[key][0])
    if n_nodes != tree.n_nodes:
        raise ArtifactError(
            f"HSS payload has {n_nodes} nodes but the tree has {tree.n_nodes}")
    node_data: List[HSSNodeData] = []
    for i in range(n_nodes):
        kwargs = {}
        for name in _HSS_FIELDS:
            a = arrays.get(f"{prefix}{i}.{name}")
            if a is not None and name in ("row_skeleton", "col_skeleton"):
                a = np.asarray(a, dtype=np.intp)
            kwargs[name] = a
        node_data.append(HSSNodeData(**kwargs))
    return HSSMatrix(tree, node_data)


#: _NodeFactors array attributes persisted per node
_ULV_FIELDS = ("omega", "q", "lower", "d_hat1", "d_hat2", "u_hat", "g1", "g2")


def ulv_to_arrays(ulv: ULVFactorization, prefix: str = "ulv.") -> Dict[str, np.ndarray]:
    """Flatten a :class:`ULVFactorization` (factors + root LU) into arrays."""
    factors = ulv._factors
    meta = np.array([[f.n_loc, f.n_elim] for f in factors], dtype=np.int64)
    out: Dict[str, np.ndarray] = {
        f"{prefix}meta": meta,
        f"{prefix}root_size": np.array([ulv._root_size], dtype=np.int64),
    }
    if ulv._root_lu is not None:
        out[f"{prefix}root_lu"] = np.asarray(ulv._root_lu[0])
        out[f"{prefix}root_piv"] = np.asarray(ulv._root_lu[1], dtype=np.int64)
    for i, fac in enumerate(factors):
        for name in _ULV_FIELDS:
            a = getattr(fac, name)
            if a is not None:
                out[f"{prefix}{i}.{name}"] = np.asarray(a)
    return out


def ulv_from_arrays(arrays: Dict[str, np.ndarray], hss: HSSMatrix,
                    prefix: str = "ulv.") -> ULVFactorization:
    """Rebuild a :class:`ULVFactorization` without re-factoring.

    The factors are restored exactly as saved, so subsequent
    :meth:`~repro.hss.ULVFactorization.solve` calls are bitwise identical
    to the original factorization's solves.
    """
    key = f"{prefix}meta"
    if key not in arrays:
        raise ArtifactError("artifact does not contain a ULV factorization")
    meta = np.asarray(arrays[key], dtype=np.int64)
    if meta.shape[0] != hss.tree.n_nodes:
        raise ArtifactError(
            f"ULV payload has {meta.shape[0]} nodes but the tree has "
            f"{hss.tree.n_nodes}")
    factors: List[_NodeFactors] = []
    for i, (n_loc, n_elim) in enumerate(meta):
        fac = _NodeFactors(n_loc=int(n_loc), n_elim=int(n_elim))
        for name in _ULV_FIELDS:
            a = arrays.get(f"{prefix}{i}.{name}")
            if a is not None:
                setattr(fac, name, np.asarray(a, dtype=np.float64))
        factors.append(fac)
    ulv = ULVFactorization.__new__(ULVFactorization)
    ulv.hss = hss
    ulv.timing = TimingLog()
    ulv._factors = factors
    ulv._root_size = int(arrays[f"{prefix}root_size"][0])
    if f"{prefix}root_lu" in arrays:
        ulv._root_lu = (np.asarray(arrays[f"{prefix}root_lu"], dtype=np.float64),
                        np.asarray(arrays[f"{prefix}root_piv"], dtype=np.int32))
    else:
        ulv._root_lu = None
    return ulv


# --------------------------------------------------------------------------
# kernel round trip
# --------------------------------------------------------------------------

def kernel_to_spec(kernel: Kernel) -> Dict[str, object]:
    """JSON-serializable description of a kernel (name + scalar parameters)."""
    name = type(kernel).name
    if name == "linear":  # LinearKernel's constructor takes no parameters
        return {"name": name, "params": {}}
    params = {}
    for k, v in kernel.__dict__.items():
        if isinstance(v, (bool, int, float, str)) or v is None:
            params[k] = v
        elif isinstance(v, np.generic):
            params[k] = v.item()
        else:
            raise ArtifactError(
                f"kernel parameter {k!r} of {type(kernel).__name__} is not a "
                f"scalar and cannot be serialized")
    spec = {"name": name, "params": params}
    # Fail at save time, not load time: a kernel whose __init__ caches
    # derived attributes (e.g. self._inv2 = 1/h**2) would otherwise
    # produce an artifact that get_kernel can never reconstruct.
    try:
        kernel_from_spec(spec)
    except Exception as exc:
        raise ArtifactError(
            f"kernel {type(kernel).__name__} cannot be reconstructed from "
            f"its scalar attributes ({exc}); its constructor must accept "
            f"exactly the parameters it stores") from exc
    return spec


def kernel_from_spec(spec: Dict[str, object]) -> Kernel:
    """Instantiate a kernel from :func:`kernel_to_spec` output."""
    return get_kernel(str(spec["name"]), **dict(spec.get("params") or {}))


# --------------------------------------------------------------------------
# archive plumbing
# --------------------------------------------------------------------------

_HEADER_KEY = "__artifact__"
_KEYS_KEY = "__keys__"
_INDEX_KEY = "__index__"
_PAYLOAD_KEY = "__payload__"
#: every array starts at a multiple of this many bytes inside the payload
_ALIGN = 64
#: newest schema version that stored one zip member per array
_LAST_PER_MEMBER_VERSION = 2
#: the one schema version whose index was a JSON list (and whose checksum
#: was the per-array one of the per-member versions)
_JSON_INDEX_VERSION = 3
#: memory orders, by their code in the index table
_ORDERS = "CF"
#: leading columns of an index-table row; the shape fills the rest
_FIXED_COLUMNS = 4
#: padding source: a gap before an array is always shorter than _ALIGN
_ZEROS = memoryview(bytes(_ALIGN))


def _legacy_checksum(arrays: Dict[str, np.ndarray]) -> str:
    """Versions 1-3: SHA-256 over every array's key, dtype, shape and raw
    bytes, in sorted key order."""
    digest = hashlib.sha256()
    for key in sorted(arrays):
        a = np.ascontiguousarray(arrays[key])
        digest.update(f"{key}|{a.dtype.str}|{a.shape}".encode("utf-8"))
        digest.update(a)  # the C-ordered buffer itself
    return digest.hexdigest()


def _memory_bytes(a: np.ndarray):
    """Memory order of ``a`` and its buffer as a flat ``uint8`` view.

    Contiguous arrays are not copied and keep their order: BLAS picks its
    kernel by layout, so the order is part of the bitwise reload contract
    (``.npy`` keeps it too, as ``fortran_order``).  Anything else is
    stored C-ordered.
    """
    if a.flags.c_contiguous:
        return 0, a.reshape(-1).view(np.uint8)
    if a.flags.f_contiguous:
        return 1, a.T.reshape(-1).view(np.uint8)
    return 0, np.ascontiguousarray(a).reshape(-1).view(np.uint8)


def _write_member(zf: zipfile.ZipFile, key: str, array: np.ndarray,
                  compress_type: int = zipfile.ZIP_STORED) -> None:
    """``array`` as the ``.npy`` member ``key``."""
    info = zipfile.ZipInfo(key + ".npy")
    info.compress_type = compress_type
    with zf.open(info, "w", force_zip64=True) as member:
        np.lib.format.write_array(member, array, allow_pickle=False)


def _layout(arrays: Dict[str, np.ndarray]):
    """The key list, the index table and ``(offset, bytes)`` per array."""
    dtypes: Dict[str, int] = {}
    rows, chunks, end = [], [], 0
    for key, a in arrays.items():
        if "\n" in key:
            raise ArtifactError(f"array key {key!r} contains a newline")
        a = np.asarray(a)
        order, raw = _memory_bytes(a)
        offset = -(-end // _ALIGN) * _ALIGN
        code = dtypes.setdefault(a.dtype.str, len(dtypes))
        rows.append([code, order, a.ndim, offset, *a.shape])
        chunks.append((offset, raw))
        end = offset + raw.size
    width = max((len(row) for row in rows), default=_FIXED_COLUMNS)
    table = np.array([row + [0] * (width - len(row)) for row in rows],
                     dtype="<i8").reshape(len(rows), width)
    keys = "\n".join([" ".join(dtypes), *arrays]).encode("utf-8")
    return np.frombuffer(keys, dtype=np.uint8), table, chunks, end


def _write_archive(path: str, header: Dict[str, object],
                   arrays: Dict[str, np.ndarray]) -> None:
    """Write a version-4 archive; stamps its checksum into ``header``."""
    keys, table, chunks, end = _layout(arrays)
    digest = _digest(keys, table)  # the payload joins it as it is written
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # Write to a temp file of our own and publish atomically: saving over
    # an existing artifact never leaves a truncated archive behind if the
    # process dies mid-write, and the data is on disk before the name is.
    tmp_path = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp_path, "xb") as fh:
            with zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED) as zf:
                _write_member(zf, _KEYS_KEY, keys, zipfile.ZIP_DEFLATED)
                _write_member(zf, _INDEX_KEY, table, zipfile.ZIP_DEFLATED)
                # Each buffer goes straight into the member and the digest;
                # staging the payload first would hold a second copy of
                # the model.
                with zf.open(_PAYLOAD_KEY + ".npy", "w",
                             force_zip64=True) as member:
                    np.lib.format.write_array_header_1_0(
                        member, {"descr": "|u1", "fortran_order": False,
                                 "shape": (end,)})
                    pos = 0
                    for offset, raw in chunks:
                        if offset > pos:
                            member.write(_ZEROS[:offset - pos])
                            digest.update(_ZEROS[:offset - pos])
                        member.write(raw)
                        digest.update(raw)
                        pos = offset + raw.size
                # The header goes last: it carries the digest of the rest.
                header["checksum"] = digest.hexdigest()
                raw_header = json.dumps(header, sort_keys=True).encode("utf-8")
                _write_member(zf, _HEADER_KEY,
                              np.frombuffer(raw_header, dtype=np.uint8))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp_path)
        raise


def _digest(*members: np.ndarray):
    """SHA-256 over the bytes of ``members``, in order: the key list, the
    index table and the payload make the version-4 checksum."""
    digest = hashlib.sha256()
    for member in members:
        digest.update(np.ascontiguousarray(member))
    return digest


def _check_members(keys: np.ndarray, table: np.ndarray,
                   payload: np.ndarray) -> None:
    """The three index and payload members have the types the spec says."""
    for name, member, ndim, dtype in ((_KEYS_KEY, keys, 1, "|u1"),
                                      (_INDEX_KEY, table, 2, "<i8"),
                                      (_PAYLOAD_KEY, payload, 1, "|u1")):
        if member.ndim != ndim or member.dtype.str != dtype:
            raise ValueError(f"{name} is a {member.ndim}-d {member.dtype.str} "
                             f"array, not {ndim}-d {dtype}")


def _unpack(keys_raw: np.ndarray, table: np.ndarray,
            payload: np.ndarray) -> Dict[str, np.ndarray]:
    """The arrays of a version-4 archive, as writable views into ``payload``.

    The index comes from outside the program: the whole table is checked
    against the key list and the payload, column by column, before the
    first view is made, so a torn or hand-crafted index raises and never
    yields an array.
    """
    vocabulary, *keys = bytes(keys_raw).decode("utf-8").split("\n")
    dtypes = [np.dtype(s) for s in vocabulary.split(" ")] if keys else []
    if any(dtype.hasobject for dtype in dtypes):
        raise ValueError(f"object dtype in {vocabulary!r}")
    if len(set(keys)) != len(keys):
        raise ValueError("duplicated key")
    if table.shape[0] != len(keys) or table.shape[1] < _FIXED_COLUMNS:
        raise ValueError(f"{len(keys)} keys for a table of shape "
                         f"{table.shape}")
    code, order, ndim, offset = table[:, :_FIXED_COLUMNS].T
    shape = table[:, _FIXED_COLUMNS:]
    if np.any((code < 0) | (code >= len(dtypes))):
        raise ValueError(f"dtype code outside 0..{len(dtypes) - 1}")
    if np.any((order < 0) | (order >= len(_ORDERS))):
        raise ValueError("memory order code outside 0..1")
    if np.any((ndim < 0) | (ndim > shape.shape[1])):
        raise ValueError(f"ndim outside 0..{shape.shape[1]}")
    used = np.arange(shape.shape[1]) < ndim[:, None]
    if np.any(shape < 0) or np.any(shape[~used]):
        raise ValueError("negative dimension or a dimension past ndim")
    dims = np.where(used, shape, 1)
    itemsize = np.array([d.itemsize for d in dtypes], dtype=np.int64)[code]
    # The size in float first: an int64 product of hostile dims can wrap.
    empty = np.any(dims == 0, axis=1)
    approx = np.prod(dims, axis=1, dtype=np.float64) * itemsize
    if np.any(~empty & (approx > payload.nbytes)) or np.any(
            offset > payload.nbytes):
        raise ValueError(f"an array ends past the {payload.nbytes}-byte "
                         f"payload")
    end = offset + np.where(empty, 0, np.prod(dims, axis=1)) * itemsize
    # Aligned, ascending offsets: no two (writable) views share bytes.
    if np.any((offset < 0) | (offset % _ALIGN != 0)):
        raise ValueError(f"an offset is negative or not a multiple of "
                         f"{_ALIGN}")
    if np.any(offset[1:] < end[:-1]) or (len(keys) and end[-1] >
                                        payload.nbytes):
        raise ValueError("arrays overlap or end past the payload")
    # Positional arguments and tuple shapes: this loop is most of a load.
    return {key: np.ndarray(tuple(extent[:n]), dtypes[c], payload, o, None,
                            _ORDERS[f])
            for key, (c, f, n, o, *extent) in zip(keys, table.tolist())}


def _unpack_json_index(index_raw: np.ndarray,
                       payload: np.ndarray) -> Dict[str, np.ndarray]:
    """The arrays of a version-3 archive (a JSON list of index entries),
    every entry checked against the payload before its view is made."""
    index = json.loads(bytes(index_raw).decode("utf-8"))
    arrays: Dict[str, np.ndarray] = {}
    end = 0
    for entry in index:
        key, offset = entry["key"], entry["offset"]
        dtype, shape = np.dtype(str(entry["dtype"])), entry["shape"]
        if not isinstance(key, str) or key in arrays:
            raise ValueError(f"key {key!r} is duplicated or not a string")
        if dtype.hasobject:
            raise ValueError(f"{key!r} has object dtype {dtype}")
        if any(type(n) is not int or n < 0 for n in shape):
            raise ValueError(f"{key!r} has shape {shape}")
        # Ascending offsets: no two (writable) views share bytes.
        if type(offset) is not int or offset < end or offset % _ALIGN:
            raise ValueError(f"{key!r} has offset {offset}")
        end = offset + dtype.itemsize * math.prod(shape)
        if end > payload.nbytes:
            raise ValueError(
                f"{key!r} ends at byte {end} of a {payload.nbytes}-byte "
                f"payload")
        arrays[key] = np.ndarray(shape, dtype=dtype, buffer=payload,
                                 offset=offset, order=entry["order"])
    return arrays


@contextlib.contextmanager
def _open_archive(path: str):
    """The archive as an ``NpzFile``; whatever fails while it is open —
    here or in the caller's ``with`` body — leaves as :class:`ArtifactError`.
    """
    if not os.path.exists(path):
        raise ArtifactError(f"model artifact {path!r} does not exist")
    try:
        with np.load(path, allow_pickle=False) as npz:
            yield npz
    except ArtifactError:
        raise
    except Exception as exc:
        # A truncated / bit-flipped archive can fail in many layers
        # (zipfile, the npy reader, zlib); all of them mean "corrupted".
        raise ArtifactError(f"cannot read model artifact {path!r}: {exc}") from exc


def read_artifact(path: str) -> ModelArtifact:
    """Read and validate only the header of an artifact (cheap).

    Only the small JSON header member is read — the same member in every
    container version; the index and the array payload (which may be
    hundreds of MB) are not touched, so this is safe to call when listing
    large model catalogs.
    """
    with _open_archive(path) as npz:
        header = _read_header(path, npz)
    return _artifact_from_header(path, header)


def _read_header(path: str, npz) -> Dict[str, object]:
    """Decode the JSON header member; validate format tag / schema version."""
    if _HEADER_KEY not in npz.files:
        raise ArtifactError(
            f"{path!r} is not a repro model artifact (no header)")
    try:
        header = json.loads(bytes(npz[_HEADER_KEY]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"{path!r} has a corrupted header: {exc}") from exc
    if header.get("format") != FORMAT_TAG:
        raise ArtifactError(
            f"{path!r} has format tag {header.get('format')!r}, "
            f"expected {FORMAT_TAG!r}")
    header["version"] = int(header.get("version", -1))
    if header["version"] > FORMAT_VERSION:
        raise ArtifactError(
            f"{path!r} was written with schema version {header['version']}; "
            f"this library only reads versions <= {FORMAT_VERSION}")
    return header


def _artifact_from_header(path: str, header: Dict[str, object]) -> ModelArtifact:
    return ModelArtifact(
        path=os.path.abspath(path),
        kind=str(header.get("kind", "")),
        version=int(header.get("version", -1)),
        created=str(header.get("created", "")),
        checksum=str(header.get("checksum", "")),
        config=dict(header.get("config") or {}),
        metadata=dict(header.get("metadata") or {}),
    )


def _read_archive(path: str):
    """The ``(header, arrays)`` of the archive at ``path``, checksum verified."""
    with _open_archive(path) as npz:
        header = _read_header(path, npz)
        version = header["version"]
        if version <= _LAST_PER_MEMBER_VERSION:
            arrays = {k: npz[k] for k in npz.files if k != _HEADER_KEY}
        elif version == _JSON_INDEX_VERSION:
            index, payload = npz[_INDEX_KEY], npz[_PAYLOAD_KEY]
            with _index_errors(path):
                arrays = _unpack_json_index(index, payload)
        else:
            members = npz[_KEYS_KEY], npz[_INDEX_KEY], npz[_PAYLOAD_KEY]
            with _index_errors(path):
                _check_members(*members)
                _verify(path, header, _digest(*members).hexdigest())
                return header, _unpack(*members)
    _verify(path, header, _legacy_checksum(arrays))
    return header, arrays


@contextlib.contextmanager
def _index_errors(path: str):
    """A torn or hand-crafted index leaves as :class:`ArtifactError`."""
    try:
        yield
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"{path!r} has a corrupted index: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"{path!r} has a malformed index: {exc}") from exc


def _verify(path: str, header: Dict[str, object], actual: str) -> None:
    expected = header.get("checksum")
    if expected != actual:
        raise ArtifactError(
            f"{path!r} failed checksum verification (stored "
            f"{str(expected)[:12]}..., computed {actual[:12]}...); the "
            f"artifact is corrupted or was modified")


# --------------------------------------------------------------------------
# fitted classifier <-> artifact
# --------------------------------------------------------------------------

def _json_safe_seed(seed) -> Optional[object]:
    return seed if isinstance(seed, (bool, int, float, str, type(None))) else None


def _stream_arrays(solver: KernelSystemSolver) -> Dict[str, np.ndarray]:
    """Streaming-state section (``stream.*``) of a solver with live
    Woodbury corrections; empty when the solver never streamed (or the
    corrections net out to nothing).  The stored base factors describe
    ``stream.X_base``; ``stream.kept`` + ``stream.X_add`` rebuild the
    effective training set on load."""
    stream = getattr(solver, "stream", None)
    if stream is None or not stream.active:
        return {}
    return {
        "stream.kept": np.asarray(stream.kept_indices, dtype=np.int64),
        "stream.X_add": np.asarray(stream.state_arrays()["X_add"],
                                   dtype=np.float64),
        "stream.X_base": np.asarray(stream.X_base, dtype=np.float64),
    }


def _solver_arrays(solver: Optional[KernelSystemSolver],
                   include_factorization: bool):
    """Per-solver persisted state: (state tag, extra config, arrays)."""
    if solver is None or not include_factorization:
        return "none", {}, {}
    stream_arrays = _stream_arrays(solver)
    stream_cfg = {"streaming": True} if stream_arrays else {}
    if isinstance(solver, HSSSolver) and solver.hss_ is not None:
        arrays = hss_to_arrays(solver.hss_)
        if solver.factorization_ is not None:
            arrays.update(ulv_to_arrays(solver.factorization_))
        arrays.update(stream_arrays)
        # Whether the stored generators are λ-free (current trainers) or
        # carry the baked-in shift (legacy artifacts); refit() consults
        # this so it never double-shifts an old compression.
        lam_free = bool(getattr(solver, "_hss_lam_free", False))
        return "hss", {"hss_lam_free": lam_free, **stream_cfg}, arrays
    if isinstance(solver, DenseSolver) and hasattr(solver, "_cho"):
        c, lower = solver._cho
        arrays = {"solver.cho_c": np.asarray(c)}
        arrays.update(stream_arrays)
        return "dense", {"cho_lower": bool(lower), **stream_cfg}, arrays
    if isinstance(solver, CGSolver):
        max_iter = solver.max_iter
        return "cg", {"cg_tol": solver.tol,
                      "cg_max_iter": None if max_iter is None else int(max_iter)}, {}
    # Lazy import: the distributed package depends on this module.
    from ..distributed.factors import ShardedULVSolver
    from ..distributed.solver import DistributedSolver
    factors = None
    if isinstance(solver, DistributedSolver):
        factors = solver.factors_
    elif isinstance(solver, ShardedULVSolver):  # re-save of a loaded model
        # A failed λ-refit flips _fitted off and may leave the factors
        # with shards at mixed λ; persist no factorization in that case
        # rather than an inconsistent one.
        factors = solver.factors if solver._fitted else None
    if factors is not None:
        arrays = factors.to_arrays(prefix="dist.")
        arrays.update(stream_arrays)
        return ("sharded",
                {"shards": int(factors.plan.n_shards), **stream_cfg},
                arrays)
    return "none", {}, {}


def _attach_stream(solver: KernelSystemSolver, config: Dict[str, object],
                   arrays: Dict[str, np.ndarray], tree: ClusterTree,
                   X_train: np.ndarray, kernel: Kernel) -> KernelSystemSolver:
    """Reattach the streaming layer of a restored solver.

    Every factor-carrying restored solver gets its fit context back so
    ``partial_fit`` / ``refit`` / ``refit_kernel`` work offline on
    reloaded artifacts; artifacts saved with live corrections
    (``streaming`` config flag) additionally rehydrate the correction
    state, with the base factors — and therefore the context — applying
    to the stored ``stream.X_base`` rather than the effective training
    set.
    """
    if not getattr(solver, "_fitted", False):
        return solver
    if config.get("streaming"):
        try:
            X_base = np.asarray(arrays["stream.X_base"], dtype=np.float64)
            kept = np.asarray(arrays["stream.kept"], dtype=np.intp)
            X_add = np.asarray(arrays["stream.X_add"], dtype=np.float64)
        except KeyError as exc:
            raise ArtifactError(
                f"artifact flags streaming state but is missing {exc}"
            ) from exc
        solver._context = (X_base, tree, kernel)
        solver._ensure_stream().restore_state(kept, X_add)
    else:
        solver._context = (X_train, tree, kernel)
    return solver


def _restore_solver(config: Dict[str, object], arrays: Dict[str, np.ndarray],
                    tree: ClusterTree, X_train: np.ndarray, kernel: Kernel,
                    lam: float) -> Optional[KernelSystemSolver]:
    state = config.get("solver_state", "none")
    if state == "sharded":
        from ..distributed.factors import ShardedFactors, ShardedULVSolver
        try:
            factors = ShardedFactors.from_arrays(arrays, tree, prefix="dist.")
        except (KeyError, ValueError) as exc:
            raise ArtifactError(
                f"corrupted sharded-factor payload: {exc}") from exc
        solver = ShardedULVSolver(factors)
        solver.lam_ = lam
        return _attach_stream(solver, config, arrays, tree, X_train, kernel)
    if state == "hss":
        hss = hss_from_arrays(arrays, tree)
        solver = HSSSolver(seed=config.get("seed"))
        solver.hss_ = hss
        solver._hss_lam_free = bool(config.get("hss_lam_free", False))
        solver.compression_count = 1
        if "ulv.meta" in arrays:
            solver.factorization_ = ulv_from_arrays(arrays, hss)
        solver._fitted = solver.factorization_ is not None
        solver.lam_ = lam
        return _attach_stream(solver, config, arrays, tree, X_train, kernel)
    if state == "dense":
        solver = DenseSolver()
        solver._cho = (np.asarray(arrays["solver.cho_c"], dtype=np.float64),
                       bool(config.get("cho_lower", True)))
        solver._fitted = True
        solver.lam_ = lam
        # The λ-free kernel matrix is not persisted; refit() rebuilds it
        # lazily from the restored fit context.
        return _attach_stream(solver, config, arrays, tree, X_train, kernel)
    if state == "cg":
        max_iter = config.get("cg_max_iter")
        solver = CGSolver(tol=float(config.get("cg_tol", 1e-6)),
                          max_iter=None if max_iter is None else int(max_iter))
        # CG keeps no factorization: refit just rebuilds the (cheap)
        # matrix-free operator from the stored training points.
        solver.fit(X_train, tree, kernel, lam)
        return solver
    return None


def _model_config(model, include_factorization: bool):
    if model.clustering_ is None or model.weights_ is None:
        raise ArtifactError("only fitted models can be saved")
    solver = model.solver_
    solver_name = solver.name if solver is not None else str(model._solver_spec)
    state, solver_cfg, solver_arrays = _solver_arrays(solver, include_factorization)
    clustering = model.clustering_options
    config: Dict[str, object] = {
        "h": float(model.h),
        "lam": float(model.lam),
        "leaf_size": int(model.leaf_size),
        "seed": _json_safe_seed(model.seed),
        "clustering": model.clustering_.method,
        "clustering_options": {**asdict(clustering),
                               "seed": _json_safe_seed(clustering.seed)},
        "solver": solver_name,
        "solver_state": state,
        "kernel": kernel_to_spec(model.kernel),
    }
    config.update(solver_cfg)
    return config, solver_arrays


def save_model(model, path: str, metadata: Optional[Dict[str, object]] = None,
               include_factorization: bool = True) -> ModelArtifact:
    """Persist a fitted classifier to ``path`` (a single ``.npz`` file).

    Parameters
    ----------
    model:
        A fitted :class:`repro.krr.KernelRidgeClassifier` or
        :class:`repro.krr.OneVsAllClassifier`.
    path:
        Destination file; parent directories are created as needed.
    metadata:
        Free-form JSON-serializable metadata stored in the header
        (dataset name, accuracy, ... — ``repro train`` records its
        report row here through :class:`repro.serving.ModelStore`).
    include_factorization:
        If ``True`` (default) the solver's factorization (HSS generators +
        ULV factors, or the dense Cholesky factor) is stored too, so the
        loaded model can also solve for *new* right-hand sides.  Disable to
        get a minimal predict-only artifact.

    Returns
    -------
    ModelArtifact
        Header describing the written archive.
    """
    if isinstance(model, KernelRidgeClassifier):
        kind = KIND_BINARY
    elif isinstance(model, OneVsAllClassifier):
        kind = KIND_MULTICLASS
    else:
        raise ArtifactError(
            f"cannot serialize object of type {type(model).__name__}; expected "
            f"KernelRidgeClassifier or OneVsAllClassifier")

    with trace.span("artifact.save") as span:
        config, arrays = _model_config(model, include_factorization)
        arrays.update(tree_to_arrays(model.clustering_.tree))
        arrays["model.X_train"] = np.asarray(model.X_train_, dtype=np.float64)
        arrays["model.weights"] = np.asarray(model.weights_, dtype=np.float64)
        # Permuted training targets (when the model still holds them): with
        # the factorization included, a reloaded model can then refit() at
        # a new lambda entirely offline.
        if model._targets_perm is not None:
            arrays[_TARGETS_KEY[kind]] = np.asarray(model._targets_perm,
                                                    dtype=np.float64)
        if kind == KIND_MULTICLASS:
            classes = np.asarray(model.classes_)
            if classes.dtype == object:
                # Object arrays hold pointers, not data: nothing but pickle
                # could store them, and artifacts never carry pickles.
                raise ArtifactError(
                    "class labels have object dtype and cannot be serialized "
                    "without pickle; refit with numeric or fixed-width string "
                    "labels (e.g. y.astype(str))")
            arrays["model.classes"] = classes

        header = {
            "format": FORMAT_TAG,
            "version": FORMAT_VERSION,
            "kind": kind,
            "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "config": config,
            "metadata": dict(metadata or {}),
        }
        _write_archive(path, header, arrays)
        span.attributes.update(bytes=os.path.getsize(path),
                               arrays=len(arrays), version=FORMAT_VERSION)
    return _artifact_from_header(path, header)


def load_model(path: str):
    """Load a classifier saved by :func:`save_model`.

    The checksum is verified, arrays are restored bitwise and the solver
    state (HSS + ULV, dense Cholesky, CG operator, or the per-shard ULV
    factors of a sharded fit) is reattached, so the returned model
    predicts — and, when the factorization was included, solves — exactly
    like the original.  The arrays of the model are writable views into
    the archive's one payload buffer (for artifacts of schema version 3
    and later; older ones load one array per zip member).
    """
    with trace.span("artifact.load") as span:
        header, arrays = _read_archive(path)
        span.attributes.update(bytes=os.path.getsize(path),
                               arrays=len(arrays), version=header["version"])
        return _model_from_arrays(path, header, arrays)


def _model_from_arrays(path: str, header: Dict[str, object],
                       arrays: Dict[str, np.ndarray]):
    """The fitted classifier a verified ``(header, arrays)`` pair describes."""
    kind = header.get("kind")
    config = dict(header.get("config") or {})
    try:
        kernel = kernel_from_spec(config["kernel"])
        tree = tree_from_arrays(arrays)
        X_train = np.asarray(arrays["model.X_train"], dtype=np.float64)
        weights = np.asarray(arrays["model.weights"], dtype=np.float64)
        lam = float(config["lam"])

        clustering = str(config["clustering"])
        if "clustering_options" in config:
            clustering = ClusteringOptions(**config["clustering_options"])
        common = dict(h=float(config["h"]), lam=lam,
                      solver=str(config["solver"]),
                      clustering=clustering, kernel=kernel,
                      leaf_size=int(config["leaf_size"]),
                      seed=config.get("seed"))
        if kind == KIND_BINARY:
            model = KernelRidgeClassifier(**common)
        elif kind == KIND_MULTICLASS:
            model = OneVsAllClassifier(**common)
            model.classes_ = np.asarray(arrays["model.classes"])
        else:
            raise ArtifactError(f"{path!r} has unknown model kind {kind!r}")
    except KeyError as exc:
        raise ArtifactError(
            f"{path!r} is missing required entry {exc} and cannot be "
            f"loaded") from exc

    model.clustering_ = ClusteringResult(method=str(config["clustering"]),
                                         tree=tree, X=X_train)
    model.X_train_ = X_train
    model.weights_ = weights
    if _TARGETS_KEY[kind] in arrays:
        model._targets_perm = np.asarray(arrays[_TARGETS_KEY[kind]],
                                         dtype=np.float64)
    model.solver_ = _restore_solver(config, arrays, tree, X_train, kernel, lam)
    return model


def load_model_as(path: str, cls):
    """Load an artifact and check it contains an instance of ``cls``.

    Backs the classifiers' ``.load()`` classmethods so the
    type-check-and-raise logic lives in one place.
    """
    model = load_model(path)
    if not isinstance(model, cls):
        raise ArtifactError(
            f"{path!r} contains a {type(model).__name__}, not a {cls.__name__}")
    return model

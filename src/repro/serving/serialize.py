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
  Versions 1-3 remain readable and keep their per-array checksum.
* **version 5** — one symmetric HSS format: the per-node ``hss.<i>.V``,
  ``hss.<i>.B21`` and ``hss.<i>.col_skeleton`` copies of ``U``,
  ``B12^T`` and ``row_skeleton`` are no longer written (nor under the
  per-shard ``dist.<s>.hss.*`` sections); the container is version 4's.
  Reading an older artifact checks that every stored copy is bitwise
  what it copies, then drops it.
* **version 6** — the symmetric ULV: ``ulv.<i>.*`` (and every per-shard
  ``dist.<s>.ulv.*`` section) holds ``omega``, ``u_hat``, ``lu``, ``piv``
  and ``w`` per node and no root keys.  Written for every model.  The
  general ULV factors of versions 1-5 are not read: such a model's
  stored HSS matrix is factored again on load, at the model's λ (at 0
  for generators with the shift baked in), and a sharded model's
  capacitance system is coupled again.

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
from ..utils import packing
from ..utils.timing import TimingLog

#: format tag written into every artifact header
FORMAT_TAG = "repro.serving/model"
#: schema version this library writes, and the highest it reads (6 stores
#: the symmetric ULV factors, 5 one symmetric HSS format in version 4's
#: columnar container; 3 indexed the same payload with JSON, and 1 and 2
#: stored one zip member per array — see docs/serving.md)
FORMAT_VERSION = 6

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
_HSS_FIELDS = ("D", "U", "B12", "row_skeleton")
#: per-node copies that schema versions 1-4 stored too, and the field each
#: copies (``B21`` is the transpose of ``B12``)
_LEGACY_COPIES = {"V": "U", "B21": "B12", "col_skeleton": "row_skeleton"}


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


def _check_legacy_copies(arrays: Dict[str, np.ndarray], node: str) -> None:
    """Every copy a version 1-4 artifact stores for ``node`` is bitwise
    what it copies; anything else is a matrix the symmetric format cannot
    hold."""
    for name, source_name in _LEGACY_COPIES.items():
        copy = arrays.get(node + name)
        if copy is None:
            continue
        source = arrays.get(node + source_name)
        if source is not None and name == "B21":
            source = source.T
        if source is None or copy.dtype != source.dtype \
                or copy.shape != source.shape \
                or np.ascontiguousarray(copy).tobytes() \
                != np.ascontiguousarray(source).tobytes():
            raise ArtifactError(
                f"{node}{name} is not a copy of {node}{source_name}: the "
                f"artifact does not hold a symmetric HSS matrix")


def hss_from_arrays(arrays: Dict[str, np.ndarray], tree: ClusterTree,
                    prefix: str = "hss.") -> HSSMatrix:
    """Rebuild an :class:`HSSMatrix` over ``tree`` from flattened arrays.

    Copies that artifacts of schema versions 1-4 stored next to the
    generators are checked against what they copy and dropped.

    Raises
    ------
    ArtifactError
        If there is no HSS matrix under ``prefix``, its node count is not
        the tree's, or a stored copy differs from what it copies.
    ValueError
        If the generators do not fit the tree (see :class:`HSSMatrix`).
    """
    key = f"{prefix}n_nodes"
    if key not in arrays:
        raise ArtifactError("artifact does not contain an HSS matrix")
    n_nodes = int(arrays[key][0])
    if n_nodes != tree.n_nodes:
        raise ArtifactError(
            f"HSS payload has {n_nodes} nodes but the tree has {tree.n_nodes}")
    node_data: List[HSSNodeData] = []
    for i in range(n_nodes):
        node = f"{prefix}{i}."
        _check_legacy_copies(arrays, node)
        kwargs = {name: arrays.get(node + name) for name in _HSS_FIELDS}
        if kwargs["row_skeleton"] is not None:
            kwargs["row_skeleton"] = np.asarray(kwargs["row_skeleton"],
                                                dtype=np.intp)
        node_data.append(HSSNodeData(**kwargs))
    return HSSMatrix(tree, node_data)


#: _NodeFactors array attributes persisted per node (schema version 6)
_ULV_FIELDS = ("omega", "u_hat", "lu", "piv", "w")
#: newest schema version whose ``ulv.*`` sections hold the general
#: (two-transform) ULV factors; the reader refactors those models instead
_LAST_GENERAL_ULV_VERSION = 5


def ulv_to_arrays(ulv: ULVFactorization, prefix: str = "ulv.") -> Dict[str, np.ndarray]:
    """Flatten a :class:`ULVFactorization` into arrays: ``meta`` and the
    per-node factors (a node without a transform stores no ``omega``)."""
    factors = ulv._factors
    meta = np.array([[f.n_loc, f.n_elim] for f in factors], dtype=np.int64)
    out: Dict[str, np.ndarray] = {f"{prefix}meta": meta}
    for i, fac in enumerate(factors):
        for name in _ULV_FIELDS:
            a = getattr(fac, name)
            if a is not None:
                out[f"{prefix}{i}.{name}"] = np.asarray(a)
    return out


def ulv_from_arrays(arrays: Dict[str, np.ndarray], hss: HSSMatrix,
                    prefix: str = "ulv.", *, lam: float
                    ) -> ULVFactorization:
    """Rebuild a :class:`ULVFactorization` without re-factoring.

    The factors are restored exactly as saved, so subsequent
    :meth:`~repro.hss.ULVFactorization.solve` calls are bitwise identical
    to the original factorization's solves.  ``lam`` (required: the
    arrays do not record it) is the shift they were factored at, the
    restored factorization's ``lam`` as
    :meth:`~repro.hss.ULVFactorization.factor` sets it.

    Raises
    ------
    ArtifactError
        If there is no factorization under ``prefix`` or its node count
        is not the tree's.
    KeyError, ValueError
        If a node's factors are missing or do not fit its ``meta`` row.
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
    for i, (n_loc, n_elim) in enumerate(meta.tolist()):
        node = f"{prefix}{i}."
        omega = arrays.get(node + "omega")
        fac = _NodeFactors(
            n_loc=n_loc, n_elim=n_elim,
            omega=None if omega is None else np.asarray(omega, np.float64),
            u_hat=np.asarray(arrays[node + "u_hat"], np.float64))
        n_keep = n_loc - n_elim
        if fac.u_hat.shape[0] != n_keep or (
                omega is not None and omega.shape != (n_loc, n_loc)):
            raise ValueError(f"{node}u_hat / omega do not fit {n_loc} rows "
                             f"with {n_elim} eliminated")
        if n_elim:
            fac.lu = np.asarray(arrays[node + "lu"], np.float64)
            fac.piv = np.asarray(arrays[node + "piv"], np.int32)
            fac.w = np.asarray(arrays[node + "w"], np.float64)
            if fac.lu.shape != (n_elim, n_elim) or fac.piv.shape != (
                    n_elim,) or fac.w.shape != (n_elim, n_keep):
                raise ValueError(f"{node}lu / piv / w do not fit "
                                 f"{n_elim} eliminated rows")
        factors.append(fac)
    ulv = ULVFactorization.__new__(ULVFactorization)
    ulv.hss = hss
    ulv.lam = float(lam)
    ulv.timing = TimingLog()
    ulv._factors = factors
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
#: newest schema version that stored one zip member per array
_LAST_PER_MEMBER_VERSION = 2
#: the one schema version whose index was a JSON list (and whose checksum
#: was the per-array one of the per-member versions)
_JSON_INDEX_VERSION = 3
#: padding source: a gap before an array is always shorter than ALIGN
_ZEROS = memoryview(bytes(packing.ALIGN))


def _legacy_checksum(arrays: Dict[str, np.ndarray]) -> str:
    """Versions 1-3: SHA-256 over every array's key, dtype, shape and raw
    bytes, in sorted key order."""
    digest = hashlib.sha256()
    for key in sorted(arrays):
        a = np.ascontiguousarray(arrays[key])
        digest.update(f"{key}|{a.dtype.str}|{a.shape}".encode("utf-8"))
        digest.update(a)  # the C-ordered buffer itself
    return digest.hexdigest()


def _write_member(zf: zipfile.ZipFile, key: str, array: np.ndarray,
                  compress_type: int = zipfile.ZIP_STORED) -> None:
    """``array`` as the ``.npy`` member ``key``."""
    info = zipfile.ZipInfo(key + ".npy")
    info.compress_type = compress_type
    with zf.open(info, "w", force_zip64=True) as member:
        np.lib.format.write_array(member, array, allow_pickle=False)


def _write_archive(path: str, header: Dict[str, object],
                   arrays: Dict[str, np.ndarray]) -> None:
    """Write a columnar (version 4 and later) archive; stamps its checksum
    into ``header``."""
    try:
        keys, table, chunks, end = packing.layout(arrays)
    except ValueError as exc:
        raise ArtifactError(str(exc)) from exc
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
    index table and the payload make the checksum of versions 4 and 5."""
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
        if type(offset) is not int or offset < end or offset % packing.ALIGN:
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
                return header, packing.unpack(*members)
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
    # Lazy import: the distributed package depends on this module.  A
    # DistributedSolver is a ShardedULVSolver that fits.
    from ..distributed.factors import ShardedULVSolver
    # A failed λ-refit flips _fitted off and may leave the shards at mixed
    # λ; persist no factorization in that case rather than an inconsistent
    # one.
    if isinstance(solver, ShardedULVSolver) and solver._fitted:
        factors = solver.factors
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
                    lam: float, version: int) -> Optional[KernelSystemSolver]:
    state = config.get("solver_state", "none")
    # Versions 1-5 stored the general ULV factors: they are not read, the
    # stored HSS matrix is factored again at the shift the factors were
    # at (0 for generators with the shift baked in).
    general_ulv = version <= _LAST_GENERAL_ULV_VERSION
    if state == "sharded":
        from ..distributed.factors import ShardedFactors, ShardedULVSolver
        try:
            factors = ShardedFactors.from_arrays(
                arrays, tree, lam, prefix="dist.", refactor=general_ulv)
        except (KeyError, ValueError) as exc:
            raise ArtifactError(
                f"corrupted sharded-factor payload: {exc}") from exc
        solver = ShardedULVSolver(factors)
        if factors.C is None:
            solver.couple()
        solver.lam_ = lam
        return _attach_stream(solver, config, arrays, tree, X_train, kernel)
    if state == "hss":
        solver = HSSSolver(seed=config.get("seed"))
        lam_free = bool(config.get("hss_lam_free", False))
        shift = lam if lam_free else 0.0    # the shift the ULV is at
        try:
            solver.hss_ = hss_from_arrays(arrays, tree)
            if "ulv.meta" in arrays:
                solver.factorization_ = (
                    ULVFactorization.factor(solver.hss_, lam=shift)
                    if general_ulv
                    else ulv_from_arrays(arrays, solver.hss_, lam=shift))
        except (KeyError, ValueError) as exc:
            raise ArtifactError(
                f"corrupted HSS / ULV payload: {exc}") from exc
        solver._hss_lam_free = lam_free
        solver.compression_count = 1
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
    model.solver_ = _restore_solver(config, arrays, tree, X_train, kernel,
                                    lam, int(header["version"]))
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

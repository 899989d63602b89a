"""Directory-backed registry of persisted models.

A :class:`ModelStore` manages a flat directory of named model artifacts:

.. code-block:: text

    <root>/
        susy-hss/
            model.npz     # checksummed archive written by serialize.save_model
            record.json   # name, kind, checksum, created, revision, metadata
            versions.json # bounded save history (monotonic revisions)
        mnist-ova/
            model.npz
            record.json
            versions.json

The record duplicates the artifact header so listing the store never has to
open the (potentially large) archives.  Metadata is free-form JSON; the
usual source is ``repro train``, which records its headline numbers
(dataset, ``h``, ``lambda``, accuracy, memory, maximum rank, timings) — the
train-offline half of the train-offline / serve-online split.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

try:  # POSIX advisory locks; absent on some platforms (e.g. Windows)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from .serialize import ArtifactError, ModelArtifact, load_model, save_model

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

ARCHIVE_FILENAME = "model.npz"
RECORD_FILENAME = "record.json"
VERSIONS_FILENAME = "versions.json"
LOCK_FILENAME = ".write.lock"

#: history entries retained per model in ``versions.json``
VERSION_HISTORY_LIMIT = 64


@contextmanager
def _exclusive_lock(lock_path: str):
    """Block until the per-model write lock is held; release on exit.

    Uses ``flock`` on the lock file, so concurrent *processes* (not just
    threads) mutating the same entry are serialized and the
    archive-then-record rename pair of one writer can never interleave
    with another's.  The lock file itself is never unlinked — unlinking it
    while a third writer is blocked on it would split the lock — which is
    why it lives *next to* the model directory (``.<name>.write.lock`` in
    the store root) rather than inside it: ``delete`` can then remove the
    whole entry without destroying the lock other writers hold.  On
    platforms without ``fcntl`` the lock degrades to a no-op (single
    writers, the common case, are unaffected).
    """
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield
        return
    fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)


@dataclass
class ModelRecord:
    """Catalog entry of one stored model."""

    name: str
    path: str
    kind: str = ""
    checksum: str = ""
    created: str = ""
    #: artifact schema version (see ``docs/serving.md``; 0 for records
    #: written before the field existed — read the archive header instead)
    version: int = 0
    #: monotonic save counter of this entry: 1 on first save, +1 per
    #: re-save, stamped under the per-model write lock so two concurrent
    #: writers can never publish the same revision (0 for records written
    #: before the field existed).  Blue/green routing keys on this.
    revision: int = 0
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def archive_path(self) -> str:
        return os.path.join(self.path, ARCHIVE_FILENAME)

    def describe(self) -> str:
        """One-line summary used by listings and the example scripts."""
        acc = self.metadata.get("accuracy_percent")
        acc_str = f" acc={acc}%" if acc is not None else ""
        rev_str = f" r{self.revision}" if self.revision else ""
        return f"{self.name}: {self.kind} [{self.checksum[:12]}]{rev_str}{acc_str}"


class ModelStore:
    """Save / load / list / delete named models under one root directory.

    Parameters
    ----------
    root:
        Store directory; created (with parents) if missing.

    Examples
    --------
    >>> import tempfile
    >>> import numpy as np
    >>> from repro.datasets import gaussian_mixture
    >>> from repro.krr import KernelRidgeClassifier
    >>> from repro.serving import ModelStore
    >>> X, y = gaussian_mixture(n=128, d=4, seed=0)
    >>> clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="dense").fit(X, y)
    >>> store = ModelStore(tempfile.mkdtemp())
    >>> record = store.save(clf, "demo")
    >>> reloaded = store.load("demo")
    >>> bool(np.array_equal(reloaded.predict(X), clf.predict(X)))
    True
    """

    def __init__(self, root: str):
        self.root = os.path.abspath(str(root))
        os.makedirs(self.root, exist_ok=True)

    @classmethod
    def from_config(cls, config) -> "ModelStore":
        """Open the store a :class:`repro.runtime.RuntimeConfig` points at.

        Parameters
        ----------
        config:
            The resolved runtime config; ``serving.store`` is the root
            directory.

        Returns
        -------
        ModelStore
            The opened (and, if necessary, created) store.
        """
        return cls(config.serving.store)

    # ----------------------------------------------------------------- paths
    def _model_dir(self, name: str) -> str:
        if not _NAME_RE.match(name):
            raise ValueError(
                f"invalid model name {name!r}; use letters, digits, '.', '_' "
                f"and '-' (must not start with a separator)")
        return os.path.join(self.root, name)

    def _lock_path(self, name: str) -> str:
        self._model_dir(name)  # an invalid name raises before any file exists
        # Leading dot keeps lock files out of catalog listings (_NAME_RE
        # requires names to start with an alphanumeric character).
        return os.path.join(self.root, f".{name}{LOCK_FILENAME}")

    # ------------------------------------------------------------------ save
    def save(self, model, name: str,
             metadata: Optional[Dict[str, object]] = None,
             overwrite: bool = False,
             include_factorization: bool = True) -> ModelRecord:
        """Persist a fitted model under ``name``.

        Parameters
        ----------
        model:
            Fitted classifier (binary or one-vs-all).
        name:
            Registry key; becomes the subdirectory name.
        metadata:
            Free-form JSON-serializable metadata stored with the model.
        overwrite:
            Allow replacing an existing entry of the same name.
        include_factorization:
            Forwarded to :func:`repro.serving.save_model`.
        """
        meta = dict(metadata or {})
        # Concurrent writers under the same name are serialized by a
        # per-model file lock, so one writer's archive/record rename pair
        # can never interleave with another's (the catalog entry always
        # describes the archive next to it).
        with _exclusive_lock(self._lock_path(name)):
            # Existence is keyed on the record file, not the directory: a
            # save that crashed before writing the record leaves no catalog
            # entry and must not block the retry.  Checked under the lock,
            # so two racing non-overwrite writers cannot both pass.
            if name in self and not overwrite:
                raise FileExistsError(
                    f"model {name!r} already exists in {self.root}; pass "
                    f"overwrite=True to replace it")
            return self._publish(model, name, meta, include_factorization)

    def _publish(self, model, name: str, meta: Dict[str, object],
                 include_factorization: bool = True) -> ModelRecord:
        """Write archive, record and history row; caller holds the lock.

        The shared body of :meth:`save` and :meth:`apply`.  It takes no
        lock of its own: every ``_exclusive_lock`` call opens its own file
        descriptor, so nesting one would block on the caller's.
        """
        path = self._model_dir(name)
        # save_model publishes the archive atomically; the record follows
        # with its own atomic rename, so a crash mid-save never corrupts a
        # previously good artifact (the archive header stays the source of
        # truth if the crash lands between the renames).
        record_path = os.path.join(path, RECORD_FILENAME)
        # Monotonic revision: previous record's counter + 1, read and
        # stamped under the same lock that serializes the renames, so two
        # racing writers can never publish the same revision and a reader
        # comparing revisions always observes a re-save.
        revision = self._current_revision(name) + 1
        artifact = save_model(model, os.path.join(path, ARCHIVE_FILENAME),
                              metadata=meta,
                              include_factorization=include_factorization)
        record = ModelRecord(name=name, path=path, kind=artifact.kind,
                             checksum=artifact.checksum,
                             created=artifact.created,
                             version=artifact.version,
                             revision=revision, metadata=meta)
        tmp_path = f"{record_path}.{os.getpid()}.tmp"
        with open(tmp_path, "w", encoding="utf-8") as fh:
            json.dump({"name": record.name, "kind": record.kind,
                       "checksum": record.checksum,
                       "created": record.created,
                       "version": record.version,
                       "revision": record.revision,
                       "metadata": record.metadata},
                      fh, indent=2, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, record_path)
        self._append_version_entry(name, record)
        return record

    # -------------------------------------------------------------- versions
    def _versions_path(self, name: str) -> str:
        return os.path.join(self._model_dir(name), VERSIONS_FILENAME)

    def _read_versions(self, name: str) -> List[Dict[str, object]]:
        try:
            with open(self._versions_path(name), "r", encoding="utf-8") as fh:
                entries = json.load(fh)
        except (OSError, ValueError):
            return []
        return [e for e in entries if isinstance(e, dict)]

    def _current_revision(self, name: str) -> int:
        """Highest revision published so far (0 when the entry is new).

        Reads both the catalog record and the version history and takes
        the maximum, so a crash between the record rename and the history
        append can never roll the counter backwards.
        """
        best = 0
        record_path = os.path.join(self._model_dir(name), RECORD_FILENAME)
        try:
            with open(record_path, "r", encoding="utf-8") as fh:
                best = int(json.load(fh).get("revision", 0))
        except (OSError, ValueError):
            pass
        for entry in self._read_versions(name):
            try:
                best = max(best, int(entry.get("revision", 0)))
            except (TypeError, ValueError):
                continue
        return best

    def _append_version_entry(self, name: str, record: ModelRecord) -> None:
        """Append one history row to ``versions.json`` (caller holds lock)."""
        entries = self._read_versions(name)
        entries.append({"revision": record.revision, "kind": record.kind,
                        "checksum": record.checksum,
                        "created": record.created})
        entries = entries[-VERSION_HISTORY_LIMIT:]
        path = self._versions_path(name)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(entries, fh, indent=2, sort_keys=True)
        os.replace(tmp, path)

    def versions(self, name: str) -> List[Dict[str, object]]:
        """Save history of the named model, oldest first.

        Each entry is ``{"revision", "kind", "checksum", "created"}``; the
        last entry describes the current artifact.  The history is bounded
        (:data:`VERSION_HISTORY_LIMIT` most recent saves) and survives
        re-saves but not :meth:`delete`.  Entries written before revision
        stamping existed synthesize a single row from the catalog record.

        Parameters
        ----------
        name:
            Registry key of the model.

        Returns
        -------
        list of dict
            The revision history, oldest first.
        """
        record = self.record(name)  # raises ArtifactError when absent
        entries = self._read_versions(name)
        if not entries:
            entries = [{"revision": record.revision, "kind": record.kind,
                        "checksum": record.checksum,
                        "created": record.created}]
        return entries

    def latest(self, name: str) -> ModelRecord:
        """Catalog entry of the newest saved version of ``name``.

        Alias of :meth:`record` with intent: blue/green routers poll it
        and compare :attr:`ModelRecord.revision` against the revision they
        are currently serving to decide whether a swap is due.

        Parameters
        ----------
        name:
            Registry key of the model.

        Returns
        -------
        ModelRecord
            The current catalog entry (highest published revision).
        """
        return self.record(name)

    # ------------------------------------------------------------------ load
    def load(self, name: str):
        """Load the named model (checksum-verified)."""
        record = self.record(name)
        return load_model(record.archive_path)

    def apply(self, name: str, verb: str, *args,
              meta: Optional[Dict[str, object]] = None, **kwargs):
        """Load ``name``, call one lifecycle verb on it and save it back.

        The load → verb → re-save sequence behind ``repro refit``,
        ``repro update`` and the router's refit / update / recompression.
        The per-model lock is held from before the load until the new
        record is published, so two overlapping calls on one model run one
        after the other and the second starts from the first's result
        (revisions *r* + 1 and *r* + 2, both effects kept).  The re-save
        keeps the stored record's metadata — what training recorded about
        the model survives — patched with ``meta``.

        Parameters
        ----------
        name:
            Registry key of the model.
        verb:
            Name of the model method to call (``"refit"``,
            ``"partial_fit"``, ``"recompress"``).
        *args, **kwargs:
            Passed to the verb.
        meta:
            Metadata keys to set on the new record; a ``None`` value
            drops the key.

        Returns
        -------
        tuple
            ``(model, record)``: the mutated model and its new catalog
            entry.
        """
        with _exclusive_lock(self._lock_path(name)):
            record = self.record(name)
            model = load_model(record.archive_path)
            getattr(model, verb)(*args, **kwargs)
            metadata = dict(record.metadata)
            for key, value in (meta or {}).items():
                if value is None:
                    metadata.pop(key, None)
                else:
                    metadata[key] = value
            return model, self._publish(model, name, metadata)

    def record(self, name: str) -> ModelRecord:
        """Catalog entry of the named model (reads only the JSON record)."""
        path = self._model_dir(name)
        record_path = os.path.join(path, RECORD_FILENAME)
        if not os.path.isdir(path) or not os.path.exists(record_path):
            raise ArtifactError(f"no model named {name!r} in {self.root}")
        with open(record_path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        return ModelRecord(name=name, path=path, kind=raw.get("kind", ""),
                           checksum=raw.get("checksum", ""),
                           created=raw.get("created", ""),
                           version=int(raw.get("version", 0)),
                           revision=int(raw.get("revision", 0)),
                           metadata=dict(raw.get("metadata") or {}))

    def artifact(self, name: str) -> ModelArtifact:
        """Full artifact header of the named model (opens the archive)."""
        from .serialize import read_artifact
        return read_artifact(self.record(name).archive_path)

    # ------------------------------------------------------------- catalogue
    def list_models(self) -> List[ModelRecord]:
        """All catalog entries, sorted by name.

        Stray directories that are not valid store entries (backup copies,
        dot-directories dropped in by other tools) are ignored rather than
        failing the whole listing.
        """
        out: List[ModelRecord] = []
        for entry in sorted(os.listdir(self.root)):
            if not _NAME_RE.match(entry):
                continue
            if os.path.exists(os.path.join(self.root, entry, RECORD_FILENAME)):
                out.append(self.record(entry))
        return out

    def names(self) -> List[str]:
        """Names of all stored models, sorted."""
        return [r.name for r in self.list_models()]

    def delete(self, name: str) -> None:
        """Remove the named model and its directory.

        Takes the same per-model lock as :meth:`save`, so a delete can
        never tear an entry out from under a writer mid-publish.
        """
        path = self._model_dir(name)
        with _exclusive_lock(self._lock_path(name)):
            if not os.path.isdir(path):
                raise ArtifactError(f"no model named {name!r} in {self.root}")
            shutil.rmtree(path)

    def __contains__(self, name: str) -> bool:
        try:
            path = self._model_dir(str(name))
        except ValueError:
            return False
        return os.path.exists(os.path.join(path, RECORD_FILENAME))

    def __len__(self) -> int:
        return len(self.list_models())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ModelStore(root={self.root!r}, models={len(self)})"

"""Regression test: concurrent writers to one `ModelStore` entry.

Two processes repeatedly save (``overwrite=True``) under the same model
name.  The per-model write lock must serialize them so the archive and the
catalog record are always a consistent pair: after the dust settles the
record's checksum matches the artifact header next to it and the model
loads cleanly.  Without the lock, one writer's archive rename can land
between another writer's archive and record renames, leaving a catalog
entry that describes a different archive.
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.datasets import gaussian_mixture
from repro.krr import KernelRidgeClassifier
from repro.serving import ModelStore, read_artifact
from repro.serving.store import LOCK_FILENAME, _exclusive_lock

MODEL_NAME = "contended"
SAVES_PER_WRITER = 4


def _writer(root: str, writer_id: int, barrier, errors,
            revisions=None) -> None:
    """Train a tiny model and save it repeatedly under the shared name."""
    try:
        X, y = gaussian_mixture(n=48, d=3, seed=writer_id)
        clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="dense").fit(X, y)
        store = ModelStore(root)
        barrier.wait(timeout=60)
        for i in range(SAVES_PER_WRITER):
            record = store.save(clf, MODEL_NAME, overwrite=True,
                                metadata={"writer": writer_id,
                                          "iteration": i})
            if revisions is not None:
                revisions.put(record.revision)
    except Exception as exc:  # pragma: no cover - surfaced via assert below
        errors.put(f"writer {writer_id}: {type(exc).__name__}: {exc}")


def test_two_processes_saving_same_name(tmp_path):
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(2)
    errors = ctx.Queue()
    procs = [ctx.Process(target=_writer,
                         args=(str(tmp_path), i, barrier, errors))
             for i in range(2)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=180)
        assert not p.is_alive(), "writer process hung"
        assert p.exitcode == 0
    assert errors.empty(), errors.get()

    # The surviving catalog entry and archive are a consistent pair.
    store = ModelStore(str(tmp_path))
    record = store.record(MODEL_NAME)
    artifact = read_artifact(record.archive_path)
    assert record.checksum == artifact.checksum
    assert record.metadata == artifact.metadata
    model = store.load(MODEL_NAME)  # checksum-verified load succeeds
    winner = int(record.metadata["writer"])
    X, y = gaussian_mixture(n=48, d=3, seed=winner)
    reference = KernelRidgeClassifier(h=1.0, lam=1.0, solver="dense").fit(X, y)
    assert np.array_equal(model.predict(X), reference.predict(X))


def test_two_processes_stamp_distinct_monotonic_revisions(tmp_path):
    """Revision stamping under contention: two processes re-saving the
    same name never publish the same revision, and after ``2 * k`` saves
    the surviving record carries exactly revision ``2 * k``."""
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(2)
    errors = ctx.Queue()
    revisions = ctx.Queue()
    procs = [ctx.Process(target=_writer,
                         args=(str(tmp_path), i, barrier, errors, revisions))
             for i in range(2)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=180)
        assert not p.is_alive(), "writer process hung"
        assert p.exitcode == 0
    assert errors.empty(), errors.get()

    seen = sorted(revisions.get(timeout=5)
                  for _ in range(2 * SAVES_PER_WRITER))
    # Each save got a unique revision and nothing was skipped: the lock
    # serializes read-increment-publish, so the 2k saves stamped 1..2k.
    assert seen == list(range(1, 2 * SAVES_PER_WRITER + 1))

    store = ModelStore(str(tmp_path))
    assert store.record(MODEL_NAME).revision == 2 * SAVES_PER_WRITER
    history = [entry["revision"] for entry in store.versions(MODEL_NAME)]
    assert history == sorted(history)  # history never rolls backwards
    assert history[-1] == 2 * SAVES_PER_WRITER


def test_versions_and_latest_helpers(tmp_path):
    """`versions()` keeps an oldest-first history; `latest()` tracks it."""
    X, y = gaussian_mixture(n=48, d=3, seed=0)
    clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="dense").fit(X, y)
    store = ModelStore(str(tmp_path))
    first = store.save(clf, "versioned")
    assert first.revision == 1
    assert store.latest("versioned").revision == 1
    second = store.save(clf, "versioned", overwrite=True)
    assert second.revision == 2
    entries = store.versions("versioned")
    assert [e["revision"] for e in entries] == [1, 2]
    assert entries[-1]["checksum"] == store.latest("versioned").checksum
    with pytest.raises(Exception):
        store.versions("no-such-model")


def test_lock_serializes_in_process(tmp_path):
    """The lock context blocks a second acquirer until released."""
    fcntl = pytest.importorskip("fcntl")
    del fcntl

    lock_path = str(tmp_path / LOCK_FILENAME)
    order = []
    acquired = threading.Event()
    release = threading.Event()

    def hold_then_release():
        with _exclusive_lock(lock_path):
            order.append("first-acquired")
            acquired.set()
            assert release.wait(10.0), "release signal never arrived"
            order.append("first-released")

    def second_acquirer():
        with _exclusive_lock(lock_path):
            order.append("second-acquired")

    holder = threading.Thread(target=hold_then_release)
    holder.start()
    assert acquired.wait(10.0), "first thread never took the lock"
    second = threading.Thread(target=second_acquirer)
    second.start()
    # The lock is released only after "first-released" is recorded, so
    # the ordering assertion below is deterministic — no timing window.
    release.set()
    holder.join(10.0)
    second.join(10.0)
    assert not holder.is_alive() and not second.is_alive()
    assert order == ["first-acquired", "first-released", "second-acquired"]


def test_non_overwrite_save_still_raises(tmp_path):
    """The lock does not change the overwrite=False contract."""
    X, y = gaussian_mixture(n=48, d=3, seed=0)
    clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="dense").fit(X, y)
    store = ModelStore(str(tmp_path))
    store.save(clf, "once")
    with pytest.raises(FileExistsError):
        store.save(clf, "once")
    store.save(clf, "once", overwrite=True)  # explicit overwrite still works


def test_overlapping_apply_calls_keep_both_effects(tmp_path, monkeypatch):
    """``apply`` holds the per-model lock from its load to its publish.

    A slowed ``refit`` overlaps a ``partial_fit`` on the same entry — in
    the daemon, ``POST .../update`` arriving while a refit or a background
    recompression runs.  When only the re-save took the lock, both calls
    started from revision 1 and the later save silently dropped the
    streamed rows and the ``streamed`` flag while both reported success.
    """
    pytest.importorskip("fcntl")
    X, y = gaussian_mixture(n=232, d=3, seed=0)
    clf = KernelRidgeClassifier(h=1.0, lam=1.0, solver="dense").fit(
        X[:200], y[:200])
    store = ModelStore(str(tmp_path))
    store.save(clf, "m", metadata={"dataset": "gmix"})

    in_refit = threading.Event()
    plain_refit = KernelRidgeClassifier.refit

    def slow_refit(self, lam):
        in_refit.set()
        time.sleep(0.5)  # long enough for the whole partial_fit call
        return plain_refit(self, lam)

    monkeypatch.setattr(KernelRidgeClassifier, "refit", slow_refit)
    revisions, errors = {}, []

    def call(verb, *args, **kwargs):
        try:
            revisions[verb] = store.apply("m", verb, *args, **kwargs)[1].revision
        except Exception as exc:  # surfaced via the assert below
            errors.append(exc)

    refit = threading.Thread(target=call, args=("refit", 8.0),
                             kwargs={"meta": {"lambda": 8.0}})
    update = threading.Thread(target=call,
                              args=("partial_fit", X[200:], y[200:]),
                              kwargs={"meta": {"streamed": True}})
    refit.start()
    assert in_refit.wait(30.0), "refit never started"
    update.start()
    for thread in (refit, update):
        thread.join(60.0)
        assert not thread.is_alive()
    assert not errors, errors

    assert revisions == {"refit": 2, "partial_fit": 3}
    record = store.record("m")
    assert record.revision == 3
    assert record.metadata == {"dataset": "gmix", "lambda": 8.0,
                               "streamed": True}
    model = store.load("m")
    assert model.lam == 8.0
    assert model.X_train_.shape[0] == 232
    assert [e["revision"] for e in store.versions("m")] == [1, 2, 3]

"""Shared-memory transport for numpy blocks between processes.

The distributed training path moves two kinds of data between the
coordinator and its shard workers:

* **control messages** — tiny tagged tuples (command names, scalar stats)
  that travel over ordinary :class:`multiprocessing.Queue`\\ s, and
* **numpy payloads** — the permuted training points, right-hand sides,
  coupling factors and partial solutions.  These never go through pickle:
  the sending side copies them into a POSIX shared-memory segment
  (:class:`multiprocessing.shared_memory.SharedMemory`) and only a small
  handle rides on the queue; the receiver maps the segment, copies the
  bytes out and detaches.  The training points and the tree travel once,
  as one :class:`SharedArray` each (:class:`ArraySpec` handle); a
  protocol message packs all of its arrays into **one** segment, laid out
  like an artifact payload (:mod:`repro.utils.packing`: aligned offsets,
  each array in its own memory order), so it costs one file descriptor
  whether it carries one array or the thousands of a shard's factors
  (:class:`MessageSpec` handle: the segment name, key list and index).

Segment lifetime follows a strict creator-owns rule: whoever created a
segment unlinks it (receivers only ever attach + close), so no process
ever destroys memory another process might still map, and the resource
tracker of each process only sees segments that process created.
:class:`BlockChannel` keeps the per-message bookkeeping: ``send`` returns
the created segments so the caller can unlink them once the (synchronous)
protocol guarantees the peer has consumed the message.

:func:`recv_with_liveness` is the coordinator's fail-fast receive: it polls
the queue in small slices and raises :class:`WorkerCrashedError` as soon as
the peer process is observed dead, instead of blocking forever on a queue
that will never be fed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..obs import global_registry
from ..utils import packing


class DistributedError(RuntimeError):
    """Base error of the distributed training path."""


class WorkerCrashedError(DistributedError):
    """A shard worker process died while the coordinator was waiting on it."""


class WorkerTimeoutError(DistributedError):
    """A shard worker did not answer within the protocol deadline."""


@dataclass(frozen=True)
class ArraySpec:
    """Picklable handle of one shared-memory array (no payload).

    Parameters
    ----------
    name:
        Name of the POSIX shared-memory segment holding the data.
    shape:
        Array shape.
    dtype:
        NumPy dtype string (``np.dtype.str``).
    order:
        Memory order of the data, ``"C"`` or ``"F"``.  BLAS picks its
        kernel by layout, so a shipped array keeps the sender's order —
        the same rule artifacts follow — and computes the same bits on
        either side of the queue.
    """

    name: str
    shape: Tuple[int, ...]
    dtype: str
    order: str = "C"


@dataclass(frozen=True, eq=False)
class MessageSpec:
    """Picklable handle of one message's arrays, packed in one segment.

    Parameters
    ----------
    name:
        Name of the POSIX shared-memory segment holding the payload.
    size:
        Length of the payload in bytes.
    keys, table:
        The key list and index table of :func:`repro.utils.packing.layout`.
    """

    name: str
    size: int
    keys: np.ndarray
    table: np.ndarray


class SharedArray:
    """A numpy array backed by a named shared-memory segment.

    Create on the sending side with :meth:`from_array`, ship the
    :attr:`spec`, and attach on the receiving side with :meth:`attach`.
    ``close`` detaches the local mapping; ``unlink`` destroys the segment
    and must only be called by the creator.

    Parameters
    ----------
    shm:
        The underlying :class:`multiprocessing.shared_memory.SharedMemory`
        segment (use the factory classmethods rather than constructing
        directly).
    shape, dtype, order:
        Array layout inside the segment.
    owner:
        Whether this process created the segment (and must unlink it).
    """

    def __init__(self, shm: shared_memory.SharedMemory,
                 shape: Tuple[int, ...], dtype: np.dtype, owner: bool,
                 order: str = "C"):
        self._shm = shm
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        self.order = order
        self.owner = bool(owner)
        self._closed = False

    # ------------------------------------------------------------- factories
    @classmethod
    def from_array(cls, a: np.ndarray) -> "SharedArray":
        """Allocate an owned segment and copy ``a`` into it, in its order."""
        a = np.asarray(a)
        fortran = a.flags.f_contiguous and not a.flags.c_contiguous
        shm = shared_memory.SharedMemory(create=True, size=max(1, a.nbytes))
        sa = cls(shm, a.shape, a.dtype, owner=True,
                 order="F" if fortran else "C")
        if a.size:
            sa.array[...] = a
        return sa

    @classmethod
    def attach(cls, spec: ArraySpec) -> "SharedArray":
        """Map an existing segment by its :class:`ArraySpec` (not owned)."""
        shm = shared_memory.SharedMemory(name=spec.name)
        return cls(shm, spec.shape, np.dtype(spec.dtype), owner=False,
                   order=spec.order)

    # ------------------------------------------------------------- accessors
    @property
    def array(self) -> np.ndarray:
        """A numpy view of the segment (valid until :meth:`close`)."""
        if self._closed:
            raise RuntimeError("shared array has been closed")
        return np.ndarray(self.shape, dtype=self.dtype, buffer=self._shm.buf,
                          order=self.order)

    @property
    def spec(self) -> ArraySpec:
        """The picklable :class:`ArraySpec` handle of this segment."""
        return ArraySpec(name=self._shm.name, shape=self.shape,
                         dtype=self.dtype.str, order=self.order)

    # -------------------------------------------------------------- lifetime
    def close(self) -> None:
        """Detach the local mapping (idempotent)."""
        if not self._closed:
            self._closed = True
            self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (creator only; idempotent, close first)."""
        self.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # already unlinked (e.g. double shutdown)
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SharedArray(name={self._shm.name!r}, shape={self.shape}, "
                f"dtype={self.dtype}, owner={self.owner})")


def recv_with_liveness(queue, timeout: float,
                       alive: Optional[Callable[[], bool]] = None,
                       poll: float = 0.05):
    """Receive from ``queue`` with a deadline and a peer-liveness check.

    Raises :class:`WorkerCrashedError` if ``alive()`` turns false while
    waiting (the peer died without answering) and
    :class:`WorkerTimeoutError` when ``timeout`` elapses.
    """
    import queue as queue_mod

    deadline = time.monotonic() + timeout
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise WorkerTimeoutError(
                f"no message within {timeout:.1f}s (worker deadlocked or "
                f"overloaded)")
        try:
            return queue.get(timeout=min(poll, remaining))
        except queue_mod.Empty:
            if alive is not None and not alive():
                # One final non-blocking drain: the worker may have
                # answered and exited between the timeout and the check.
                try:
                    return queue.get_nowait()
                except queue_mod.Empty:
                    raise WorkerCrashedError(
                        "worker process died while the coordinator was "
                        "waiting for its reply") from None


class BlockChannel:
    """One direction of the coordinator <-> worker message protocol.

    Messages are ``(tag, payload, MessageSpec or None)`` tuples on a
    :class:`multiprocessing.Queue`; a message's arrays ride in one
    shared-memory segment.  The channel tracks the segments it created
    and releases them when the synchronous protocol guarantees the peer
    consumed them (every new ``send`` retires the previous message's
    segment; ``drain`` retires everything, e.g. at shutdown).

    Parameters
    ----------
    queue:
        The ``multiprocessing`` queue carrying the control tuples (one
        direction only; a worker has one channel per direction).
    """

    def __init__(self, queue):
        self.queue = queue
        #: the segment of the last message sent, until it is retired
        self._inflight: Optional[shared_memory.SharedMemory] = None
        reg = global_registry()
        self._m_messages = reg.counter(
            "repro_transport_messages_total",
            "Control messages published over shared-memory channels")
        self._m_bytes = reg.counter(
            "repro_transport_bytes_total",
            "Array payload bytes shipped through shared memory")

    def send(self, tag: str, payload=None,
             arrays: Optional[Dict[str, np.ndarray]] = None) -> None:
        """Publish a message; its arrays are copied into one shared-memory
        segment, each in its own memory order."""
        self.retire()
        spec = None
        if arrays:
            keys, table, chunks, size = packing.layout(arrays)
            shm = self._inflight = shared_memory.SharedMemory(
                create=True, size=max(1, size))
            buf = np.ndarray((size,), dtype=np.uint8, buffer=shm.buf)
            for offset, raw in chunks:
                buf[offset:offset + raw.size] = raw
            spec = MessageSpec(shm.name, size, keys, table)
            self._m_bytes.inc(sum(raw.size for _, raw in chunks))
        self._m_messages.inc()
        self.queue.put((tag, payload, spec))

    def recv(self, timeout: float,
             alive: Optional[Callable[[], bool]] = None):
        """Receive ``(tag, payload, {key: np.ndarray})``.

        The returned arrays are views into one private copy of the
        message's payload — the segment is detached before returning, so
        the sender is free to retire it at its next ``send``.
        """
        tag, payload, spec = recv_with_liveness(self.queue, timeout, alive)
        if spec is None:
            return tag, payload, {}
        data = np.empty(spec.size, dtype=np.uint8)
        shm = shared_memory.SharedMemory(name=spec.name)
        try:
            data[:] = np.ndarray((spec.size,), dtype=np.uint8,
                                 buffer=shm.buf)
        finally:
            shm.close()
        return tag, payload, packing.unpack(spec.keys, spec.table, data)

    def retire(self) -> None:
        """Unlink the segment of the previously sent message."""
        shm, self._inflight = self._inflight, None
        if shm is not None:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # already unlinked (double shutdown)
                pass

    # ``drain`` reads better than ``retire`` at shutdown call sites.
    drain = retire

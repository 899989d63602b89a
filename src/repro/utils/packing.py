"""One buffer for many arrays: the aligned, columnar layout.

A set of named arrays is laid out as one ``uint8`` payload plus a key
list and an ``int64`` index table (dtype code, memory order, ndim, byte
offset and shape per array).  Every array starts at a multiple of
:data:`ALIGN` bytes and keeps its memory order: BLAS picks its kernel by
layout, so the order is part of every bitwise contract that crosses the
buffer.  Two places use it:

* model artifacts (:mod:`repro.serving.serialize`, schema version 4 and
  later), which write the payload as one zip member, and
* the shared-memory transport of the distributed path
  (:class:`repro.distributed.BlockChannel`), which copies a message's
  arrays into one segment, so a message costs one file descriptor
  whatever its number of arrays.

``docs/serving.md`` specifies the layout.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

#: every array starts at a multiple of this many bytes inside the payload
ALIGN = 64
#: memory orders, by their code in the index table
ORDERS = "CF"
#: leading columns of an index-table row; the shape fills the rest
FIXED_COLUMNS = 4


def memory_bytes(a: np.ndarray):
    """Memory order of ``a`` and its buffer as a flat ``uint8`` view.

    Contiguous arrays are not copied and keep their order (``.npy`` keeps
    it too, as ``fortran_order``).  Anything else is stored C-ordered.
    """
    if a.flags.c_contiguous:
        return 0, a.reshape(-1).view(np.uint8)
    if a.flags.f_contiguous:
        return 1, a.T.reshape(-1).view(np.uint8)
    return 0, np.ascontiguousarray(a).reshape(-1).view(np.uint8)


def layout(arrays: Dict[str, np.ndarray]):
    """``(keys, table, chunks, size)`` of ``arrays`` laid out in one payload.

    ``keys`` is the key list (a dtype vocabulary line, then one key per
    line) as ``uint8``, ``table`` the index, ``chunks`` the
    ``(offset, bytes)`` of every array in key order and ``size`` the
    payload's length.  Raises :class:`ValueError` for a key containing a
    newline.
    """
    dtypes: Dict[str, int] = {}
    rows, chunks, end = [], [], 0
    for key, a in arrays.items():
        if "\n" in key:
            raise ValueError(f"array key {key!r} contains a newline")
        a = np.asarray(a)
        order, raw = memory_bytes(a)
        offset = -(-end // ALIGN) * ALIGN
        code = dtypes.setdefault(a.dtype.str, len(dtypes))
        rows.append([code, order, a.ndim, offset, *a.shape])
        chunks.append((offset, raw))
        end = offset + raw.size
    width = max((len(row) for row in rows), default=FIXED_COLUMNS)
    table = np.array([row + [0] * (width - len(row)) for row in rows],
                     dtype="<i8").reshape(len(rows), width)
    keys = "\n".join([" ".join(dtypes), *arrays]).encode("utf-8")
    return np.frombuffer(keys, dtype=np.uint8), table, chunks, end


def unpack(keys_raw: np.ndarray, table: np.ndarray,
           payload: np.ndarray) -> Dict[str, np.ndarray]:
    """The arrays of a :func:`layout`, as writable views into ``payload``.

    The index may come from outside the program: the whole table is
    checked against the key list and the payload, column by column, before
    the first view is made, so a torn or hand-crafted index raises
    :class:`ValueError` and never yields an array.
    """
    vocabulary, *keys = bytes(keys_raw).decode("utf-8").split("\n")
    dtypes = [np.dtype(s) for s in vocabulary.split(" ")] if keys else []
    if any(dtype.hasobject for dtype in dtypes):
        raise ValueError(f"object dtype in {vocabulary!r}")
    if len(set(keys)) != len(keys):
        raise ValueError("duplicated key")
    if table.shape[0] != len(keys) or table.shape[1] < FIXED_COLUMNS:
        raise ValueError(f"{len(keys)} keys for a table of shape "
                         f"{table.shape}")
    code, order, ndim, offset = table[:, :FIXED_COLUMNS].T
    shape = table[:, FIXED_COLUMNS:]
    if np.any((code < 0) | (code >= len(dtypes))):
        raise ValueError(f"dtype code outside 0..{len(dtypes) - 1}")
    if np.any((order < 0) | (order >= len(ORDERS))):
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
    if np.any((offset < 0) | (offset % ALIGN != 0)):
        raise ValueError(f"an offset is negative or not a multiple of "
                         f"{ALIGN}")
    if np.any(offset[1:] < end[:-1]) or (len(keys) and end[-1] >
                                        payload.nbytes):
        raise ValueError("arrays overlap or end past the payload")
    # Positional arguments and tuple shapes: this loop is most of a load.
    return {key: np.ndarray(tuple(extent[:n]), dtypes[c], payload, o, None,
                            ORDERS[f])
            for key, (c, f, n, o, *extent) in zip(keys, table.tolist())}

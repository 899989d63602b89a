"""Direct LAPACK calls for the per-node kernels.

The HSS construction and the ULV sweeps run a handful of small dense
factorizations per tree node, so the ``scipy.linalg`` wrappers around
``dgeqp3`` / ``dgeqrf`` / ``dorgqr`` cost more than the routines.  The
helpers here call the same routines at the same workspace sizes — so the
results are bitwise the wrappers' — and leave out what the callers throw
away (the ``Q`` of a pivoted QR that only selects a skeleton) and what
does not change between calls (the workspace query).
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter
from typing import Tuple

import numpy as np
from scipy.linalg.lapack import dgeqp3


_shape = attrgetter("shape")


def require_finite(a: np.ndarray) -> None:
    """Refuse infs and NaNs before they reach LAPACK and then the weights."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


@lru_cache(maxsize=4096)
def _optimal_lwork(routine, shapes: Tuple[Tuple[int, ...], ...]) -> int:
    """The workspace size ``routine`` asks for on arguments of ``shapes``.

    A workspace query reads the dimensions only, so it is answered once
    per shape, on uninitialised arrays.
    """
    args = [np.empty(shape, order="F") for shape in shapes]
    return int(routine(*args, lwork=-1)[-2][0])


def with_optimal_workspace(routine, *args, **kwargs):
    """Call a LAPACK routine at the workspace size it asks for itself.

    The block size LAPACK picks depends on the workspace it is given, so
    this is what keeps the results those of scipy's ``qr`` wrapper.
    """
    # map, not a generator: this runs a few times per tree node
    lwork = _optimal_lwork(routine, tuple(map(_shape, args)))
    *out, _, info = routine(*args, lwork=lwork, **kwargs)
    if info != 0:
        raise ValueError(f"LAPACK {routine.__name__} failed (info={info})")
    return out


def raise_trtrs_info(info: int) -> None:
    """Raise what scipy's triangular solve raises for a nonzero ``dtrtrs`` ``info``."""
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}")
    raise ValueError(f"illegal value in argument {-info} of dtrtrs")


def pivoted_qr(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-pivoted Householder QR of a non-empty matrix, ``Q`` not formed.

    Returns ``(packed, piv, tau)``: ``np.triu(packed[:min(m, n)])`` is the
    ``R`` and ``piv`` the 0-based column permutation that
    ``scipy.linalg.qr(a, mode="economic", pivoting=True)`` returns,
    bitwise; the Householder vectors below the diagonal of ``packed`` and
    ``tau`` are what ``dorgqr`` needs to form ``Q``.  ``a`` is not
    modified.
    """
    require_finite(a)
    packed, jpvt, tau = with_optimal_workspace(dgeqp3, a)
    return packed, jpvt.astype(np.intp) - 1, tau

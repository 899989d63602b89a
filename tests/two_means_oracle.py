"""The two-subtraction two-means Lloyd loop, kept as the test oracle.

This is ``repro.clustering.two_means`` as it assigned points before every
Lloyd step became one GEMV: both squared distances are formed in full,
``sum((x - c)**2)`` per row, and compared.  It stays here verbatim to pin
the GEMV step's masks and trees bit for bit, rounding band and fallback
included.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.clustering import ClusterTree, tree_from_splitter
from repro.utils.random import as_generator
from repro.utils.validation import check_array_2d


def _seed_centers(points: np.ndarray, rng: np.random.Generator
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pick two initial centres with distance-proportional seeding.

    Also returns the buffer the differences to the first centre were
    formed in, for the Lloyd steps to reuse.
    """
    n = points.shape[0]
    first = int(rng.integers(n))
    c0 = points[first]
    diff = points - c0
    sq = np.einsum("ij,ij->i", diff, diff)
    total = float(sq.sum())
    if total <= 0.0:
        # All points identical: any second centre works.
        second = int(rng.integers(n))
    else:
        second = int(rng.choice(n, p=sq / total))
    return c0.copy(), points[second].copy(), diff


def two_means_split(
    points: np.ndarray,
    rng=None,
    max_iter: int = 20,
) -> np.ndarray:
    """Split a point set in two clusters with one run of 2-means.

    Parameters
    ----------
    points:
        Array of shape ``(m, d)``.
    rng:
        Seed or generator for the centre initialisation.
    max_iter:
        Maximum number of Lloyd iterations.

    Returns
    -------
    numpy.ndarray
        Boolean mask, ``True`` for points assigned to the first cluster.
    """
    points = np.asarray(points, dtype=np.float64)
    rng = as_generator(rng)
    m = points.shape[0]
    if m < 2:
        return np.ones(m, dtype=bool)
    c0, c1, diff = _seed_centers(points, rng)
    assign = np.zeros(m, dtype=bool)
    for _ in range(max(int(max_iter), 1)):
        # Each difference formed once, in the one buffer: half the
        # subtractions and no temporaries, the same einsum bits.
        np.subtract(points, c0, out=diff)
        d0 = np.einsum("ij,ij->i", diff, diff)
        np.subtract(points, c1, out=diff)
        d1 = np.einsum("ij,ij->i", diff, diff)
        new_assign = d0 <= d1
        if new_assign.all() or not new_assign.any():
            # One cluster swallowed everything; split at the median distance
            # from the surviving centre so progress is always made.
            d = d0 if new_assign.all() else d1
            new_assign = d <= np.median(d)
            if new_assign.all() or not new_assign.any():
                new_assign = np.zeros(m, dtype=bool)
                new_assign[: m // 2] = True
            return new_assign
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        c0 = points[assign].mean(axis=0)
        c1 = points[~assign].mean(axis=0)
    return assign


def two_means_tree(X: np.ndarray, leaf_size: int = 16, max_iter: int = 20,
                   seed=None) -> ClusterTree:
    """The two-means tree built with :func:`two_means_split` above."""
    X = check_array_2d(X, "X")
    return tree_from_splitter(
        X, lambda points, rng: two_means_split(points, rng, max_iter),
        leaf_size=leaf_size, rng=as_generator(seed))

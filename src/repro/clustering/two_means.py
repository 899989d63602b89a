"""Recursive two-means (2MN) clustering.

The paper's best-performing ordering: at every level of the recursion the
points of the current cluster are split into two groups with k-means
(k = 2).  The first centre is picked uniformly at random, the second with
probability proportional to the squared distance from the first (the
k-means++ style seeding described in Section 4.3: "Initially, we pick one
point randomly and select the second one with a probability proportional to
the distance from the first one").  Lloyd iterations then run until no point
changes cluster or ``max_iter`` is reached ("Typically only a few iterations
are required").

**One GEMV per Lloyd step.**  A point joins the first cluster when
``d0 <= d1``, its squared distances to the two centres as
``sum((x - c)**2)`` evaluates them.  Forming both takes two ``m x d``
subtractions and two reductions; their difference is
``s = ||c0||^2 - ||c1||^2 - 2 x.(c0 - c1)``, one GEMV.  The two
evaluations differ by rounding only: with ``T = ||x|| + ||c0|| + ||c1||``
each of ``d0``, ``d1`` and ``s`` is within about ``(d + 2) u T^2`` of its
exact value (``u`` the unit roundoff, every error a sum of at most
``d + 3`` roundings of terms bounded by ``T^2``), so a row whose ``|s|``
exceeds the band ``_TIE_SAFETY (d + 2) u T^2`` gets the answer of
``d0 <= d1`` from the sign of ``s``.  The rows inside the band — near
ties, exact ties, anything not finite — and the branch where one cluster
takes every point are decided by ``d0 <= d1`` formed as before on their
own rows, which gives the same bits: every row's sum is reduced on its
own.  Masks, trees and everything downstream are therefore bitwise what
the two-subtraction step gives (``tests/two_means_oracle.py`` keeps that
step as the oracle).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..utils.random import as_generator
from ..utils.validation import check_array_2d
from .tree import ClusterTree, tree_from_splitter


#: factor between ``(d + 2) u T^2`` and the band of rows a Lloyd step leaves
#: to the reference formula (its GEMV and that formula can disagree by up to
#: ~3 (d + 2) u T^2; the rest covers the rounding of the band itself)
_TIE_SAFETY = 8.0
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_TINY = np.finfo(np.float64).tiny


def _sq_distances(points: np.ndarray, center: np.ndarray) -> np.ndarray:
    """``sum((x - center)**2)`` per row: the reference distance formula."""
    diff = points - center
    return np.einsum("ij,ij->i", diff, diff)


def _seed_centers(points: np.ndarray, rng: np.random.Generator
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pick two initial centres with distance-proportional seeding.

    Also returns the squared distances to the first centre, which bound
    every point's norm for the Lloyd steps' rounding band.
    """
    n = points.shape[0]
    first = int(rng.integers(n))
    c0 = points[first]
    sq = _sq_distances(points, c0)
    total = float(sq.sum())
    if total <= 0.0:
        # All points identical: any second centre works.
        second = int(rng.integers(n))
    else:
        second = int(rng.choice(n, p=sq / total))
    return c0.copy(), points[second].copy(), sq


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
    m, d = points.shape
    if m < 2:
        return np.ones(m, dtype=bool)
    c0, c1, seed_sq = _seed_centers(points, rng)
    # ||x|| <= ||x - c_seed|| + ||c_seed||, for the rounding band below
    radius = np.sqrt(seed_sq) + np.sqrt(c0 @ c0)
    scale = _TIE_SAFETY * (d + 2)
    assign = np.zeros(m, dtype=bool)
    for _ in range(max(int(max_iter), 1)):
        # d0 - d1 = ||c0||^2 - ||c1||^2 - 2 x.(c0 - c1), one GEMV; the
        # rows it cannot decide for certain take the reference formula
        # (see the module docstring).
        n0, n1 = c0 @ c0, c1 @ c1
        s = (n0 - n1) - 2.0 * (points @ (c0 - c1))
        band = scale * (_UNIT_ROUNDOFF * (radius + (np.sqrt(n0) + np.sqrt(n1)))
                        ** 2 + _TINY)
        new_assign = s <= 0.0
        sure = np.abs(s) > band
        if not sure.all():
            near = np.flatnonzero(~sure)
            new_assign[near] = (_sq_distances(points[near], c0)
                                <= _sq_distances(points[near], c1))
        if new_assign.all() or not new_assign.any():
            # One cluster swallowed everything; split at the median distance
            # from the surviving centre so progress is always made.
            dist = _sq_distances(points, c0 if new_assign.all() else c1)
            new_assign = dist <= np.median(dist)
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


class TwoMeansSplitter:
    """Stateful splitter wrapping :func:`two_means_split` for tree building."""

    def __init__(self, max_iter: int = 20):
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        self.max_iter = int(max_iter)

    def __call__(self, points: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return two_means_split(points, rng=rng, max_iter=self.max_iter)


def two_means_tree(
    X: np.ndarray,
    leaf_size: int = 16,
    max_iter: int = 20,
    seed=None,
) -> ClusterTree:
    """Build the recursive two-means (2MN) cluster tree.

    Because the seeding is random, different seeds give slightly different
    trees; the paper averages the 2MN memory numbers over three runs
    (Section 5.2).  Pass explicit ``seed`` values to reproduce that protocol.
    """
    X = check_array_2d(X, "X")
    rng = as_generator(seed)
    return tree_from_splitter(X, TwoMeansSplitter(max_iter=max_iter),
                              leaf_size=leaf_size, rng=rng)

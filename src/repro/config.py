"""Global configuration objects shared across the library.

The defaults mirror the settings used throughout the paper:

* HSS leaf size of 16 (Section 4.3: "chosen to be 16 for HSS") — the HSS
  partition *is* the cluster tree, so this is
  :attr:`ClusteringOptions.leaf_size`,
* compression tolerance of 0.1 (Section 5.2: "With STRUMPACK tolerance set
  to be at most 0.1, the prediction accuracy does not seem to depend on the
  preprocessing methods"),
* Gaussian kernel with bandwidth ``h`` and ridge parameter ``lambda``
  chosen per dataset (Table 2 / Table 3).

Configuration objects are plain frozen dataclasses so they can be hashed,
compared and safely shared between threads.  They are also the ``hss`` /
``hmatrix`` / ``clustering`` sections of :class:`repro.runtime.RuntimeConfig`
(every field is a ``repro.toml`` key), so this module is the one place
these defaults and their range checks live.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional


@dataclass(frozen=True)
class HSSOptions:
    """Options controlling HSS compression and factorization.

    The size of the diagonal (leaf) blocks is not an option here: the HSS
    partition is the cluster tree handed to the builder, whose leaves are
    sized by :attr:`ClusteringOptions.leaf_size`.

    Parameters
    ----------
    rel_tol:
        Relative tolerance used by the low-rank compression of off-diagonal
        (Hankel) blocks.  This is the analogue of STRUMPACK's
        ``--hss_rel_tol``.
    max_rank:
        Hard cap on the rank of any off-diagonal block.  ``None`` means no
        cap (ranks are still bounded by the block size).
    initial_samples:
        Number of random vectors used at the start of the adaptive
        randomized construction (STRUMPACK's ``--hss_d0``).
    sample_increment:
        Minimum number of random vectors added whenever the adaptive
        construction detects that the current sample does not capture the
        range (STRUMPACK's ``--hss_dd``); the sample at least doubles at
        every enlargement so high-rank problems converge in O(log n)
        rounds.  An enlargement is a restart: a fresh sample of the new
        width is drawn and the attempt at the old width is discarded
        (:mod:`repro.hss.build_random` says why, and why that costs one
        subtree rather than the tree).
    max_adaptive_rounds:
        Safety bound on the number of attempts that may ask for a bigger
        sample.  When the last of them still meets a saturated node, one
        more sample of the grown width is drawn and its ranks are accepted
        as they are, so a build makes at most ``max_adaptive_rounds + 1``
        sampling sweeps (``SamplingStats.rounds`` counts them).  The
        default of 12 allows the geometric growth to reach the full matrix
        dimension for any practical problem size.
    oversampling:
        Extra samples beyond the detected rank kept to make the range
        estimate robust.

    The matrix compressed is a kernel matrix without the ridge shift, so
    it is symmetric: the builders reuse the row compression for the
    columns.
    """

    rel_tol: float = 1e-1
    max_rank: Optional[int] = None
    initial_samples: int = 32
    sample_increment: int = 16
    max_adaptive_rounds: int = 12
    oversampling: int = 8

    def __post_init__(self) -> None:
        if self.rel_tol <= 0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.initial_samples < 1:
            raise ValueError("initial_samples must be >= 1")
        if self.sample_increment < 1:
            raise ValueError("sample_increment must be >= 1")
        if self.max_adaptive_rounds < 0:
            raise ValueError("max_adaptive_rounds must be >= 0")
        if self.oversampling < 0:
            raise ValueError("oversampling must be >= 0")
        if self.max_rank is not None and self.max_rank < 1:
            raise ValueError("max_rank must be >= 1 or None")

    def with_(self, **kwargs) -> "HSSOptions":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class HMatrixOptions:
    """Options controlling the H-matrix (strong admissibility) compression.

    Parameters
    ----------
    leaf_size:
        Maximum size of an inadmissible dense block.
    admissibility_eta:
        Admissibility parameter ``eta``.  With the ``"box"`` criterion a
        block ``(s, t)`` is admissible when
        ``min(diam(s), diam(t)) <= eta * dist(s, t)``; with the default
        ``"centroid"`` criterion when the centroid distance exceeds
        ``eta * (radius_s + radius_t)``.
    admissibility:
        ``"centroid"`` (default, suited to high-dimensional kernel data) or
        ``"box"`` (textbook strong admissibility on bounding boxes).
    rel_tol:
        Relative stopping tolerance of the ACA compression of admissible
        blocks.
    max_rank:
        Hard cap on the ACA rank of an admissible block.
    """

    leaf_size: int = 64
    admissibility_eta: float = 1.0
    admissibility: str = "centroid"
    rel_tol: float = 1e-2
    max_rank: Optional[int] = None

    def __post_init__(self) -> None:
        if self.leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        if self.admissibility_eta <= 0:
            raise ValueError("admissibility_eta must be positive")
        if self.admissibility not in ("centroid", "box"):
            raise ValueError("admissibility must be 'centroid' or 'box'")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if self.max_rank is not None and self.max_rank < 1:
            raise ValueError("max_rank must be >= 1 or None")

    def with_(self, **kwargs) -> "HMatrixOptions":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class ClusteringOptions:
    """Options controlling the preprocessing / reordering step.

    Parameters
    ----------
    method:
        One of ``"natural"``, ``"two_means"``, ``"kd"``, ``"pca"``,
        ``"ball"``, ``"agglomerative"`` (see :mod:`repro.clustering`).
    leaf_size:
        Recursion stops when clusters reach this size; this becomes the HSS
        leaf size when the resulting tree drives the HSS partition.
    max_iter:
        Maximum number of Lloyd iterations for the two-means splitter.
    balance_threshold:
        K-d tree mean-splitting falls back to the median when one side is
        more than ``balance_threshold`` times larger than the other
        (the paper uses 100).
    seed:
        Seed for the random choices (two-means initialisation).
    """

    method: str = "two_means"
    leaf_size: int = 16
    max_iter: int = 20
    balance_threshold: float = 100.0
    seed: Optional[int] = 0

    def __post_init__(self) -> None:
        if self.leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.balance_threshold < 1:
            raise ValueError("balance_threshold must be >= 1")

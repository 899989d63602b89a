"""Randomized (partially matrix-free) HSS construction.

This is the STRUMPACK-style construction the paper relies on
(Section 1.1 / 3.1): the input matrix is only accessed through

* a black-box product ``A @ R`` with a block of random vectors — the
  *sampling* phase (``A`` is a kernel matrix, so ``A.T @ R`` is the same
  product and the column bases are the row ones), and
* extraction of selected entries — used for the diagonal blocks ``D_i`` and
  the coupling blocks ``B_ij`` at the skeleton rows/columns.

The algorithm is the one of Martinsson (2011): walk the cluster tree bottom
up; at every node form the *local sample* of its off-diagonal block row by
subtracting the already-known diagonal contribution from the global sample,
compress it with a row interpolative decomposition, and propagate both the
selected skeleton rows and the compressed random blocks to the parent.

Adaptivity: if any node's interpolation rank comes within ``oversampling``
columns of the number of random vectors, the sample is considered
insufficient, the number of random vectors is at least doubled and the
construction is *restarted* on a fresh sample.  STRUMPACK instead grows the
sample incrementally (it keeps the nodes already compressed and appends
columns).  That was measured here and is faster still, but it is not the
same approximation: nodes compressed against the narrow sample keep
systematically smaller ranks — relative error ``|K - K~| / |K|`` at
``rel_tol = 0.1`` went 0.212 → 0.246 on the ledger's ``lowdim`` workload
and 0.403 → 0.691 on ``unclustered`` (0.031 → 0.044 and 0.039 → 0.144 at
``1e-2``; both exact at ``1e-6``), and ``lowdim`` test accuracy 0.8466 →
0.7147.  So the restart stays, and what it costs is kept small instead.

Whether a sample is insufficient does not depend on the order the nodes are
visited in (a node's result is a function of the sample and of its own
subtree), but how soon that is found out does.  A level-by-level walk
compresses every deeper level of the whole tree — most of a binary tree —
before it meets the first saturated node; the walk here is post-order,
subtree by subtree, so a saturated node is met right after its own subtree
and a discarded attempt costs one subtree plus its sampling sweep.  The
leaf diagonal blocks are exact matrix entries that no sample changes, so
they are extracted once per build, not once per attempt.

The sampling operator can be the exact kernel operator (cost ``O(n^2)`` per
sweep, the paper's bottleneck) or the H-matrix accelerated sampler
(:class:`repro.hmatrix.HMatrixSampler`), which is the paper's main
performance contribution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..clustering.tree import ClusterTree
from ..config import HSSOptions
from ..lowrank.interpolative import row_id
from ..utils.random import as_generator
from ..utils.timing import TimingLog
from .generators import HSSNodeData
from .hss_matrix import HSSMatrix

#: ``(node_id, left, right, start, stop, is_leaf)``: all a visit asks of the
#: cluster tree
_Node = Tuple[int, int, int, int, int, bool]


@dataclass
class SamplingStats:
    """Bookkeeping of the randomized construction.

    Attributes
    ----------
    random_vectors:
        Number of random vectors of the last sampling sweep — the one the
        returned generators were compressed against (STRUMPACK's adaptive
        ``d``).
    rounds:
        Number of sampling sweeps (1 = no restart needed).
    sample_time:
        Seconds spent in the black-box product ``A @ R`` (the paper's
        "Sampling" row of Table 4), discarded attempts included.
    other_time:
        Seconds spent in everything else (IDs, element extraction, tree
        bookkeeping) — the paper's "Other" row.
    element_evaluations:
        Number of matrix entries extracted through the element interface.
    nodes_compressed:
        Node visits over all attempts (the tree size when no restart was
        needed).
    nodes_discarded:
        Node visits of the attempts that ended at a saturated node.
    discarded_time:
        Seconds (sampling and other) spent in those attempts.
    """

    random_vectors: int = 0
    rounds: int = 0
    sample_time: float = 0.0
    other_time: float = 0.0
    element_evaluations: int = 0
    nodes_compressed: int = 0
    nodes_discarded: int = 0
    discarded_time: float = 0.0

    @property
    def construction_time(self) -> float:
        """Total HSS construction time (sampling + other)."""
        return self.sample_time + self.other_time


class _SaturatedSample(Exception):
    """Raised internally when the random sample is too small for a node."""


def _dimension(operator) -> int:
    return operator.n if hasattr(operator, "n") else operator.shape[0]


def _node_schedule(tree: ClusterTree) -> Tuple[_Node, ...]:
    """One :data:`_Node` per tree node, indexed by node id, read off once."""
    return tuple((node_id, nd.left, nd.right, nd.start, nd.stop, nd.is_leaf)
                 for node_id, nd in enumerate(tree.nodes))


def _postorder(nodes: Sequence[_Node], top: int) -> List[_Node]:
    """The subtree of ``top``, children before parents, left before right."""
    order, stack = [], [top]
    while stack:
        node = nodes[stack.pop()]
        order.append(node)
        if not node[5]:
            stack.extend(node[1:3])
    return order[::-1]


class _Sample:
    """One random sample and the node kernel that compresses against it.

    Drawing the sample is the *sampling* phase (the constructor); every
    node visit afterwards reads the sample, the leaf blocks and its own
    children's results only, so visits of disjoint subtrees are
    independent.
    """

    def __init__(self, operator, opts: HSSOptions, rng: np.random.Generator,
                 n_random: int, leaves: Dict[int, tuple], root: int,
                 accept_saturated: bool):
        self.operator = operator
        self.opts = opts
        self.n_random = n_random
        self.leaves = leaves
        self.root = root
        self.accept_saturated = accept_saturated
        #: ids of the nodes visited so far
        self.visited: List[int] = []
        self.R = rng.standard_normal((_dimension(operator), n_random))
        self.S = np.asarray(operator.matmat(self.R), dtype=np.float64)

    def _interpolate(self, sample_loc: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """Row-ID compress a local sample; raise if it looks saturated."""
        opts = self.opts
        rid = row_id(sample_loc, rel_tol=opts.rel_tol, max_rank=opts.max_rank)
        if not self.accept_saturated:
            rank_capped = opts.max_rank is not None and rid.rank >= opts.max_rank
            sample_limited = rid.rank >= self.n_random - opts.oversampling
            if sample_limited and not rank_capped and sample_loc.shape[0] > rid.rank:
                # The detected rank is limited by the number of random
                # vectors rather than by the block itself: ask for a bigger
                # sample.
                raise _SaturatedSample()
        return rid.interp, rid.skeleton

    def node(self, node: _Node, carries):
        """Compute one node's generators: ``(data, carry)``.

        ``carries[child]`` holds each child's carry: what the parent will
        need — the local sample restricted to the skeleton, the
        compressed random block ``U^T R(I, :)`` and the skeleton's global
        rows; it is ``None`` at the root.  The matrix is symmetric, so the
        basis and skeleton serve the columns too and the block below the
        children's diagonal is ``B12^T``.
        """
        node_id, left, right, start, stop, is_leaf = node
        self.visited.append(node_id)
        data = HSSNodeData()

        if is_leaf:
            index, data.D = self.leaves[node_id]
            if node_id == self.root:
                data.U = np.zeros((stop - start, 0))
                return data, None
            r_in = self.R[start:stop]
            sample = self.S[start:stop] - data.D @ r_in
        else:
            s1, r1, k1 = carries[left]
            s2, r2, k2 = carries[right]
            data.B12 = np.asarray(self.operator.block(k1, k2),
                                  dtype=np.float64)
            if node_id == self.root:
                return data, None
            sample = np.concatenate((s1 - data.B12 @ r2, s2 - data.B12.T @ r1))
            index = np.concatenate((k1, k2))
            r_in = np.concatenate((r1, r2))

        data.U, skel = self._interpolate(sample)
        return data, (sample[skel], data.U.T @ r_in, index[skel])

    def walk(self, order: Sequence[_Node]) -> Dict[int, HSSNodeData]:
        """Visit the nodes of ``order`` (a post-order): generators by node id.

        A node's carry is dropped as soon as its parent is done.
        """
        node_data: Dict[int, HSSNodeData] = {}
        carries: Dict[int, Optional[tuple]] = {}
        for node in order:
            node_data[node[0]], carries[node[0]] = self.node(node, carries)
            if not node[5]:
                del carries[node[1]], carries[node[2]]
        return node_data


def build_hss_randomized(
    operator,
    tree: ClusterTree,
    options: Optional[HSSOptions] = None,
    rng=None,
    timing: Optional[TimingLog] = None,
) -> Tuple[HSSMatrix, SamplingStats]:
    """Build an HSS approximation of ``operator`` using randomized sampling.

    Parameters
    ----------
    operator:
        Any object exposing the partially matrix-free interface of a
        **symmetric** matrix — a kernel matrix without the ridge shift:
        ``matmat(V)``, ``block(rows, cols)`` and the ``n`` / ``shape``
        attributes.  The operator must represent the matrix **in the
        permuted ordering** of ``tree`` (build it from the reordered
        points).
    tree:
        Cluster tree defining the HSS partition.
    options:
        :class:`repro.config.HSSOptions`.
    rng:
        Seed or generator for the random sample.
    timing:
        Optional :class:`repro.utils.TimingLog`; phases ``hss_sampling`` and
        ``hss_other`` are accumulated into it.

    Returns
    -------
    (HSSMatrix, SamplingStats)
    """
    opts = options if options is not None else HSSOptions()
    rng = as_generator(rng)
    log = timing if timing is not None else TimingLog()
    n = _dimension(operator)
    if tree.n != n:
        raise ValueError(f"tree covers {tree.n} points but operator has dimension {n}")

    n_random = min(max(opts.initial_samples, 2 * opts.oversampling + 2), n)
    stats = SamplingStats()
    start_elements = getattr(operator, "element_evaluations", 0)

    def leaf_block(node: _Node):
        index = np.arange(node[3], node[4], dtype=np.intp)
        return index, np.asarray(operator.block(index, index), dtype=np.float64)

    t0 = time.perf_counter()
    nodes = _node_schedule(tree)
    order = _postorder(nodes, tree.root)
    leaf_nodes = [node for node in nodes if node[5]]
    leaves = dict(zip((node[0] for node in leaf_nodes),
                      map(leaf_block, leaf_nodes)))
    setup_seconds = time.perf_counter() - t0
    stats.other_time += setup_seconds
    log.add("hss_other", setup_seconds)

    # Attempts that may still ask for a bigger sample; the one after the
    # last of them accepts whatever rank its sample gives.
    strict_left = opts.max_adaptive_rounds
    while True:
        stats.rounds += 1
        stats.random_vectors = n_random
        t0 = time.perf_counter()
        sample = _Sample(operator, opts, rng, n_random, leaves, tree.root,
                         accept_saturated=strict_left <= 0)
        t1 = time.perf_counter()
        try:
            walked = sample.walk(order)
            node_data = [walked[i] for i in range(tree.n_nodes)]
        except _SaturatedSample:
            node_data = None
        t2 = time.perf_counter()
        stats.sample_time += t1 - t0
        stats.other_time += t2 - t1
        log.add("hss_sampling", t1 - t0)
        log.add("hss_other", t2 - t1)
        stats.nodes_compressed += len(sample.visited)
        if node_data is not None:
            break
        stats.nodes_discarded += len(sample.visited)
        stats.discarded_time += t2 - t0
        if n_random >= n:
            # Cannot enlarge further: take a fresh full-width sample and
            # accept its ranks.
            strict_left = 0
        else:
            # Grow the sample geometrically (like STRUMPACK's doubling)
            # so a high-rank problem is reached in O(log n) restart
            # rounds; an additive increment would need too many rounds
            # and could leave the compression short of its tolerance.
            strict_left -= 1
            n_random = min(max(2 * n_random,
                               n_random + opts.sample_increment), n)

    stats.element_evaluations = getattr(operator, "element_evaluations",
                                        0) - start_elements
    return HSSMatrix(tree, node_data), stats

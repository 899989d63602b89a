"""Deterministic partition of a cluster tree into shard-owned subtrees.

The paper's distributed runs give every MPI rank a *subtree* of the cluster
tree: cutting the binary tree at a top level yields contiguous index ranges
(one per subtree), each rank builds the HSS approximation of its own
diagonal block, and only the top separator levels are treated globally.
:class:`ShardPlan` reproduces that decomposition for the process-sharded
training path of :mod:`repro.distributed`:

* the tree is cut at the smallest level whose frontier has at least
  ``n_shards`` nodes (leaves above the cut stay on the frontier);
* frontier subtrees are grouped into ``n_shards`` **contiguous** ranges by
  a deterministic balanced partition of the point counts, so the same tree
  and shard count always produce bit-identical plans;
* each shard's subtrees are re-rooted into one local
  :class:`repro.clustering.ClusterTree` (synthetic merge nodes join
  multiple frontier subtrees), which the single-process HSS / ULV
  builders consume unchanged.

The plan also fixes the deterministic ownership of the inter-shard coupling
blocks (`pair_owner`) used by the distributed factorization.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..clustering.tree import ClusterNode, ClusterTree
from ..runtime.host import visible_cores


def resolve_shards(shards: Optional[int]) -> int:
    """Resolve a ``shards`` option value to a concrete process count.

    Parameters
    ----------
    shards:
        ``None`` consults the ``REPRO_SHARDS`` environment variable (the
        CI matrix uses it to route the distributed test module through 2
        worker processes) and defaults to 1 — single-process — when
        unset.  The variable must hold a positive integer; anything else
        (garbage, zero, negative) raises a :class:`ValueError` naming the
        variable instead of being silently ignored.  An explicit ``0``
        argument means "one shard per visible core"; positive values are
        taken literally.

    Returns
    -------
    int
        The concrete shard / worker-process count (always >= 1).

    Raises
    ------
    ValueError
        If ``shards`` is negative, or ``REPRO_SHARDS`` holds anything but
        a positive integer.
    """
    if shards is None:
        env = os.environ.get("REPRO_SHARDS", "").strip()
        if not env:
            return 1
        try:
            value = int(env)
        except ValueError:
            raise ValueError(
                f"invalid REPRO_SHARDS={env!r}: must be a positive "
                f"integer (unset it for the single-process default)") from None
        if value <= 0:
            raise ValueError(
                f"invalid REPRO_SHARDS={env!r}: must be a positive "
                f"integer (pass shards=0 explicitly for one per core)")
        return value
    shards = int(shards)
    if shards < 0:
        raise ValueError("shards must be >= 0 or None")
    if shards == 0:
        return visible_cores()
    return shards


class ShardPlan:
    """Ownership map of ``n_shards`` contiguous subtree shards of one tree.

    Parameters
    ----------
    tree:
        The global cluster tree (permuted ordering).
    cut_level:
        Tree level at which the frontier was taken.
    frontier:
        Frontier node indices, ordered by their position range; together
        they partition ``[0, n)``.
    owner:
        Shard id of every frontier node (non-decreasing; every shard owns
        at least one node).

    Use :meth:`from_tree` to construct a plan; the constructor only
    validates a given assignment.
    """

    def __init__(self, tree: ClusterTree, cut_level: int,
                 frontier: Sequence[int], owner: Sequence[int]):
        self.tree = tree
        self.cut_level = int(cut_level)
        self.frontier: Tuple[int, ...] = tuple(int(f) for f in frontier)
        self.owner: Tuple[int, ...] = tuple(int(o) for o in owner)
        self._validate()
        self.n_shards = self.owner[-1] + 1
        bounds = [0]
        for f, o in zip(self.frontier, self.owner):
            nd = tree.node(f)
            if o == len(bounds) - 1:
                bounds[-1] = nd.stop
            else:
                bounds.append(nd.stop)
        #: permuted-position boundaries: shard ``s`` owns ``[b[s], b[s+1])``
        self.boundaries = np.concatenate(
            [[0], np.asarray(bounds, dtype=np.intp)])

    def _validate(self) -> None:
        if not self.frontier:
            raise ValueError("plan must have at least one frontier node")
        if len(self.frontier) != len(self.owner):
            raise ValueError("frontier and owner must have the same length")
        pos = 0
        for f in self.frontier:
            nd = self.tree.node(f)
            if nd.start != pos:
                raise ValueError(
                    f"frontier does not partition [0, {self.tree.n}): node "
                    f"{f} starts at {nd.start}, expected {pos}")
            pos = nd.stop
        if pos != self.tree.n:
            raise ValueError("frontier does not cover the full index range")
        prev = 0
        for o in self.owner:
            if o < prev or o > prev + 1:
                raise ValueError(
                    "owner must be non-decreasing with no empty shard")
            prev = o
        if self.owner[0] != 0:
            raise ValueError("shard ids must start at 0")

    # ------------------------------------------------------------- factory
    @classmethod
    def from_tree(cls, tree: ClusterTree, n_shards: int,
                  cut_level: Optional[int] = None) -> "ShardPlan":
        """Cut ``tree`` into ``n_shards`` contiguous subtree shards.

        The same ``(tree, n_shards, cut_level)`` always yields the same
        plan — the construction involves no randomness and no floating
        point, so plans are bitwise deterministic for any shard count.
        """
        n_shards = int(n_shards)
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        n_leaves = len(tree.leaves())
        if n_shards > n_leaves:
            raise ValueError(
                f"cannot cut a tree with {n_leaves} leaves into {n_shards} "
                f"shards; reduce the shard count or the leaf size")

        def frontier_at(level: int) -> List[int]:
            # A node is on the frontier if it sits exactly at the cut level
            # or is a leaf above it (shallow branches end early).
            out = [i for i, nd in enumerate(tree.nodes)
                   if nd.level == level or (nd.is_leaf and nd.level < level)]
            out.sort(key=lambda i: tree.node(i).start)
            return out

        if cut_level is None:
            level = 0
            while len(frontier_at(level)) < n_shards:
                level += 1
        else:
            level = int(cut_level)
            if len(frontier_at(level)) < n_shards:
                raise ValueError(
                    f"cut level {level} yields fewer than {n_shards} subtrees")
        frontier = frontier_at(level)

        owner = cls._balanced_owner(
            [tree.node(f).size for f in frontier], tree.n, n_shards)
        return cls(tree, level, frontier, owner)

    @staticmethod
    def _balanced_owner(sizes: Sequence[int], n: int,
                        n_shards: int) -> List[int]:
        """Contiguous size-balanced assignment of frontier nodes to shards."""
        m = len(sizes)
        cum = np.cumsum(np.asarray(sizes, dtype=np.int64))
        cuts = [0]
        for s in range(1, n_shards):
            target = s * n / n_shards
            j = int(np.searchsorted(cum, target, side="left")) + 1
            j = max(j, cuts[-1] + 1)          # at least one node per shard
            j = min(j, m - (n_shards - s))    # leave one node per later shard
            cuts.append(j)
        cuts.append(m)
        owner = []
        for s in range(n_shards):
            owner.extend([s] * (cuts[s + 1] - cuts[s]))
        return owner

    # ----------------------------------------------------------- accessors
    @property
    def n(self) -> int:
        """Total number of points the plan covers (the tree's ``n``)."""
        return self.tree.n

    def shard_range(self, shard: int) -> Tuple[int, int]:
        """Permuted-position range ``[start, stop)`` owned by ``shard``."""
        if not 0 <= shard < self.n_shards:
            raise ValueError(f"shard must be in [0, {self.n_shards})")
        return int(self.boundaries[shard]), int(self.boundaries[shard + 1])

    def shard_size(self, shard: int) -> int:
        """Number of points owned by ``shard``."""
        start, stop = self.shard_range(shard)
        return stop - start

    def shard_sizes(self) -> np.ndarray:
        """Per-shard point counts, in shard order."""
        return np.diff(self.boundaries)

    def shard_frontier(self, shard: int) -> List[int]:
        """Frontier node ids owned by ``shard`` (in position order)."""
        return [f for f, o in zip(self.frontier, self.owner) if o == shard]

    # --------------------------------------------------------------- pairs
    def pairs(self) -> List[Tuple[int, int]]:
        """All unordered shard pairs ``(s, t)`` with ``s < t``."""
        return [(s, t) for s in range(self.n_shards)
                for t in range(s + 1, self.n_shards)]

    def pair_owner(self, s: int, t: int) -> int:
        """Shard that compresses the coupling block of pair ``(s, t)``.

        Alternates between the two members so the per-shard ACA work is
        balanced; deterministic by construction.
        """
        if s > t:
            s, t = t, s
        return s if (s + t) % 2 == 0 else t

    def owned_pairs(self, shard: int) -> List[Tuple[int, int]]:
        """The coupling pairs whose ACA compression ``shard`` performs."""
        return [(s, t) for (s, t) in self.pairs()
                if self.pair_owner(s, t) == shard]

    # ------------------------------------------------------------ subtrees
    def subtree(self, shard: int) -> ClusterTree:
        """The local cluster tree of one shard (positions ``[0, size)``).

        The shard's frontier subtrees are copied with their ranges shifted
        to start at 0; when a shard owns several subtrees they are joined
        bottom-up by synthetic merge nodes (pairwise, preserving position
        order), and node levels are recomputed from the new root.
        """
        roots = self.shard_frontier(shard)
        offset, stop = self.shard_range(shard)
        size = stop - offset
        nodes: List[ClusterNode] = []

        def copy_subtree(global_root: int) -> int:
            stack = [(global_root, -1, False)]
            new_root = -1
            while stack:
                gid, parent_new, is_right = stack.pop()
                nd = self.tree.node(gid)
                nid = len(nodes)
                nodes.append(ClusterNode(start=nd.start - offset,
                                         stop=nd.stop - offset,
                                         parent=parent_new))
                if parent_new >= 0:
                    if is_right:
                        nodes[parent_new].right = nid
                    else:
                        nodes[parent_new].left = nid
                else:
                    new_root = nid
                if not nd.is_leaf:
                    stack.append((nd.right, nid, True))
                    stack.append((nd.left, nid, False))
            return new_root

        root_ids = [copy_subtree(r) for r in roots]
        while len(root_ids) > 1:
            merged: List[int] = []
            for i in range(0, len(root_ids) - 1, 2):
                a, b = root_ids[i], root_ids[i + 1]
                pid = len(nodes)
                nodes.append(ClusterNode(start=nodes[a].start,
                                         stop=nodes[b].stop,
                                         left=a, right=b))
                nodes[a].parent = pid
                nodes[b].parent = pid
                merged.append(pid)
            if len(root_ids) % 2:
                merged.append(root_ids[-1])
            root_ids = merged
        root = root_ids[0]

        # Recompute levels top-down from the (possibly synthetic) root.
        nodes[root].level = 0
        stack = [root]
        while stack:
            nid = stack.pop()
            nd = nodes[nid]
            if nd.left >= 0:
                nodes[nd.left].level = nd.level + 1
                nodes[nd.right].level = nd.level + 1
                stack.extend((nd.left, nd.right))

        return ClusterTree(np.arange(size, dtype=np.intp), nodes, root=root)

    def subtrees(self) -> List[ClusterTree]:
        """Every shard's local cluster tree, in shard order."""
        return [self.subtree(s) for s in range(self.n_shards)]

    # -------------------------------------------------------- serialization
    def to_arrays(self, prefix: str = "shardplan.") -> dict:
        """Flatten the plan into arrays (see ``repro.serving.serialize``)."""
        return {
            f"{prefix}meta": np.array(
                [self.n, self.n_shards, self.cut_level], dtype=np.int64),
            f"{prefix}frontier": np.asarray(self.frontier, dtype=np.int64),
            f"{prefix}owner": np.asarray(self.owner, dtype=np.int64),
        }

    @classmethod
    def from_arrays(cls, arrays: dict, tree: ClusterTree,
                    prefix: str = "shardplan.") -> "ShardPlan":
        """Rebuild a plan over ``tree`` from :meth:`to_arrays` output."""
        try:
            meta = np.asarray(arrays[f"{prefix}meta"], dtype=np.int64)
            frontier = np.asarray(arrays[f"{prefix}frontier"], dtype=np.int64)
            owner = np.asarray(arrays[f"{prefix}owner"], dtype=np.int64)
        except KeyError as exc:
            raise KeyError(f"missing shard-plan array {exc}") from exc
        if int(meta[0]) != tree.n:
            raise ValueError(
                f"plan covers {int(meta[0])} points but the tree has {tree.n}")
        plan = cls(tree, int(meta[2]), frontier.tolist(), owner.tolist())
        if plan.n_shards != int(meta[1]):
            raise ValueError("shard-plan arrays are inconsistent")
        return plan

    # ----------------------------------------------------------------- misc
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShardPlan):
            return NotImplemented
        return (self.n == other.n and self.cut_level == other.cut_level
                and self.frontier == other.frontier
                and self.owner == other.owner)

    def __hash__(self) -> int:  # pragma: no cover - plans are rarely hashed
        return hash((self.n, self.cut_level, self.frontier, self.owner))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = ", ".join(str(int(s)) for s in self.shard_sizes())
        return (f"ShardPlan(n={self.n}, shards={self.n_shards}, "
                f"cut_level={self.cut_level}, sizes=[{sizes}])")

"""The compressed HSS matrix: storage, matvec, reconstruction, statistics."""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..clustering.tree import ClusterTree
from .generators import HSSNodeData
from .memory import HSSStatistics


class HSSMatrix:
    """A matrix stored in Hierarchically Semi-Separable form.

    The partition is given by a :class:`repro.clustering.ClusterTree` whose
    index ranges refer to the *permuted* ordering; the HSS matrix therefore
    represents the permuted matrix ``A_perm = A[perm][:, perm]``.  All
    operations (``matvec``, ``solve`` through
    :class:`repro.hss.ULVFactorization`) work in the permuted ordering; the
    KRR pipeline keeps its data permuted throughout so no back-and-forth
    mapping is needed until prediction time.

    The matrix is symmetric (a kernel matrix): a node's basis ``U`` spans
    both its off-diagonal block row and column, and the coupling block
    below the diagonal is ``B12^T`` (see :mod:`repro.hss.generators`), so
    ``A_perm.T @ x`` is :meth:`matvec`.

    Parameters
    ----------
    tree:
        Cluster tree defining the hierarchical partition.
    node_data:
        One :class:`HSSNodeData` per cluster-tree node (same indexing).
    """

    def __init__(self, tree: ClusterTree, node_data: List[HSSNodeData]):
        if len(node_data) != tree.n_nodes:
            raise ValueError(
                f"expected {tree.n_nodes} node data entries, got {len(node_data)}")
        self.tree = tree
        self.node_data = node_data
        self._validate()

    # ------------------------------------------------------------ validation
    def _validate(self) -> None:
        for node_id in self.tree.postorder():
            nd = self.tree.node(node_id)
            data = self.node_data[node_id]
            if nd.is_leaf:
                if data.D is None:
                    raise ValueError(f"leaf node {node_id} is missing its D block")
                if data.D.shape != (nd.size, nd.size):
                    raise ValueError(
                        f"leaf node {node_id} D block has shape {data.D.shape}, "
                        f"expected {(nd.size, nd.size)}")
            else:
                d1, d2 = self.node_data[nd.left], self.node_data[nd.right]
                if data.B12 is None:
                    raise ValueError(f"internal node {node_id} is missing its B12 block")
                if data.B12.shape != (d1.rank, d2.rank):
                    raise ValueError(
                        f"node {node_id} B12 has shape {data.B12.shape}, expected "
                        f"{(d1.rank, d2.rank)}")
                if node_id != self.tree.root:
                    if data.U is None:
                        raise ValueError(
                            f"internal non-root node {node_id} is missing its "
                            f"transfer matrix")
                    if data.U.shape[0] != d1.rank + d2.rank:
                        raise ValueError(
                            f"node {node_id} U transfer has {data.U.shape[0]} rows, "
                            f"expected {d1.rank + d2.rank}")

    # -------------------------------------------------------------- accessors
    @property
    def shape(self) -> tuple:
        return (self.tree.n, self.tree.n)

    @property
    def n(self) -> int:
        return self.tree.n

    def statistics(self) -> HSSStatistics:
        """Memory / rank statistics of the compressed representation."""
        return HSSStatistics.from_hss(self)

    @property
    def max_rank(self) -> int:
        """Largest off-diagonal rank in the structure (paper's "Maximum rank")."""
        return max((d.rank for d in self.node_data), default=0)

    @property
    def nbytes(self) -> int:
        """Total memory of all generators in bytes."""
        return sum(d.nbytes for d in self.node_data)

    # --------------------------------------------------------------- products
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Compute ``A_perm @ x`` in ``O(n r)`` operations."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        X = x[:, None] if single else x
        if X.shape[0] != self.n:
            raise ValueError(f"x has {X.shape[0]} rows, expected {self.n}")
        Y = self._matmat(X)
        return Y.ravel() if single else Y

    def _matmat(self, X: np.ndarray) -> np.ndarray:
        tree = self.tree
        data = self.node_data
        # --- up sweep: compressed products xt_i = U_i^(full)^T x(I_i); the
        # column bases of a symmetric matrix are its row bases
        xt: Dict[int, np.ndarray] = {}
        for node_id in tree.postorder():
            nd = tree.node(node_id)
            d = data[node_id]
            if nd.is_leaf:
                if d.U is not None and d.U.shape[1] > 0:
                    xt[node_id] = d.U.T @ X[nd.start:nd.stop]
                else:
                    xt[node_id] = np.zeros((0, X.shape[1]))
            else:
                stacked = np.vstack([xt[nd.left], xt[nd.right]])
                if node_id == tree.root or d.U is None:
                    xt[node_id] = stacked  # not used further
                else:
                    xt[node_id] = d.U.T @ stacked

        # --- down sweep: f_i vectors in the row-basis space of each node
        Y = np.zeros((self.n, X.shape[1]))
        f: Dict[int, np.ndarray] = {}
        order = list(tree.postorder())[::-1]  # parents before children
        for node_id in order:
            nd = tree.node(node_id)
            d = data[node_id]
            if nd.is_leaf:
                Y[nd.start:nd.stop] = d.D @ X[nd.start:nd.stop]
                fi = f.get(node_id)
                if fi is not None and d.U is not None and d.U.shape[1] > 0:
                    Y[nd.start:nd.stop] += d.U @ fi
                continue
            c1, c2 = nd.left, nd.right
            r1 = data[c1].rank
            # block (1, 2) is U_1 B12 U_2^T and block (2, 1) its transpose
            f1 = d.B12 @ xt[c2]
            f2 = d.B12.T @ xt[c1]
            fp = f.get(node_id)
            if fp is not None and d.U is not None and d.U.shape[1] > 0:
                prop = d.U @ fp
                f1 = f1 + prop[:r1]
                f2 = f2 + prop[r1:]
            f[c1] = f1
            f[c2] = f2
        return Y

    # ----------------------------------------------------------- full bases
    def full_bases(self) -> Dict[int, np.ndarray]:
        """Expand the nested bases into an explicit ``U_i`` per node.

        Only used for reconstruction and debugging — the whole point of the
        nested-basis property is that these are never formed during normal
        operation.
        """
        tree = self.tree
        data = self.node_data
        out: Dict[int, np.ndarray] = {}
        for node_id in tree.postorder():
            nd = tree.node(node_id)
            d = data[node_id]
            if nd.is_leaf:
                out[node_id] = d.U if d.U is not None else np.zeros((nd.size, 0))
            elif node_id == tree.root or d.U is None:
                out[node_id] = np.zeros((nd.size, 0))
            else:
                u1, u2 = out[nd.left], out[nd.right]
                block = np.zeros((nd.size, u1.shape[1] + u2.shape[1]))
                block[:u1.shape[0], :u1.shape[1]] = u1
                block[u1.shape[0]:, u1.shape[1]:] = u2
                out[node_id] = block @ d.U
        return out

    def to_dense(self) -> np.ndarray:
        """Reconstruct the dense (permuted) matrix. For testing / small n."""
        tree = self.tree
        data = self.node_data
        bases = self.full_bases()
        dense: Dict[int, np.ndarray] = {}
        for node_id in tree.postorder():
            nd = tree.node(node_id)
            d = data[node_id]
            if nd.is_leaf:
                dense[node_id] = d.D.copy()
                continue
            c1, c2 = nd.left, nd.right
            A11 = dense.pop(c1)
            A22 = dense.pop(c2)
            A12 = bases[c1] @ d.B12 @ bases[c2].T
            dense[node_id] = np.block([[A11, A12], [A12.T, A22]])
        return dense[tree.root]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"HSSMatrix(n={self.n}, max_rank={self.max_rank}, "
                f"memory={self.nbytes / 2**20:.2f} MB)")

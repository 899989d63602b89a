"""Per-node HSS generator storage.

Every node of the HSS tree owns a small set of dense generator matrices
(Figure 2/3 of the paper).  The paper's format is the general one, with
column bases ``V_i`` and both coupling blocks ``B_ij`` / ``B_ji``; every
matrix compressed here is a symmetric kernel matrix, whose column bases
are the row bases and whose ``B_ji`` is ``B_ij^T``, so a node stores only

* at a leaf, the dense diagonal block ``D`` and the explicit basis ``U``
  (row space of the off-diagonal block row, and so column space of the
  off-diagonal block column);
* at an internal node, the *transfer* matrix ``U`` in the nested-basis
  sense (``U_i = diag(U_c1, U_c2) @ U_tilde_i``) and the coupling block
  ``B12 = B_{c1,c2}`` between its two children (``B_{c2,c1} = B12^T``);
* at the root, only ``B12``.

The *skeleton* indices — the global rows (and so columns) the
interpolative decompositions selected — are not stored: the builders
carry them up their walk to extract the ``B12`` blocks directly from the
original matrix, and nothing after the build reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..utils.bytes import nbytes_of_arrays


@dataclass
class HSSNodeData:
    """Generators attached to one node of the HSS tree."""

    #: dense diagonal block (leaves only)
    D: Optional[np.ndarray] = None
    #: row and column basis (leaves: ``n_i x r``; internal: transfer matrix)
    U: Optional[np.ndarray] = None
    #: coupling block between the node's children: ``A(rows(c1), cols(c2))``
    B12: Optional[np.ndarray] = None

    @property
    def rank(self) -> int:
        """Number of columns of the basis (the paper's per-node rank)."""
        return 0 if self.U is None else int(self.U.shape[1])

    @property
    def nbytes(self) -> int:
        """Memory of all generators stored at this node: ``D``, ``U`` and
        ``B12`` (see :mod:`repro.hss.memory`)."""
        return nbytes_of_arrays((self.D, self.U, self.B12))

"""ULV factorization and solve for HSS matrices.

This implements the implicit ULV-type factorization of Chandrasekaran, Gu &
Pals (2006) used by STRUMPACK (the paper, Section 3.1: "STRUMPACK also
implements a ULV factorization algorithm, and a corresponding routine to
solve a linear system with the factored HSS matrix").

The idea, per tree node, is:

1. apply an orthogonal transform ``Omega_i`` to the block row so that the
   local row basis becomes ``[U_hat; 0]`` — the rows multiplying zero no
   longer couple to the rest of the matrix;
2. apply a second orthogonal transform ``Q_i`` from the right so that those
   decoupled rows become lower triangular — the corresponding unknowns can
   be eliminated locally by a small triangular solve;
3. the surviving ``rank(U_i)`` unknowns of the two children are merged at
   the parent into a small dense block, and the procedure repeats up the
   tree; the root solves a final small dense system.

Factorization (all orthogonal/triangular factors, independent of the right
hand side) and solve (two sweeps over the tree) are separate phases, so the
solve can be repeated cheaply for new right-hand sides — exactly how the
paper times "Factorization" and "Solve" separately in Table 4 and Figure 7b.

Complexity is ``O(n r^2)`` for the factorization and ``O(n r)`` per solve,
with ``r`` the maximum HSS rank.

The ridge shift ``+ lam I`` of the KRR training system is applied *here*,
at factorization time, rather than being baked into the HSS generators:
only the dense leaf diagonal blocks are affected by a diagonal shift, so
one λ-free compression (see :class:`repro.hss.CompressedKernel`) can be
re-factored at many λ values — :meth:`ULVFactorization.factor` — without
redoing the H-matrix or HSS construction.  This is the paper's
Section-5.3 observation ("When the parameter lambda changes, we only need
to update the diagonal entries of the HSS matrix") promoted into the
factorization API.

The same observation holds inside the sweep.  Step 1 never sees the
shift: ``Omega_i`` and ``U_hat_i`` come from a QR of the row basis, a
stored generator at a leaf and an assembly of the children's ``U_hat``
above.  Steps 2 and 3 do (the shifted diagonal reaches every ``Q_i``,
triangular factor, reduced block and the root).  So a factorization
built from another one of the same :class:`repro.hss.HSSMatrix` —
:meth:`ULVFactorization.refactor` — takes every node's ``Omega_i`` and
``U_hat_i`` from it **by reference** and runs steps 2 and 3 only, through
the one elimination routine a cold factorization runs.  Arrays shared
this way are read-only by convention: nothing writes into a stored
factor, so the older factorization keeps solving unchanged.

The per-node work is a handful of small dense operations, so the node
kernel calls ``dgeqrf`` / ``dorgqr`` / ``dtrtrs`` directly rather than
their ``scipy.linalg`` wrappers (same routines, same workspace sizes,
same bits) and checks each input for infs and NaNs itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgeqrf, dorgqr, dtrtrs

from ..lowrank.lapack import (raise_trtrs_info, require_finite,
                              with_optimal_workspace)
from ..utils.timing import TimingLog
from .hss_matrix import HSSMatrix


@dataclass
class _NodeFactors:
    """Per-node data stored by the factorization phase."""

    #: size of the local (leaf or merged) block
    n_loc: int = 0
    #: number of locally eliminated unknowns (``n_loc - rank(U)`` when positive)
    n_elim: int = 0
    #: left orthogonal transform (``Omega``), shape ``(n_loc, n_loc)``;
    #: λ-free — shared by reference between factorizations of one HSS matrix
    omega: Optional[np.ndarray] = None
    #: right orthogonal transform (``Q``), shape ``(n_loc, n_loc)``
    q: Optional[np.ndarray] = None
    #: lower-triangular factor of the eliminated rows, ``(n_elim, n_elim)``
    lower: Optional[np.ndarray] = None
    #: top rows of ``Omega D Q``: the coupling of surviving rows to eliminated
    #: unknowns (``d_hat1``) and to surviving unknowns (``d_hat2``)
    d_hat1: Optional[np.ndarray] = None
    d_hat2: Optional[np.ndarray] = None
    #: reduced row basis ``U_hat`` (``n_keep x rank(U)``); λ-free and shared
    #: by reference like ``omega``
    u_hat: Optional[np.ndarray] = None
    #: split of ``Q^T V``: rows of the eliminated part (``g1``) and kept part (``g2``)
    g1: Optional[np.ndarray] = None
    g2: Optional[np.ndarray] = None

    @property
    def n_keep(self) -> int:
        """Number of unknowns surviving to the parent."""
        return self.n_loc - self.n_elim

    @property
    def nbytes(self) -> int:
        total = 0
        for a in (self.omega, self.q, self.lower, self.d_hat1, self.d_hat2,
                  self.u_hat, self.g1, self.g2):
            if a is not None:
                total += a.nbytes
        return total


def _qr_full(a: np.ndarray):
    """Householder QR of a tall matrix (``rows >= cols``): ``(Q, packed)``.

    ``Q`` is the full ``rows x rows`` orthogonal factor and
    ``np.triu(packed[:cols])`` the square top of ``R`` — bitwise what
    scipy's ``qr(a, mode="full")`` returns, from the same ``dgeqrf`` /
    ``dorgqr`` calls, without the wrapper around them.
    """
    rows, cols = a.shape
    if cols == 0:
        return np.identity(rows), np.empty((rows, 0))
    packed, tau = with_optimal_workspace(dgeqrf, a)
    q = np.empty((rows, rows), order="F")
    q[:, :cols] = packed
    q, = with_optimal_workspace(dorgqr, q, tau, overwrite_a=1)
    return q, packed


def _solve_lower(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``lower^{-1} b`` by ``dtrtrs``.

    Like scipy's triangular-solve wrapper, a matrix that is not
    Fortran-ordered (a factor read back from an artifact can be either) is
    handed over as the transposed system, so both orders keep their bits.
    """
    if lower.flags.f_contiguous:
        x, info = dtrtrs(lower, b, lower=1)
    else:
        x, info = dtrtrs(lower.T, b, lower=0, trans=1)
    if info != 0:
        raise_trtrs_info(info)
    return x


def _level_schedule(tree):
    """``(node_id, left, right, start, stop)`` per node, by level, root first.

    ``left < 0`` marks a leaf.  Everything the factor and solve sweeps ask
    of the cluster tree, read off once.
    """
    levels = [[] for _ in range(tree.depth() + 1)]
    for node_id, nd in enumerate(tree.nodes):
        levels[nd.level].append(
            (node_id, nd.left, nd.right, nd.start, nd.stop))
    return tuple(tuple(level) for level in levels)


class ULVFactorization:
    """ULV factorization of an :class:`repro.hss.HSSMatrix`.

    Parameters
    ----------
    hss:
        The HSS matrix to factor.  The factorization does not modify it.
    timing:
        Optional :class:`repro.utils.TimingLog`; the constructor adds a
        ``factorization`` phase and :meth:`solve` adds ``solve`` phases.
    lam:
        Diagonal shift applied at factorization time: the factors represent
        ``A + lam I`` while ``hss`` itself stays λ-free.  Only the dense
        leaf diagonal blocks are shifted (copies; the generators are never
        mutated), which is what makes λ-refits cheap — see
        :meth:`refactor`.
    prior:
        A factorization of the same ``hss`` object at any shift (what
        :meth:`refactor` passes).  Every node then takes its left transform
        ``omega`` and reduced row basis ``u_hat`` from ``prior`` by
        reference instead of recomputing them — they come from a QR of
        the row bases, which never see the shift — and only the
        λ-dependent half of the elimination runs.  The result is bitwise
        the cold factorization and keeps no reference to ``prior`` itself.

    Notes
    -----
    The factorization assumes the HSS approximation itself is accurate
    enough for the downstream use; like STRUMPACK used as a solver at
    tolerance 0.1 in the paper, the result is an *approximate* direct
    solver whose residual is governed by the compression tolerance.

    Factorizations of one HSS matrix share their ``omega`` / ``u_hat``
    arrays, so stored factors are read-only by convention: nothing in the
    package writes into a ``_NodeFactors`` array after it is built.
    """

    def __init__(self, hss: HSSMatrix, timing: Optional[TimingLog] = None,
                 lam: float = 0.0, prior: Optional["ULVFactorization"] = None):
        if prior is not None and prior.hss is not hss:
            raise ValueError(
                "prior factors a different HSS matrix; its transforms "
                "cannot be reused")
        self.hss = hss
        self.lam = float(lam)
        log = timing if timing is not None else TimingLog()
        with log.phase("factorization"):
            self._factor(prior)
        self.timing = log

    @classmethod
    def factor(cls, hss: HSSMatrix, lam: float = 0.0,
               timing: Optional[TimingLog] = None) -> "ULVFactorization":
        """Factor a λ-free HSS matrix as ``A + lam I``, cold.

        The expensive compression is reused unchanged and the ``O(n r^2)``
        ULV elimination runs in full; with a factorization of the same
        compression at hand, :meth:`refactor` skips its λ-free half.

        Parameters
        ----------
        hss:
            The λ-free :class:`repro.hss.HSSMatrix` (the ``hss`` of a
            :class:`repro.hss.CompressedKernel`).
        lam:
            Diagonal shift; the factors represent ``A + lam I``.
        timing:
            Optional :class:`repro.utils.TimingLog` receiving the
            ``factorization`` phase.

        Returns
        -------
        ULVFactorization
            Factors of ``A + lam I``.
        """
        return cls(hss, timing=timing, lam=lam)

    def refactor(self, lam: float, timing: Optional[TimingLog] = None
                 ) -> "ULVFactorization":
        """Factor the same HSS matrix at another shift from these factors.

        This is the refit entry point of the compress-once / refit-many
        split.  The new factorization shares this one's λ-free arrays
        (``omega``, ``u_hat``) by reference and recomputes the rest, so it
        is **bitwise identical** to a cold :meth:`factor` at ``lam``; this
        object is left untouched and keeps solving.

        Parameters
        ----------
        lam:
            Diagonal shift of the new factorization.
        timing:
            Optional :class:`repro.utils.TimingLog` receiving the
            ``factorization`` phase.

        Returns
        -------
        ULVFactorization
            Factors of ``A + lam I``, holding no reference to ``self``.
        """
        return type(self)(self.hss, timing=timing, lam=lam, prior=self)

    @classmethod
    def factor_many(cls, hss: HSSMatrix, lams,
                    timing: Optional[TimingLog] = None
                    ) -> List["ULVFactorization"]:
        """Factor one HSS matrix at several shifts: cold once, then warm.

        The first shift is a cold :meth:`factor`; every later one is a
        :meth:`refactor` from it, so the λ-free half of the sweep runs
        once.  Each returned factorization is **bitwise identical** to a
        cold :meth:`factor` call at that shift.

        Parameters
        ----------
        hss:
            The λ-free :class:`repro.hss.HSSMatrix`.
        lams:
            Iterable of ridge shifts, factored in order.
        timing:
            Optional :class:`repro.utils.TimingLog`; the ``factorization``
            phases of all shifts accumulate into it.

        Returns
        -------
        list of ULVFactorization
            One factorization per entry of ``lams``, in order.
        """
        lams = [float(lam) for lam in lams]
        if not lams:
            return []
        first = cls.factor(hss, lam=lams[0], timing=timing)
        return [first] + [first.refactor(lam, timing=timing)
                          for lam in lams[1:]]

    @property
    def _schedule(self):
        """The tree's :func:`_level_schedule`, read off on first use.

        A factorization built from a ``prior`` starts with its schedule; a
        deserialized one (:func:`repro.serving.serialize.ulv_from_arrays`
        bypasses ``__init__``) has none yet.
        """
        levels = getattr(self, "_levels", None)
        if levels is None:
            levels = self._levels = _level_schedule(self.hss.tree)
        return levels

    # ---------------------------------------------------------------- factor
    @staticmethod
    def _eliminate(D: np.ndarray, U: Optional[np.ndarray], V: np.ndarray,
                   prior: Optional[_NodeFactors]) -> _NodeFactors:
        """The two orthogonal transforms and the local elimination.

        ``U`` is only read when there is no ``prior`` node to take
        ``omega`` / ``u_hat`` from.
        """
        n_loc = D.shape[0]
        ru = U.shape[1] if prior is None else prior.u_hat.shape[1]

        if ru >= n_loc:
            # Nothing can be eliminated locally; pass everything up unchanged.
            return _NodeFactors(
                n_loc=n_loc, n_elim=0, lower=np.zeros((0, 0)),
                d_hat1=np.zeros((n_loc, 0)), d_hat2=D.copy(),
                u_hat=U.copy() if prior is None else prior.u_hat,
                g1=np.zeros((0, V.shape[1])), g2=V.copy())

        # 1) Omega U = [U_hat; 0]  via a full QR of U.  U never carries
        # the ridge shift, so a prior factorization's pair is this one's.
        if prior is None:
            require_finite(U)
            q_left, packed = _qr_full(U)
            omega = q_left.T
            u_hat = np.triu(packed[:ru])
        else:
            omega, u_hat = prior.omega, prior.u_hat
        n_elim = n_loc - ru
        d_tilde = omega @ D

        # 2) Make the decoupled rows lower triangular: W Q = [L 0].
        W = d_tilde[ru:]
        require_finite(W)
        Q, packed = _qr_full(W.T)
        d_top = d_tilde[:ru] @ Q
        G = Q.T @ V
        return _NodeFactors(
            n_loc=n_loc, n_elim=n_elim, omega=omega, q=Q,
            lower=np.triu(packed[:n_elim]).T,  # (n_elim, n_elim) lower
            d_hat1=d_top[:, :n_elim], d_hat2=d_top[:, n_elim:],
            u_hat=u_hat, g1=G[:n_elim], g2=G[n_elim:])

    def _factor(self, prior: Optional["ULVFactorization"]) -> None:
        data = self.hss.node_data
        root = self.hss.tree.root
        lam = self.lam
        if prior is not None:
            self._levels = prior._schedule
        prior_factors = prior._factors if prior is not None else None
        factors: List[Optional[_NodeFactors]] = [None] * len(data)
        self._root_lu = None

        def factor_node(entry):
            """Eliminate one node; returns (factors, root_lu)."""
            node_id, left, right, start, stop = entry
            d = data[node_id]
            warm = prior_factors is not None and node_id != root
            U = None

            if left < 0:
                # The ridge shift lives only on the dense leaf diagonals;
                # shifting a copy here (exactly like HSSMatrix.shifted)
                # keeps the stored generators λ-free and reusable.
                D = d.D
                if lam != 0.0:
                    D = D.copy()
                    D.reshape(-1)[::D.shape[0] + 1] += lam
                if not warm:
                    U = d.U if d.U is not None \
                        else np.zeros((stop - start, 0))
                V = d.V if d.V is not None else np.zeros((stop - start, 0))
            else:
                # The reduced (D, V) a child hands up are its d_hat2 / g2.
                f1, f2 = factors[left], factors[right]
                n1, n = f1.n_keep, f1.n_keep + f2.n_keep
                D = np.empty((n, n))
                D[:n1, :n1] = f1.d_hat2
                D[:n1, n1:] = f1.u_hat @ d.B12 @ f2.g2.T
                D[n1:, :n1] = f2.u_hat @ d.B21 @ f1.g2.T
                D[n1:, n1:] = f2.d_hat2
                if node_id == root or d.U is None:
                    U = np.zeros((n, 0))
                    V = np.zeros((n, 0))
                else:
                    # The assembled U is λ-independent (children's u_hat
                    # come from λ-free QRs) and only feeds the QR a prior
                    # factorization already did; V is not — its g2 factors
                    # pass through the shift-dependent right transforms.
                    if not warm:
                        ru1 = f1.u_hat.shape[1]
                        U = np.empty((n, d.U.shape[1]))
                        U[:n1] = f1.u_hat @ d.U[:ru1]
                        U[n1:] = f2.u_hat @ d.U[ru1:]
                    rv1 = f1.g2.shape[1]
                    V = np.empty((n, d.V.shape[1]))
                    V[:n1] = f1.g2 @ d.V[:rv1]
                    V[n1:] = f2.g2 @ d.V[rv1:]

            if node_id == root:
                # Final dense system of the surviving unknowns.
                n = D.shape[0]
                root_lu = scipy.linalg.lu_factor(D) if n > 0 else None
                return _NodeFactors(
                    n_loc=n, n_elim=0, lower=np.zeros((0, 0)),
                    d_hat1=np.zeros((n, 0)), d_hat2=D,
                    u_hat=np.zeros((n, 0)), g1=np.zeros((0, 0)),
                    g2=np.zeros((n, 0))), root_lu

            return self._eliminate(
                D, U, V, prior_factors[node_id] if warm else None), None

        # Bottom-up elimination, level by level: a node only reads its
        # children's (already committed) factors.
        for level in reversed(self._schedule):
            for entry, (fac, root_lu) in zip(level, map(factor_node, level)):
                factors[entry[0]] = fac
                if entry[0] == root:
                    self._root_size = fac.n_loc
                    self._root_lu = root_lu
        self._factors = factors

    # ----------------------------------------------------------------- solve
    def solve(self, b: np.ndarray, timing: Optional[TimingLog] = None) -> np.ndarray:
        """Solve ``A_perm x = b`` for one or more right-hand sides.

        Parameters
        ----------
        b:
            Right-hand side(s) in the permuted ordering, shape ``(n,)`` or
            ``(n, k)``.
        timing:
            Optional log receiving a ``solve`` phase.

        Returns
        -------
        numpy.ndarray
            Solution with the same shape as ``b`` (permuted ordering).

        Raises
        ------
        ValueError
            If ``b`` has the wrong number of rows or holds infs or NaNs.
        """
        log = timing if timing is not None else self.timing
        with log.phase("solve"):
            return self._solve(b)

    def _solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=np.float64)
        single = b.ndim == 1
        B = b[:, None] if single else b
        if B.shape[0] != self.hss.n:
            raise ValueError(f"b has {B.shape[0]} rows, expected {self.hss.n}")
        require_finite(B)
        nrhs = B.shape[1]
        data = self.hss.node_data
        factors = self._factors
        root = self.hss.tree.root
        schedule = self._schedule

        # Per-node right-hand-side data produced by the forward sweep.
        z1: List[Optional[np.ndarray]] = [None] * len(factors)
        b_hat: List[Optional[np.ndarray]] = [None] * len(factors)
        beta: List[Optional[np.ndarray]] = [None] * len(factors)

        # ------------------------------ forward (bottom-up) sweep
        def forward_node(entry):
            """Returns the node's ``(z1, b_hat, beta)``."""
            node_id, left, right, start, stop = entry
            d = data[node_id]
            fac = factors[node_id]

            if left < 0:
                b_loc = B[start:stop]
            else:
                f1, f2 = factors[left], factors[right]
                n1 = f1.n_keep
                b_loc = np.empty((n1 + f2.n_keep, nrhs))
                np.subtract(b_hat[left], f1.u_hat @ (d.B12 @ beta[right]),
                            out=b_loc[:n1])
                np.subtract(b_hat[right], f2.u_hat @ (d.B21 @ beta[left]),
                            out=b_loc[n1:])

            if node_id == root:
                if self._root_lu is not None and b_loc.shape[0] > 0:
                    return None, scipy.linalg.lu_solve(self._root_lu,
                                                       b_loc), None
                return None, np.zeros((0, nrhs)), None

            if fac.n_elim > 0:
                ru = fac.u_hat.shape[1]
                b_tilde = fac.omega @ b_loc
                z = _solve_lower(fac.lower, b_tilde[ru:])
                reduced = b_tilde[:ru] - fac.d_hat1 @ z
                beta_local = fac.g1.T @ z
            else:
                z = np.zeros((0, nrhs))
                reduced = b_loc.copy()
                beta_local = np.zeros((fac.g2.shape[1], nrhs))

            if left >= 0 and d.V is not None and d.V.shape[1] > 0:
                beta_local = d.V.T @ np.concatenate(
                    (beta[left], beta[right])) + beta_local
            return z, reduced, beta_local

        for level in reversed(schedule):
            for entry, (z, reduced, beta_node) in zip(
                    level, map(forward_node, level)):
                node_id, left, right = entry[:3]
                z1[node_id], b_hat[node_id], beta[node_id] = \
                    z, reduced, beta_node
                if left >= 0:
                    # children right-hand-side buffers are no longer needed
                    b_hat[left] = b_hat[right] = None

        # ------------------------------ backward (top-down) sweep
        X = np.zeros((self.hss.n, nrhs))
        # surviving unknowns handed down by the parent (the root's own solve)
        z2: List[Optional[np.ndarray]] = [None] * len(factors)
        z2[root] = b_hat[root]

        def backward_node(entry) -> np.ndarray:
            node_id = entry[0]
            fac = factors[node_id]
            if node_id != root and fac.n_elim > 0:
                return fac.q @ np.concatenate((z1[node_id], z2[node_id]))
            return z2[node_id]

        for level in schedule:
            for (node_id, left, right, start, stop), x_local in zip(
                    level, map(backward_node, level)):
                z2[node_id] = None
                if left < 0:
                    X[start:stop] = x_local
                else:
                    n1 = factors[left].n_keep
                    z2[left] = x_local[:n1]
                    z2[right] = x_local[n1:]

        return X.ravel() if single else X

    # ------------------------------------------------------------- misc
    @property
    def factor_bytes(self) -> int:
        """Memory of the stored factors in bytes."""
        return sum(f.nbytes for f in self._factors if f is not None)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ULVFactorization(n={self.hss.n}, "
                f"factor_memory={self.factor_bytes / 2**20:.2f} MB)")

"""Symmetric ULV factorization and solve for HSS matrices.

The paper solves with STRUMPACK's ULV factorization (Section 3.1:
"STRUMPACK also implements a ULV factorization algorithm, and a
corresponding routine to solve a linear system with the factored HSS
matrix"), which comes from Chandrasekaran, Gu & Pals (SIMAX 2006).  Every
HSS matrix here is symmetric (see :mod:`repro.hss.generators`), so this
module implements the symmetric variant of Xia, Chandrasekaran, Gu & Li
(NLAA 2010): one orthogonal *congruence* per tree node instead of a left
and a right transform.

Per node, with ``D`` the local diagonal block (a shifted leaf block, or
the parent's assembly below) and ``U`` its row basis (which is also its
column basis):

1. the QR of ``U`` gives an orthogonal ``Omega`` with
   ``Omega U = [U_hat; 0]``: the last ``n_loc - rank(U)`` rows of the
   transformed block row no longer couple to the rest of the matrix, and
   by symmetry neither do those columns;
2. ``Omega D Omega^T = [[D_kk, D_ke], [D_ek, D_ee]]`` splits into kept
   (``k``, the first ``rank(U)``) and eliminated (``e``) unknowns;
   ``D_ee`` is LU-factored, ``w = D_ee^{-1} D_ek`` is stored, and the
   Schur complement ``D_kk - D_ek^T w`` is handed to the parent, which
   does not store it;
3. the parent assembles its children's Schur complements and couples
   them through ``U_hat_1 B12 U_hat_2^T``, and the procedure repeats.  The
   root is an ordinary node of rank 0: no transform, everything
   eliminated.

The forward solve applies ``Omega``, solves with ``D_ee`` and hands the
reduced right-hand side ``c_k - w^T c_e`` up; the children's reduced
right-hand sides simply concatenate at the parent.  The backward solve
recovers ``y_e = D_ee^{-1} c_e - w y_k`` and applies ``Omega^T``.  A node
whose rank covers its block (a pass-through node) eliminates nothing and
has no transform; neither has a node of rank 0.

The eliminated blocks are factored by LU with partial pivoting
(``dgetrf``), not Cholesky: the matrix factored is ``K~ + lam I`` with
``K~`` the HSS approximation of the kernel matrix, and at the paper's
compression tolerance ``||K - K~||_2`` can exceed ``lam``, so the system
is indefinite at the root on ordinary problems.  Cholesky, with a typed
error for an indefinite system, needs the shifted factorization first.

Factorization (all transforms and factors, independent of the right-hand
side) and solve (two sweeps over the tree) are separate phases, so the
solve can be repeated cheaply for new right-hand sides — exactly how the
paper times "Factorization" and "Solve" separately in Table 4 and Figure
7b.  Complexity is ``O(n r^2)`` for the factorization and ``O(n r)`` per
solve, with ``r`` the maximum HSS rank.

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
shift: ``Omega`` and ``U_hat`` come from a QR of the row basis, a stored
generator at a leaf and an assembly of the children's ``U_hat`` above.
Steps 2 and 3 do.  So a factorization built from another one of the same
:class:`repro.hss.HSSMatrix` — :meth:`ULVFactorization.refactor` — takes
every node's ``Omega`` and ``U_hat`` from it **by reference** and runs
steps 2 and 3 only, through the one elimination routine a cold
factorization runs.  Arrays shared this way are read-only by convention:
nothing writes into a stored factor, so the older factorization keeps
solving unchanged.

The per-node work is a handful of small dense operations, so the node
kernel calls ``dgeqrf`` / ``dorgqr`` / ``dgetrf`` / ``dgetrs`` directly
rather than their ``scipy.linalg`` wrappers (same routines, same
workspace sizes, same bits) and checks each input for infs and NaNs
itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
from scipy.linalg.lapack import dgeqrf, dgetrf, dgetrs, dorgqr

from ..lowrank.lapack import require_finite, with_optimal_workspace
from ..utils.bytes import nbytes_of_arrays
from ..utils.timing import TimingLog
from .hss_matrix import HSSMatrix


@dataclass
class _NodeFactors:
    """Per-node data stored by the factorization phase."""

    #: size of the local (leaf or merged) block
    n_loc: int = 0
    #: number of locally eliminated unknowns (``n_loc - rank(U)`` when positive)
    n_elim: int = 0
    #: orthogonal congruence ``Omega``, shape ``(n_loc, n_loc)``; ``None``
    #: (the identity) at a node of rank 0 and at a pass-through node.
    #: λ-free — shared by reference between factorizations of one HSS matrix
    omega: Optional[np.ndarray] = None
    #: reduced row basis ``U_hat`` (``n_keep x rank(U)``); λ-free and shared
    #: by reference like ``omega``
    u_hat: Optional[np.ndarray] = None
    #: ``dgetrf`` factors and pivots of the eliminated block ``D_ee``
    lu: Optional[np.ndarray] = None
    piv: Optional[np.ndarray] = None
    #: ``D_ee^{-1} D_ek`` (``n_elim x n_keep``)
    w: Optional[np.ndarray] = None

    @property
    def n_keep(self) -> int:
        """Number of unknowns surviving to the parent."""
        return self.n_loc - self.n_elim

    @property
    def nbytes(self) -> int:
        return nbytes_of_arrays(
            (self.omega, self.u_hat, self.lu, self.piv, self.w))


def _transform(U: np.ndarray):
    """``(omega, u_hat)`` of a row basis: ``omega U = [u_hat; 0]``.

    ``omega`` is ``None`` (no transform) when ``U`` has no columns or at
    least as many columns as rows; otherwise it is the transposed full
    ``Q`` of a Householder QR and ``u_hat`` the square top of ``R`` —
    bitwise what scipy's ``qr(U, mode="full")`` returns, from the same
    ``dgeqrf`` / ``dorgqr`` calls, without the wrapper around them.
    """
    rows, cols = U.shape
    if cols >= rows:
        return None, U          # a pass-through node keeps every unknown
    if cols == 0:
        return None, np.empty((0, 0))
    require_finite(U)
    packed, tau = with_optimal_workspace(dgeqrf, U)
    q = np.empty((rows, rows), order="F")
    q[:, :cols] = packed
    q, = with_optimal_workspace(dorgqr, q, tau, overwrite_a=1)
    return q.T, np.triu(packed[:cols])


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
        :meth:`refactor` passes).  Every node then takes its congruence
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

    @property
    def _sweeps(self):
        """What the two solve sweeps read per node, read off on first use.

        Every node owns a region of ``n_loc`` rows in a buffer of its tree
        level, ``(lo, mid, hi)`` with ``mid - lo`` its kept unknowns.  The
        forward sweep hands a node's reduced right-hand side up by writing
        it into its parent's region (the left child's rows first), the
        backward sweep hands the kept unknowns down the same way, and a
        node fills the rest of its region with its eliminated unknowns.
        Returns ``(forward, backward, sizes)``: per level, root first,
        ``(node_id, leaf, lo, hi, omega, n_keep or -1, lu, piv, w^T,
        dst, dst_end)`` — a leaf's ``lo:hi`` are its rows of the
        right-hand side, ``dst`` is ``-1`` at the root — and ``(node_id,
        lo, mid, hi, w, omega^T, leaf, start, stop, left_lo, left_mid,
        right_lo, right_mid)`` (the children's rows are unused at a leaf);
        and the row count of every level's buffer.
        """
        sweeps = getattr(self, "_sweep_plan", None)
        if sweeps is not None:
            return sweeps
        factors = self._factors
        levels = self._schedule
        keep = [fac.n_loc - fac.n_elim for fac in factors]
        lo = [0] * len(factors)
        sizes = []
        for level in levels:
            size = 0
            for node_id, *_ in level:
                lo[node_id] = size
                size += factors[node_id].n_loc
            sizes.append(size)
        dst = [-1] * len(factors)
        for level in levels:
            for node_id, left, right, _, _ in level:
                if left >= 0:
                    dst[left] = lo[node_id]
                    dst[right] = lo[node_id] + keep[left]
        forward = tuple([tuple([
            (node_id, left < 0,
             start if left < 0 else lo[node_id],
             stop if left < 0 else lo[node_id] + factors[node_id].n_loc,
             factors[node_id].omega,
             keep[node_id] if factors[node_id].n_elim else -1,
             factors[node_id].lu, factors[node_id].piv,
             None if factors[node_id].w is None else factors[node_id].w.T,
             dst[node_id], dst[node_id] + keep[node_id])
            for node_id, left, right, start, stop in level])
            for level in levels])
        backward = tuple([tuple([
            (node_id, lo[node_id], lo[node_id] + keep[node_id],
             lo[node_id] + factors[node_id].n_loc, factors[node_id].w,
             None if factors[node_id].omega is None
             else factors[node_id].omega.T,
             left < 0, start, stop,
             lo[left], lo[left] + keep[left],
             lo[right], lo[right] + keep[right])
            for node_id, left, right, start, stop in level])
            for level in levels])
        sweeps = self._sweep_plan = (forward, backward, tuple(sizes))
        return sweeps

    # ---------------------------------------------------------------- factor
    @staticmethod
    def _eliminate(D: np.ndarray, U: Optional[np.ndarray],
                   prior: Optional[_NodeFactors]):
        """The congruence and the local elimination of one node.

        ``U`` is the local row basis: the stored one at a leaf, and above
        it the transfer matrix applied to the children's ``u_hat``.  It is
        only read when there is no ``prior`` node to take ``omega`` /
        ``u_hat`` from: ``U`` never carries the ridge shift, so a prior
        factorization's pair is this one's.  Returns the node's factors
        and the Schur complement it hands to its parent.
        """
        omega, u_hat = (_transform(U) if prior is None
                        else (prior.omega, prior.u_hat))
        n_loc, r = D.shape[0], u_hat.shape[0]
        fac = _NodeFactors(n_loc=n_loc, n_elim=n_loc - r, omega=omega,
                           u_hat=u_hat)
        if r == n_loc:
            return fac, D       # nothing to eliminate: D goes up whole
        M = D if omega is None else omega @ D @ omega.T
        D_ee, D_ek = M[r:, r:], M[r:, :r]
        require_finite(D_ee)
        fac.lu, fac.piv, info = dgetrf(D_ee)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"singular matrix: exactly zero pivot {info - 1} in the "
                f"eliminated block")
        fac.w, info = dgetrs(fac.lu, fac.piv, D_ek)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of dgetrs")
        return fac, M[:r, :r] - D_ek.T @ fac.w

    def _factor(self, prior: Optional["ULVFactorization"]) -> None:
        data = self.hss.node_data
        lam = self.lam
        if prior is not None:
            self._levels = prior._schedule
        factors: List[Optional[_NodeFactors]] = [None] * len(data)
        # each node's Schur complement, until its parent has read it
        schur: List[Optional[np.ndarray]] = [None] * len(data)

        # Bottom-up elimination, level by level: a node only reads its
        # children's (already committed) factors.
        for level in reversed(self._schedule):
            for node_id, left, right, start, stop in level:
                d = data[node_id]
                warm = prior._factors[node_id] if prior is not None else None
                U = None
                if left < 0:
                    # The ridge shift lives only on the dense leaf
                    # diagonals; shifting a copy here keeps the stored
                    # generators λ-free and reusable.
                    D = d.D
                    if lam != 0.0:
                        D = D.copy()
                        D.reshape(-1)[::D.shape[0] + 1] += lam
                    if warm is None:
                        U = d.U if d.U is not None \
                            else np.zeros((stop - start, 0))
                else:
                    # The children's Schur complements on the diagonal,
                    # coupled by B12 through U_hat on both sides.
                    f1, f2 = factors[left], factors[right]
                    n1, n = f1.n_keep, f1.n_keep + f2.n_keep
                    D = np.empty((n, n))
                    D[:n1, :n1] = schur[left]
                    D[n1:, n1:] = schur[right]
                    D[:n1, n1:] = f1.u_hat @ d.B12 @ f2.u_hat.T
                    D[n1:, :n1] = D[:n1, n1:].T
                    schur[left] = schur[right] = None
                    if warm is None:
                        # The root stores no basis: rank 0.
                        if d.U is None:
                            U = np.zeros((n, 0))
                        else:
                            r1 = f1.u_hat.shape[1]
                            U = np.empty((n, d.U.shape[1]))
                            U[:n1] = f1.u_hat @ d.U[:r1]
                            U[n1:] = f2.u_hat @ d.U[r1:]
                factors[node_id], schur[node_id] = self._eliminate(D, U, warm)
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
        B = np.asarray(b, dtype=np.float64)
        if B.shape[0] != self.hss.n:
            raise ValueError(f"b has {B.shape[0]} rows, expected {self.hss.n}")
        require_finite(B)
        forward, backward, sizes = self._sweeps
        cols = B.shape[1:]      # a single right-hand side stays a vector
        # Per node a handful of tiny products, so dispatch is the cost:
        # ndarray.dot makes the same BLAS calls as the matmul operator at
        # half its overhead, and vectors move between nodes by slice
        # assignment into the level buffers, not by concatenation.
        # Forward (bottom-up): per node, the eliminated unknowns' local
        # solve D_ee^{-1} c_e and the reduced right-hand side handed up.
        local: List[Optional[np.ndarray]] = [None] * len(self._factors)
        here = None
        for depth in range(len(forward) - 1, -1, -1):
            up = np.empty((sizes[depth - 1],) + cols) if depth else None
            for node_id, leaf, lo, hi, omega, r, lu, piv, wT, dst, dst_end \
                    in forward[depth]:
                c = B[lo:hi] if leaf else here[lo:hi]
                if omega is not None:
                    c = omega.dot(c)
                if r >= 0:
                    c_e = c[r:]
                    local[node_id], info = dgetrs(lu, piv, c_e)
                    if info != 0:
                        raise ValueError(
                            f"illegal value in argument {-info} of dgetrs")
                    c = c[:r] - wT.dot(c_e)
                if dst >= 0:
                    up[dst:dst_end] = c
            here = up

        # Backward (top-down): the kept unknowns come from the parent.
        X = np.empty(B.shape)
        here = np.empty((sizes[0],) + cols)
        for depth, level in enumerate(backward):
            down = (np.empty((sizes[depth + 1],) + cols)
                    if depth + 1 < len(sizes) else None)
            for node_id, lo, mid, hi, w, omegaT, leaf, start, stop, \
                    left_lo, left_mid, right_lo, right_mid in level:
                if w is not None:
                    here[mid:hi] = local[node_id] - w.dot(here[lo:mid])
                    local[node_id] = None
                y = here[lo:hi]
                if omegaT is not None:
                    y = omegaT.dot(y)
                if leaf:
                    X[start:stop] = y
                else:
                    n1 = left_mid - left_lo
                    down[left_lo:left_mid] = y[:n1]
                    down[right_lo:right_mid] = y[n1:]
            here = down
        return X

    # ------------------------------------------------------------- misc
    @property
    def factor_bytes(self) -> int:
        """Memory of the stored factors in bytes."""
        return sum(f.nbytes for f in self._factors)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ULVFactorization(n={self.hss.n}, "
                f"factor_memory={self.factor_bytes / 2**20:.2f} MB)")

"""Solvers for the KRR training system ``(K + lambda I) w = y``.

Step 2 of Algorithm 1 is the only expensive step of kernel ridge
regression, and the paper's observation is that it does not need many
digits of accuracy — the weight vector only feeds a sign computation — so
an approximate but fast solver (HSS + ULV) can replace the exact dense
factorization.  Three interchangeable solvers are provided:

* :class:`DenseSolver` — exact Cholesky factorization of the full kernel
  matrix (the "not compressed" baseline of Table 2),
* :class:`HSSSolver` — the paper's approach: HSS compression via adaptive
  randomized sampling (optionally accelerated with an H matrix), ULV
  factorization, triangular solves,
* :class:`CGSolver` — matrix-free conjugate gradients on the exact kernel
  operator, a common alternative baseline (and the "iterative solution"
  the paper's conclusion mentions as future work for preconditioning).

Every solver exposes the same three-phase interface: ``fit`` (build /
compress / factor), ``solve`` (per right-hand side) and a
:class:`SolveReport` with the phase timings, memory and rank statistics
used by the benchmark harness.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from ..clustering.tree import ClusterTree
from ..config import HMatrixOptions, HSSOptions
from ..hss.compressed import MATMAT_COL_TILE, compress_kernel
from ..hss.streaming import StreamingULVSolver
from ..hss.ulv import ULVFactorization
from ..kernels.base import Kernel
from ..kernels.operator import KernelOperator
from ..utils.bytes import megabytes
from ..utils.timing import TimingLog
from ..utils.validation import check_array_2d, check_non_negative


@dataclass
class SolveReport:
    """Per-phase timings and compression statistics of one training solve."""

    solver: str = ""
    timings: Dict[str, float] = field(default_factory=dict)
    memory_mb: float = 0.0
    hss_memory_mb: float = 0.0
    #: memory of the auxiliary H matrix in MB — build-time, not resident:
    #: the H matrix is released once the HSS compression is built
    hmatrix_memory_mb: float = 0.0
    max_rank: int = 0
    random_vectors: int = 0
    iterations: int = 0
    #: worker processes (subtree shards) used by the training phases
    shards: int = 1
    #: λ-only refits performed since the last full fit (0 = cold state);
    #: after a refit, ``timings`` holds that refit's phases only
    refits: int = 0

    def phase(self, name: str) -> float:
        """Accumulated seconds of the named phase (0.0 if absent)."""
        return self.timings.get(name, 0.0)

    def add_timings(self, log: TimingLog) -> None:
        """Add the phases of ``log`` to :attr:`timings` (summing shared ones)."""
        for name, sec in log.phases.items():
            self.timings[name] = self.timings.get(name, 0.0) + sec

    @property
    def total_time(self) -> float:
        return float(sum(self.timings.values()))


class KernelSystemSolver(abc.ABC):
    """Common interface of the training-system solvers."""

    name: str = "abstract"

    def __init__(self) -> None:
        self.report = SolveReport(solver=self.name)
        self._fitted = False
        #: ridge shift of the current factorization (set by fit / refit)
        self.lam_: Optional[float] = None
        #: streaming wrapper once partial_fit has been called (else None)
        self._stream: Optional[StreamingULVSolver] = None
        #: ``(X_permuted, tree, kernel)`` of the last fit — what
        #: :meth:`refit_kernel` re-fits on and what streaming corrections
        #: and lazy dense refits rebuild kernel blocks from (``None``
        #: until a fit, or an artifact restore, sets it)
        self._context = None

    #: constructor options that shape the fitted system (:meth:`recipe`)
    _recipe_options: Tuple[str, ...] = ()

    def recipe(self) -> Tuple[str, int, Dict[str, object]]:
        """``(solver, shards, solver_options)``: the
        :func:`build_training_solver` arguments that build this solver —
        its :func:`make_solver` name, resolved process count and the
        constructor options that shape the fitted system, not the seed (the
        model's knob) nor deployment settings.  Model artifacts store it."""
        return self.name, 1, {key: getattr(self, key)
                              for key in self._recipe_options}

    @abc.abstractmethod
    def _fit_impl(self, X_permuted: np.ndarray, tree: Optional[ClusterTree],
                  kernel: Kernel, lam: float) -> None:
        """Build and factor the (approximate) kernel system."""

    @abc.abstractmethod
    def _solve_impl(self, y: np.ndarray) -> np.ndarray:
        """Solve for one or more right-hand sides (permuted ordering)."""

    def fit(self, X_permuted: np.ndarray, tree: Optional[ClusterTree],
            kernel: Kernel, lam: float) -> "KernelSystemSolver":
        """Prepare the factorization of ``K(X_permuted) + lam I``.

        Parameters
        ----------
        X_permuted:
            Training points, already reordered by the clustering step.
        tree:
            The cluster tree of the reordering (may be ``None`` for solvers
            that do not need it, e.g. the dense baseline).
        kernel:
            Kernel function.
        lam:
            Ridge parameter.
        """
        X_permuted = check_array_2d(X_permuted, "X_permuted")
        check_non_negative(lam, "lam")
        # The fit reports into a fresh report; a failed fit that keeps the
        # previous factors answering (hss, distributed) keeps their report
        # and streamed corrections too.
        previous, self.report = self.report, SolveReport(solver=self.name)
        try:
            self._fit_impl(X_permuted, tree, kernel, lam)
        except BaseException:
            self.report = previous
            raise
        self._stream = None  # a cold fit starts a fresh streaming history
        self._context = (X_permuted, tree, kernel)
        self._fitted = True
        self.lam_ = float(lam)
        return self

    def refit(self, lam: float) -> "KernelSystemSolver":
        """Re-factor the already-fitted system at a new ridge shift.

        The expensive λ-independent state — the kernel compression for the
        HSS solver, the kernel matrix for the dense solver, the matrix-free
        operator for CG — is reused untouched; only the shift-dependent
        factorization is redone.  The result is numerically identical to a
        cold :meth:`fit` at the same ``lam`` (bitwise for the serial
        solvers), at a fraction of the cost.  After a refit,
        ``report.timings`` holds the refit's own phases (so the saving is
        directly observable) while the compression statistics (memory,
        ranks, random vectors) are retained, and ``report.refits`` counts
        the λ-only refits since the last full fit.

        Parameters
        ----------
        lam:
            The new ridge parameter.

        Returns
        -------
        KernelSystemSolver
            ``self``, re-factored at ``lam``.

        Raises
        ------
        RuntimeError
            If the solver has not been fitted, or does not support λ-only
            refits.
        """
        if not self._fitted:
            raise RuntimeError("solver must be fitted before calling refit()")
        check_non_negative(lam, "lam")
        refits = self.report.refits + 1
        self._refit_impl(float(lam))
        if self._stream is not None:
            # The base factors changed shift: drop the lam-dependent
            # correction caches (the wrapper re-reads the factors through
            # its base-solve closure, so nothing else is stale).
            self._stream.refit(float(lam))
        self.report.refits = refits
        self.lam_ = float(lam)
        return self

    def _refit_impl(self, lam: float) -> None:
        """Shift-only re-factorization; overridden by refit-capable solvers."""
        raise NotImplementedError(
            f"the {self.name!r} solver does not support lambda-only refits")

    def refit_kernel(self, kernel: Kernel,
                     lam: Optional[float] = None) -> "KernelSystemSolver":
        """Re-fit the system for a *new kernel* on the retained context.

        An *h*-move is a plain :meth:`fit` on the ``(X_permuted, tree)``
        the solver was last fitted on, so the result is bitwise identical
        to a cold fit of the new kernel on the same tree.  What the move
        saves over a cold training run is everything upstream of the
        solver (clustering, permutation) plus — for the HSS solver — the
        H-matrix block cluster tree, which is kernel-independent and
        reused while its recorded tree and options still match: the
        middle rung of the move-cost ladder λ ≪ h < cold.  Streamed
        corrections and the refit counter restart exactly as after any
        other fit.

        Parameters
        ----------
        kernel:
            The new kernel (typically the same family at a different
            bandwidth).
        lam:
            Optional new ridge shift; ``None`` keeps the current ``lam_``.

        Returns
        -------
        KernelSystemSolver
            ``self``, re-fitted for ``kernel``.

        Raises
        ------
        RuntimeError
            If the solver has not been fitted.
        """
        if not self._fitted:
            raise RuntimeError(
                "solver must be fitted before calling refit_kernel()")
        X_permuted, tree, _ = self._context
        return self.fit(X_permuted, tree, kernel,
                        self.lam_ if lam is None else lam)

    def partial_fit(self, X_add=None, remove=None) -> "KernelSystemSolver":
        """Stream rows into / out of the fitted system without re-factoring.

        Mutations are applied as Woodbury corrections around the existing
        factors (see :class:`repro.hss.StreamingULVSolver`): removals
        first, then additions.  Subsequent :meth:`solve` calls expect
        right-hand sides in the *effective* ordering — the kept original
        rows (original order) followed by every added row, in insertion
        order.

        Parameters
        ----------
        X_add:
            Rows to append, shape ``(m, d)`` (``None`` / empty = none).
        remove:
            Indices into the current effective ordering to drop
            (``None`` / empty = none).

        Returns
        -------
        KernelSystemSolver
            ``self``, serving the updated system.

        Raises
        ------
        RuntimeError
            If unfitted, or the solver keeps no factorization to build
            correction blocks around (the CG baseline).
        """
        if not self._fitted:
            raise RuntimeError(
                "solver must be fitted before calling partial_fit()")
        stream = self._ensure_stream()
        if remove is not None and np.asarray(remove).size:
            stream.remove_rows(remove)
        if X_add is not None and np.asarray(X_add).size:
            stream.add_rows(np.asarray(X_add, dtype=np.float64))
        return self

    @property
    def stream(self) -> Optional[StreamingULVSolver]:
        """The streaming wrapper (``None`` until :meth:`partial_fit`)."""
        return self._stream

    def _ensure_stream(self) -> StreamingULVSolver:
        if self._stream is None:
            X_base, _, kernel = self._context
            self._stream = StreamingULVSolver(
                self._stream_base_solve, X_base, kernel, self.lam_)
        return self._stream

    def _stream_base_solve(self, b: np.ndarray) -> np.ndarray:
        """Multi-RHS solve against the *base* factors (streaming hook)."""
        return self._solve_impl(np.asarray(b, dtype=np.float64))

    def solve(self, y: np.ndarray) -> np.ndarray:
        """Solve the fitted system for right-hand side(s) ``y``.

        With streamed updates in effect the right-hand side lives in the
        effective ordering (kept rows, then added rows) and the solve
        routes through the Woodbury correction; otherwise this is the
        plain base solve.
        """
        if not self._fitted:
            raise RuntimeError("solver must be fitted before calling solve()")
        y = np.asarray(y, dtype=np.float64)
        if self._stream is not None and self._stream.active:
            return self._stream.solve(y)
        return self._solve_impl(y)


class DenseSolver(KernelSystemSolver):
    """Exact dense Cholesky solver (the uncompressed baseline).

    Memory is ``O(n^2)`` and factorization ``O(n^3)``; the paper uses this
    as the accuracy reference ("this accuracy matches the accuracy we get
    using the full non-compressed kernel matrix", Section 5.2).  ``fit``
    keeps only the factor (as before the refit split); the first λ-only
    :meth:`~KernelSystemSolver.refit` rebuilds the λ-free kernel matrix
    from the retained training points and keeps it for subsequent refits,
    so sweep users pay the extra ``O(n^2)`` residency and fit-once users
    do not.
    """

    name = "dense"

    def _fit_impl(self, X_permuted, tree, kernel, lam) -> None:
        log = TimingLog()
        with log.phase("construction"):
            K = kernel.matrix(X_permuted)
            K[np.diag_indices_from(K)] += lam
        with log.phase("factorization"):
            self._cho = scipy.linalg.cho_factor(K, lower=True)
        # The λ-free matrix is NOT retained (fit-once users keep the old
        # memory profile); refits rebuild it lazily from the fit context.
        self._K = None
        self.report.timings = log.as_dict()
        self.report.memory_mb = megabytes(K.nbytes)

    def _refit_impl(self, lam: float) -> None:
        log = TimingLog()
        if getattr(self, "_K", None) is None:
            # First refit (or restored from an artifact): rebuild the
            # λ-free kernel matrix once from the stored training points;
            # further refits reuse it and pay only the factorization.
            X_permuted, _, kernel = self._context
            with log.phase("construction"):
                self._K = kernel.matrix(X_permuted)
        with log.phase("factorization"):
            A = self._K.copy()
            A[np.diag_indices_from(A)] += lam
            self._cho = scipy.linalg.cho_factor(A, lower=True)
        self.report.timings = log.as_dict()

    def _solve_impl(self, y: np.ndarray) -> np.ndarray:
        log = TimingLog()
        with log.phase("solve"):
            w = scipy.linalg.cho_solve(self._cho, y)
        self.report.add_timings(log)
        return w


class HSSSolver(KernelSystemSolver):
    """HSS-compressed direct solver (the paper's method).

    Training is two decoupled stages: a λ-free *compression* of the kernel
    (H matrix + randomized HSS, via :func:`repro.hss.compress_kernel` —
    the expensive part, independent of the ridge parameter) and the ULV
    *factorization* of ``K + lam I``, which applies the shift to the
    compressed representation at factor time.  A λ-only
    :meth:`~KernelSystemSolver.refit` therefore reuses the resident HSS
    matrix ``hss_`` and redoes only the ``O(n r^2)`` ULV —
    :attr:`compression_count` stays at 1 across a whole λ sweep.  The H
    matrix is a temporary of the compression; the solver keeps only its
    block cluster tree ``block_tree_``, which the next fit reuses.

    Parameters
    ----------
    hss_options:
        Compression options (tolerance 0.1 by default, as in the paper).
    use_hmatrix_sampling:
        If ``True`` (default) an H matrix of the kernel is built first and
        its fast matvec drives the randomized HSS sampling (Section 3.2);
        if ``False`` the exact ``O(n^2)`` kernel product is used (its
        ``matmat`` runs column-tiled).
    hmatrix_options:
        Options of the auxiliary H matrix.
    seed:
        Seed of the random sampling.
    """

    name = "hss"
    _recipe_options = ("hss_options", "hmatrix_options",
                       "use_hmatrix_sampling")

    #: column-tile size of the exact-sampling matmat
    #: (:data:`repro.hss.compressed.MATMAT_COL_TILE`)
    DEFAULT_MATMAT_COL_TILE = MATMAT_COL_TILE

    def __init__(self,
                 hss_options: Optional[HSSOptions] = None,
                 use_hmatrix_sampling: bool = True,
                 hmatrix_options: Optional[HMatrixOptions] = None,
                 seed=0):
        super().__init__()
        self.hss_options = hss_options if hss_options is not None else HSSOptions()
        self.hmatrix_options = (hmatrix_options if hmatrix_options is not None
                                else HMatrixOptions())
        self.use_hmatrix_sampling = bool(use_hmatrix_sampling)
        self.seed = seed
        #: the fitted state, assigned together once compression and
        #: factorization have both succeeded: the λ-free HSS matrix, its
        #: ULV factors and the H-matrix block cluster tree the next fit
        #: reuses (``None`` after an artifact reload)
        self.hss_ = None
        self.factorization_ = None
        self.block_tree_ = None
        #: number of full kernel compressions performed (refits add none)
        self.compression_count = 0

    def _fit_impl(self, X_permuted, tree, kernel, lam) -> None:
        if tree is None:
            raise ValueError("HSSSolver requires the cluster tree of the reordering")
        log = TimingLog()
        # The resident block cluster tree rides along: an h-move on the
        # same tree and options reuses it (build_hmatrix decides from the
        # block tree's own recorded fields), any other fit rebuilds it.
        compressed = compress_kernel(
            X_permuted, tree, kernel,
            hss_options=self.hss_options,
            hmatrix_options=self.hmatrix_options,
            use_hmatrix_sampling=self.use_hmatrix_sampling,
            seed=self.seed, timing=log, block_tree=self.block_tree_)
        self.compression_count += 1
        factorization = ULVFactorization.factor(
            compressed.hss, lam=lam, timing=log)
        self.hss_, self.factorization_ = compressed.hss, factorization
        self.block_tree_ = compressed.block_tree
        build = compressed.report
        self.report.timings = log.as_dict()
        self.report.hmatrix_memory_mb = build.hmatrix_memory_mb
        self.report.hss_memory_mb = build.hss_memory_mb
        self.report.memory_mb = build.memory_mb
        self.report.max_rank = build.max_rank
        self.report.random_vectors = build.random_vectors

    def _refit_impl(self, lam: float) -> None:
        log = TimingLog()
        resident = self.factorization_
        # The λ-free half of the elimination is taken from the resident
        # factors whenever they factor this very compression (after a fit,
        # a refit, a reload or streamed updates).
        if resident is not None and resident.hss is self.hss_:
            self.factorization_ = resident.refactor(lam, timing=log)
        else:
            self.factorization_ = ULVFactorization(
                self.hss_, timing=log, lam=lam)
        self.report.timings = log.as_dict()

    def _solve_impl(self, y: np.ndarray) -> np.ndarray:
        log = TimingLog()
        w = self.factorization_.solve(y, timing=log)
        self.report.add_timings(log)
        return w


class CGSolver(KernelSystemSolver):
    """Conjugate-gradient solver on the exact (matrix-free) kernel operator."""

    name = "cg"
    _recipe_options = ("tol", "max_iter")

    def __init__(self, tol: float = 1e-6, max_iter: Optional[int] = None):
        super().__init__()
        if tol <= 0:
            raise ValueError("tol must be positive")
        self.tol = float(tol)
        self.max_iter = max_iter

    def _fit_impl(self, X_permuted, tree, kernel, lam) -> None:
        log = TimingLog()
        with log.phase("construction"):
            self._operator = KernelOperator(X_permuted, kernel)
        self._lam = lam
        self.report.timings = log.as_dict()
        self.report.memory_mb = megabytes(X_permuted.nbytes)

    def _refit_impl(self, lam: float) -> None:
        # CG keeps no factorization and its operator is λ-free: the shift
        # is added in the product, so a refit is a scalar update.
        self._lam = lam
        self.report.timings = {}

    def _ensure_stream(self) -> StreamingULVSolver:
        # Woodbury corrections are built around exact base solves; CG
        # keeps no factorization to wrap.
        raise RuntimeError(
            "the 'cg' solver does not support streaming updates (no "
            "factorization to build correction blocks around)")

    def _solve_impl(self, y: np.ndarray) -> np.ndarray:
        op, lam = self._operator, self._lam

        def shifted(v):
            return op.matvec(v) + lam * v

        linop = scipy.sparse.linalg.LinearOperator(
            shape=op.shape, matvec=shifted, dtype=np.float64)
        log = TimingLog()
        single = y.ndim == 1
        Y = y[:, None] if single else y
        out = np.empty_like(Y)
        iterations = 0
        with log.phase("solve"):
            for j in range(Y.shape[1]):
                counter = _IterationCounter()
                w, info = scipy.sparse.linalg.cg(linop, Y[:, j], rtol=self.tol,
                                                 maxiter=self.max_iter,
                                                 callback=counter)
                if info > 0:
                    # Did not converge within maxiter; keep the best iterate —
                    # KRR only needs the sign of the decision values.
                    pass
                elif info < 0:
                    raise RuntimeError(f"CG failed with illegal input (info={info})")
                out[:, j] = w
                iterations = max(iterations, counter.count)
        self.report.iterations = iterations
        self.report.add_timings(log)
        return out.ravel() if single else out


class _IterationCounter:
    """Callback counting CG iterations."""

    def __init__(self) -> None:
        self.count = 0

    def __call__(self, _xk) -> None:
        self.count += 1


def make_solver(name: str, **kwargs) -> KernelSystemSolver:
    """Instantiate a solver by name (``"dense"``, ``"hss"`` or ``"cg"``)."""
    name = str(name).strip().lower()
    if name == "dense":
        return DenseSolver(**kwargs)
    if name == "hss":
        return HSSSolver(**kwargs)
    if name == "cg":
        return CGSolver(**kwargs)
    raise ValueError(f"unknown solver {name!r}; expected 'dense', 'hss' or 'cg'")


def build_training_solver(spec, seed=0, shards: Optional[int] = None,
                          solver_options: Optional[Dict] = None
                          ) -> KernelSystemSolver:
    """Resolve a classifier's solver spec honouring its parallelism knobs.

    The shared dispatch behind :class:`repro.krr.KernelRidgeClassifier`
    and :class:`repro.krr.OneVsAllClassifier`: a pre-constructed solver
    instance passes through untouched; the ``"hss"`` name picks up the
    ``seed`` knob and — when ``shards`` resolves to more
    than one process (see :func:`repro.distributed.resolve_shards`) —
    routes the training solve through the process-sharded
    :class:`repro.distributed.DistributedSolver` instead.

    Parameters
    ----------
    spec:
        Solver name (``"dense"``, ``"hss"``, ``"cg"``) or a
        :class:`KernelSystemSolver` instance.
    seed:
        Default seed injected into named ``"hss"`` solvers.
    shards:
        Worker-process knob; ``None`` defers to ``REPRO_SHARDS``, which
        only ever applies to the ``"hss"`` solver.  An *explicit* count
        above one with any other named solver is an error.
    solver_options:
        Extra keyword arguments for the named solver's constructor
        (explicit keys win over the knobs above).  Sharded-only options
        (a warm ``grid``, ``coupling_rel_tol``, ``coupling_max_rank``,
        ``cut_level``, ``response_timeout``, ``start_method``) are ignored
        when ``shards`` resolves to 1, so one option set serves both paths.

    Returns
    -------
    KernelSystemSolver
        The ready-to-fit training solver.

    Raises
    ------
    ValueError
        If ``shards`` explicitly asks for more than one process and
        ``spec`` names a solver other than ``"hss"``.
    """
    if isinstance(spec, KernelSystemSolver):
        return spec
    from ..distributed.plan import resolve_shards
    opts = dict(solver_options or {})
    is_hss = str(spec).strip().lower() == "hss"
    if not is_hss and shards is not None and resolve_shards(shards) > 1:
        raise ValueError(
            f"process sharding requires the 'hss' solver, got {spec!r}")
    if is_hss:
        opts.setdefault("seed", seed)
        n_shards = resolve_shards(
            shards if shards is not None else opts.get("shards"))
        if n_shards > 1:
            # shards > 1 routes the hss training solve through the
            # process-sharded path (coupling knobs ride in solver_options).
            from ..distributed.solver import DistributedSolver
            opts.setdefault("shards", n_shards)
            return DistributedSolver(**opts)
        # Single-process path: drop the sharded-only knobs (documented as
        # ignored when shards resolves to 1) instead of crashing HSSSolver.
        for key in ("shards", "grid", "coupling_rel_tol", "coupling_max_rank",
                    "cut_level", "response_timeout", "start_method"):
            opts.pop(key, None)
    return make_solver(spec, **opts)

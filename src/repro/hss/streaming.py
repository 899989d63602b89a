"""Streaming row updates on a factored HSS system (Woodbury corrections).

Every solver in the stack factors the *frozen* training system
``A0 = K(X_base) + lam I`` once.  This module makes that factorization
serve a *moving* training set: row insertions and deletions are applied
as bordered low-rank perturbations around the existing factors — exactly
the capacitance-solve shape the sharded solver already uses for its
inter-shard coupling (see ``repro.distributed.factors``), but with the
correction blocks coming from streamed rows instead of subtree coupling.

**Removals** (keep set ``k``, removed set ``r``): the principal-submatrix
inverse identity gives, with ``R = A0^{-1} E`` (``E`` the unit columns of
the removed indices),

.. math::

    A_{kk}^{-1} b = z_k - R_k \\, R_{rr}^{-1} z_r, \\qquad
    z = A0^{-1} \\tilde b,

where ``\\tilde b`` zero-pads ``b`` onto the full base index set.  Only
``|r|`` extra right-hand sides through the *existing* factorization are
needed, plus an LU of the ``|r| x |r|`` block ``R_rr``.

**Additions** (``m`` new rows ``X_add``): the bordered system

.. math::

    M = \\begin{pmatrix} A_{kk} & B \\\\ B^T & C \\end{pmatrix}, \\qquad
    B = K(X_{kept}, X_{add}), \\;\\; C = K(X_{add}) + \\lambda I,

is solved through the Schur complement (capacitance) ``S = C - B^T W``
with ``W = A_{kk}^{-1} B``:

.. math::

    x_2 = S^{-1} (y_2 - B^T z_1), \\qquad x_1 = z_1 - W x_2,
    \\qquad z_1 = A_{kk}^{-1} y_1.

Both corrections cost ``O((|r| + m) n)`` per update on top of multi-RHS
solves against the untouched base factorization — no recompression, no
re-factorization.  Accuracy degrades as the correction rank grows (the
base compression was built for the *old* point set), which is what the
:class:`DriftBudget` watches: when the budget is breached the owner is
expected to recompress from scratch (a cold fit on the effective data)
and hot-swap the result.

The base solve is an abstract multi-RHS callable, so the same wrapper
streams on top of a serial :class:`repro.hss.ULVFactorization` or the
:class:`repro.distributed.DistributedSolver` of a sharded model (fitted
or reloaded; its shard kernels live in the calling process, so the
correction right-hand sides cost one multi-RHS Woodbury solve and no
worker process).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
import scipy.linalg

from ..kernels.base import Kernel
from ..obs import global_registry

__all__ = ["DriftBudget", "StreamingULVSolver", "should_recompress"]

_UPDATES_HELP = "Streamed training rows applied as Woodbury corrections"
_RANK_HELP = "Current Woodbury correction rank (removed + added rows)"
_RESIDUAL_HELP = "Sampled relative residual of the last streamed solve"
_RECOMPRESS_HELP = "Full recompressions triggered by drift-budget breaches"


def _updates_counter():
    return global_registry().counter(
        "repro_stream_updates_total", _UPDATES_HELP, labelnames=("kind",))


def _rank_gauge():
    return global_registry().gauge(
        "repro_stream_correction_rank", _RANK_HELP)


def record_stream_residual(value: float) -> None:
    """Export a sampled streamed-solve residual as ``repro_stream_residual``."""
    global_registry().gauge(
        "repro_stream_residual", _RESIDUAL_HELP).set(float(value))


def record_recompression() -> None:
    """Count one drift-triggered recompression (``repro_stream_*``)."""
    global_registry().counter(
        "repro_stream_recompressions_total", _RECOMPRESS_HELP).inc()


def removal_factors(base_solve: Callable[[np.ndarray], np.ndarray],
                    n_base: int, removed: np.ndarray):
    """``(R, lu(R_rr))`` for dropping the rows ``removed`` of ``A0``.

    ``R = A0^{-1} E`` (``E`` the unit columns of ``removed``) costs one
    ``|r|``-column solve through ``base_solve``; :func:`solve_kept` needs
    both factors.
    """
    E = np.zeros((n_base, removed.size))
    E[removed, np.arange(removed.size)] = 1.0
    R = base_solve(E)
    return R, scipy.linalg.lu_factor(R[removed])


def solve_kept(base_solve: Callable[[np.ndarray], np.ndarray],
               kept: np.ndarray, removed: np.ndarray, B: np.ndarray,
               factors) -> np.ndarray:
    """Apply ``A_kk^{-1}`` (the kept-rows principal submatrix) to ``B``.

    ``B`` is ``(|k|, m)``; ``factors`` is :func:`removal_factors` of the
    same ``removed`` set.  One ``m``-column solve through ``base_solve``
    plus the ``|r| x |r|`` correction (the module's removal identity).
    """
    Y = np.zeros((kept.size + removed.size, B.shape[1]))
    Y[kept] = B
    Z = base_solve(Y)
    R, rr_lu = factors
    T = scipy.linalg.lu_solve(rr_lu, Z[removed])
    return Z[kept] - R[kept] @ T


@dataclass(frozen=True)
class DriftBudget:
    """Thresholds deciding when streamed corrections warrant a recompress.

    The budget is advisory: :class:`StreamingULVSolver` keeps answering
    solves past a breach (the math stays exact for the *effective* system;
    only the base compression's error model drifts), but callers — the
    classifier layer, the model router — should schedule a recompression
    once :meth:`check` reports a breach.

    Parameters
    ----------
    max_updates:
        Absolute cap on the correction rank (removed + added rows).
    max_fraction:
        Cap on correction rank as a fraction of the base row count.
    residual_tol:
        Sampled relative-residual threshold (``0`` disables the check;
        the residual is supplied by the caller, typically from
        :meth:`StreamingULVSolver.residual_estimate`).
    sample_size:
        Rows sampled by the residual estimate.
    """

    max_updates: int = 64
    max_fraction: float = 0.25
    residual_tol: float = 0.0
    sample_size: int = 64

    @classmethod
    def from_config(cls, config) -> "DriftBudget":
        """The budget a :class:`repro.runtime.RuntimeConfig` describes.

        Parameters
        ----------
        config:
            The resolved runtime config; its ``[stream]`` section
            supplies the four thresholds.

        Returns
        -------
        DriftBudget
            The configured budget.
        """
        stream = config.stream
        return cls(max_updates=stream.max_updates,
                   max_fraction=stream.max_fraction,
                   residual_tol=stream.residual_tol,
                   sample_size=stream.sample_size)

    def check(self, stream: "StreamingULVSolver",
              residual: Optional[float] = None) -> Tuple[bool, str]:
        """Whether the budget is breached, and why.

        Returns
        -------
        (bool, str)
            ``(True, reason)`` on the first breached threshold, else
            ``(False, "")``.
        """
        rank = stream.correction_rank
        if rank > int(self.max_updates):
            return True, (f"correction rank {rank} exceeds "
                          f"max_updates={self.max_updates}")
        frac = rank / max(stream.n_base, 1)
        if frac > float(self.max_fraction):
            return True, (f"correction rank {rank} is {frac:.3f} of the "
                          f"base rows (max_fraction={self.max_fraction})")
        if residual is not None and self.residual_tol > 0:
            if residual > float(self.residual_tol):
                return True, (f"sampled residual {residual:.3e} exceeds "
                              f"residual_tol={self.residual_tol:.3e}")
        return False, ""


def should_recompress(mode: str, info: dict) -> bool:
    """Whether a streamed model is due for recompression.

    The one policy behind ``repro update`` and the model router.

    Parameters
    ----------
    mode:
        The ``stream.recompress`` policy: ``"force"`` always
        recompresses, ``"auto"`` only once the drift budget is breached,
        ``"off"`` never.
    info:
        Drift bookkeeping of the model after the update (its
        ``stream_info_``, see :meth:`StreamingULVSolver.drift_stats`).

    Returns
    -------
    bool
        ``True`` when the corrections should be folded into a cold fit.
    """
    return mode == "force" or (mode == "auto" and bool(info.get("breached")))


class StreamingULVSolver:
    """Woodbury streaming wrapper around a factored kernel system.

    Parameters
    ----------
    base_solve:
        Multi-RHS solve against the factored *base* system
        ``A0 = K(X_base) + lam I``; must accept ``(n_base, k)`` arrays.
        Pass a closure that re-reads the owner's current factorization so
        λ-refits of the base are picked up automatically.
    X_base:
        The base training points, in the factorization's (permuted) row
        ordering.
    kernel:
        The kernel of the system (builds the correction blocks).
    lam:
        Current ridge shift (appears on the diagonal of the added-row
        block ``C``).
    budget:
        Drift thresholds; defaults to :class:`DriftBudget`'s defaults.
    """

    def __init__(self, base_solve: Callable[[np.ndarray], np.ndarray],
                 X_base: np.ndarray, kernel: Kernel, lam: float,
                 budget: Optional[DriftBudget] = None):
        self._base_solve = base_solve
        self.X_base = np.ascontiguousarray(X_base, dtype=np.float64)
        if self.X_base.ndim != 2:
            raise ValueError("X_base must be 2-D")
        self.kernel = kernel
        self.lam = float(lam)
        self.budget = budget if budget is not None else DriftBudget()
        n0 = self.X_base.shape[0]
        self._kept = np.arange(n0, dtype=np.intp)
        self._removed = np.zeros(0, dtype=np.intp)
        self._X_add = np.empty((0, self.X_base.shape[1]))
        # Lazy caches, invalidated on every mutation / refit:
        self._rm_state = None   # (R = A0^{-1} E, lu(R_rr))
        self._add_state = None  # (B, W = A_kk^{-1} B, lu(S))

    # ------------------------------------------------------------ properties
    @property
    def n_base(self) -> int:
        """Row count of the factored base system."""
        return self.X_base.shape[0]

    @property
    def n_kept(self) -> int:
        """Base rows still part of the effective training set."""
        return int(self._kept.size)

    @property
    def n_added(self) -> int:
        """Streamed-in rows appended after the kept base rows."""
        return int(self._X_add.shape[0])

    @property
    def n_effective(self) -> int:
        """Rows of the effective training set ``[X_base[kept]; X_add]``."""
        return self.n_kept + self.n_added

    @property
    def correction_rank(self) -> int:
        """Rank of the Woodbury correction (removed + added rows)."""
        return int(self._removed.size) + self.n_added

    @property
    def active(self) -> bool:
        """Whether any correction is in effect (else base solves apply)."""
        return self.correction_rank > 0

    @property
    def kept_indices(self) -> np.ndarray:
        """Base indices (sorted) still present, in effective order."""
        return self._kept.copy()

    @property
    def X_effective(self) -> np.ndarray:
        """The effective training set, ``[X_base[kept]; X_add]``."""
        return np.vstack([self.X_base[self._kept], self._X_add])

    def drift_stats(self) -> dict:
        """Correction bookkeeping for reports / metrics."""
        breached, reason = self.budget.check(self)
        return {
            "n_base": self.n_base,
            "n_effective": self.n_effective,
            "added": self.n_added,
            "removed": int(self._removed.size),
            "correction_rank": self.correction_rank,
            "breached": breached,
            "breach_reason": reason,
        }

    # ------------------------------------------------------------- mutation
    def add_rows(self, X_new: np.ndarray) -> "StreamingULVSolver":
        """Append rows to the training set (effective order: at the end)."""
        X_new = np.ascontiguousarray(X_new, dtype=np.float64)
        if X_new.ndim == 1:
            X_new = X_new[None, :]
        if X_new.ndim != 2 or X_new.shape[1] != self.X_base.shape[1]:
            raise ValueError(
                f"X_new must be (m, {self.X_base.shape[1]}), "
                f"got {X_new.shape}")
        if X_new.shape[0] == 0:
            return self
        self._X_add = np.vstack([self._X_add, X_new])
        self._add_state = None  # B/W/S grow; removal cache stays valid
        _updates_counter().labels(kind="add").inc(X_new.shape[0])
        _rank_gauge().set(self.correction_rank)
        return self

    def remove_rows(self, idx) -> "StreamingULVSolver":
        """Remove rows by index into the *current effective* ordering."""
        idx = np.unique(np.asarray(idx, dtype=np.intp))
        if idx.size == 0:
            return self
        n_eff = self.n_effective
        if idx[0] < 0 or idx[-1] >= n_eff:
            raise IndexError(
                f"remove indices must lie in [0, {n_eff}), got "
                f"[{idx[0]}, {idx[-1]}]")
        base_part = idx[idx < self.n_kept]
        add_part = idx[idx >= self.n_kept] - self.n_kept
        if base_part.size:
            if base_part.size >= self.n_kept:
                raise ValueError("cannot remove every base row; "
                                 "recompress on the new data instead")
            newly_removed = self._kept[base_part]
            self._kept = np.delete(self._kept, base_part)
            self._removed = np.sort(
                np.concatenate([self._removed, newly_removed]))
            # The kept set changed: both corrections are stale.
            self._rm_state = None
            self._add_state = None
        if add_part.size:
            self._X_add = np.delete(self._X_add, add_part, axis=0)
            self._add_state = None
        _updates_counter().labels(kind="remove").inc(int(idx.size))
        _rank_gauge().set(self.correction_rank)
        return self

    def refit(self, lam: float) -> "StreamingULVSolver":
        """Adopt a new ridge shift after the owner re-factored the base.

        The base factorization is reached through the ``base_solve``
        closure, so the owner re-factors first, then calls this to drop
        the λ-dependent correction caches.
        """
        self.lam = float(lam)
        self._rm_state = None
        self._add_state = None
        return self

    # --------------------------------------------------------------- solves
    def _solve_base(self, B: np.ndarray) -> np.ndarray:
        out = np.asarray(self._base_solve(B), dtype=np.float64)
        return out.reshape(B.shape)

    def _removal_state(self):
        if self._rm_state is None:
            self._rm_state = removal_factors(self._solve_base, self.n_base,
                                             self._removed)
        return self._rm_state

    def _solve_kept(self, B: np.ndarray) -> np.ndarray:
        """Apply ``A_kk^{-1}`` (kept-rows principal submatrix) to ``B``."""
        if self._removed.size == 0:
            return self._solve_base(B)
        return solve_kept(self._solve_base, self._kept, self._removed, B,
                          self._removal_state())

    def _addition_state(self):
        if self._add_state is None:
            Xk = self.X_base[self._kept]
            Xa = self._X_add
            B = self.kernel.matrix(Xk, Xa)
            C = self.kernel.matrix(Xa)
            C[np.diag_indices_from(C)] += self.lam
            W = self._solve_kept(B)
            S = C - B.T @ W
            self._add_state = (B, W, scipy.linalg.lu_factor(S))
        return self._add_state

    def solve(self, y: np.ndarray) -> np.ndarray:
        """Solve the *effective* system ``(K(X_eff) + lam I) x = y``.

        Parameters
        ----------
        y:
            Right-hand side(s) in the effective ordering
            ``[kept base rows; added rows]``, shape ``(n_eff,)`` or
            ``(n_eff, k)``.
        """
        y = np.asarray(y, dtype=np.float64)
        single = y.ndim == 1
        Y = y[:, None] if single else y
        if Y.shape[0] != self.n_effective:
            raise ValueError(
                f"y has {Y.shape[0]} rows, expected {self.n_effective}")
        nk, m = self.n_kept, self.n_added
        z1 = self._solve_kept(Y[:nk])
        if m == 0:
            x = z1
        else:
            B, W, s_lu = self._addition_state()
            V = scipy.linalg.lu_solve(s_lu, Y[nk:] - B.T @ z1)
            x = np.vstack([z1 - W @ V, V])
        return x[:, 0] if single else x

    def residual_estimate(self, x: np.ndarray, y: np.ndarray,
                          seed: int = 0) -> float:
        """Sampled relative residual of ``x`` for the effective system.

        Evaluates ``s = min(sample_size, n_eff)`` rows of
        ``(K + lam I) x - y`` exactly (``O(s * n_eff)`` kernel entries) —
        cheap enough to run after every streamed solve, and the signal
        the :class:`DriftBudget` residual threshold consumes.
        """
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        X = x[:, None] if x.ndim == 1 else x
        Y = y[:, None] if y.ndim == 1 else y
        n_eff = self.n_effective
        s = min(int(self.budget.sample_size), n_eff)
        rows = np.random.default_rng(seed).choice(n_eff, size=s,
                                                  replace=False)
        X_eff = self.X_effective
        K_rows = self.kernel.matrix(X_eff[rows], X_eff)
        resid = K_rows @ X + self.lam * X[rows] - Y[rows]
        denom = float(np.linalg.norm(Y[rows]))
        value = float(np.linalg.norm(resid)) / max(denom, 1e-300)
        record_stream_residual(value)
        return value

    # -------------------------------------------------------- serialization
    def state_arrays(self) -> dict:
        """The mutable streaming state (kept indices + appended rows)."""
        return {"kept": self._kept.copy(), "X_add": self._X_add.copy()}

    def restore_state(self, kept: np.ndarray,
                      X_add: np.ndarray) -> "StreamingULVSolver":
        """Rehydrate a previously saved streaming state (artifact reload)."""
        kept = np.asarray(kept, dtype=np.intp)
        mask = np.ones(self.n_base, dtype=bool)
        mask[kept] = False
        self._kept = kept
        self._removed = np.flatnonzero(mask).astype(np.intp)
        self._X_add = np.ascontiguousarray(X_add, dtype=np.float64)
        if self._X_add.size == 0:
            self._X_add = self._X_add.reshape(0, self.X_base.shape[1])
        self._rm_state = None
        self._add_state = None
        _rank_gauge().set(self.correction_rank)
        return self

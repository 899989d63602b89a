"""Lightweight timing utilities for the experiment harness.

The paper reports wall-clock timings per algorithmic phase (H construction,
HSS construction split into sampling and "other", ULV factorization, solve —
Table 4).  :class:`TimingLog` accumulates named phase durations and can be
merged, so the solver components simply record into the log handed to them.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

from ..obs import record_phase
from ..obs.tracing import trace


@dataclass
class Timer:
    """A simple start/stop wall-clock timer.

    Examples
    --------
    >>> t = Timer().start()
    >>> _ = sum(range(1000))
    >>> elapsed = t.stop()
    >>> elapsed >= 0.0
    True
    """

    _start: Optional[float] = None
    elapsed: float = 0.0

    def start(self) -> "Timer":
        """Start (or restart) the timer."""
        self._start = time.perf_counter()
        return self

    def stop(self) -> float:
        """Stop the timer, accumulate and return the elapsed seconds."""
        if self._start is None:
            raise RuntimeError("Timer.stop() called before start()")
        delta = time.perf_counter() - self._start
        self.elapsed += delta
        self._start = None
        return delta

    def reset(self) -> None:
        """Zero the accumulated time."""
        self._start = None
        self.elapsed = 0.0


@dataclass
class TimingLog:
    """Accumulates named wall-clock phase durations in seconds."""

    phases: Dict[str, float] = field(default_factory=dict)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Context manager measuring the body and adding it to ``name``.

        Also opens a ``repro.obs`` trace span of the same name, so nested
        ``phase`` calls (``repro train``'s ``train_total`` wrapping the solver
        phases) produce a nested span tree.
        """
        with trace.span(name):
            start = time.perf_counter()
            try:
                yield
            finally:
                self.add(name, time.perf_counter() - start)

    def add(self, name: str, seconds: float) -> None:
        """Add ``seconds`` to the accumulated duration of phase ``name``.

        Every addition is mirrored into the global metrics registry as
        ``repro_phase_seconds_total{phase=name}``.
        """
        self.phases[name] = self.phases.get(name, 0.0) + float(seconds)
        record_phase(name, seconds)

    def get(self, name: str, default: float = 0.0) -> float:
        """Return the accumulated duration of ``name`` (``default`` if absent)."""
        return self.phases.get(name, default)

    def merge(self, other: "TimingLog") -> "TimingLog":
        """Merge another log into this one (summing shared phases).

        Bypasses the registry hook: the merged phases were already
        recorded when ``other`` accumulated them, so reporting them again
        would double-count.
        """
        for name, seconds in other.phases.items():
            self.phases[name] = self.phases.get(name, 0.0) + float(seconds)
        return self

    def total(self) -> float:
        """Total time over all phases."""
        return float(sum(self.phases.values()))

    def as_dict(self) -> Dict[str, float]:
        """Return a copy of the phase dictionary."""
        return dict(self.phases)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{k}={v:.4f}s" for k, v in sorted(self.phases.items()))
        return f"TimingLog({parts})"

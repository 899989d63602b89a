"""Span-based tracing: nested phase trees with wall-clock timings.

A span is one timed region of work (``trace.span("hss.build")``).  Spans
opened while another span is active on the same thread become children, so
a pipeline run produces a tree mirroring the call structure::

    train_total                 1.742s
      kernel.compress           1.381s
        h_construction          0.612s
        hss_sampling            0.655s
      ulv_factorization         0.236s

The tracer keeps a bounded ring buffer of completed *root* spans (a root is
a span opened with no active parent), queryable via
:meth:`Tracer.recent_roots`.  Span bookkeeping is thread-local, so
concurrent threads trace independent trees without locking each other.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer", "trace"]


@dataclass
class Span:
    """One timed region of work, possibly with nested child spans.

    Parameters
    ----------
    name:
        Span name, conventionally dotted (``"hss.build"``).
    start:
        ``time.perf_counter()`` at span entry.
    elapsed:
        Wall seconds from entry to exit (0 while the span is open).
    children:
        Spans opened (and closed) while this span was active.
    attributes:
        Facts about the work the span timed (counts, sizes), set by the
        code inside the ``with`` body: ``span.attributes["waves"] = 12``.
        Values should be JSON-serializable.
    """

    name: str
    start: float = 0.0
    elapsed: float = 0.0
    children: List["Span"] = field(default_factory=list)
    attributes: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict:
        """Plain-dict form of the span tree (JSON-serializable)."""
        return {
            "name": self.name,
            "elapsed": self.elapsed,
            "attributes": dict(self.attributes),
            "children": [c.as_dict() for c in self.children],
        }

    def find(self, name: str) -> Optional["Span"]:
        """Depth-first search for the first descendant named ``name``."""
        for child in self.children:
            if child.name == name:
                return child
            found = child.find(name)
            if found is not None:
                return found
        return None

    def format(self, indent: int = 0) -> str:
        """Indented multi-line rendering of the span tree."""
        lines = [f"{'  ' * indent}{self.name:<32s} {self.elapsed * 1e3:10.3f} ms"]
        for child in self.children:
            lines.append(child.format(indent + 1))
        return "\n".join(lines)


class Tracer:
    """Thread-local span stack plus a shared ring buffer of finished roots.

    Parameters
    ----------
    max_roots:
        Number of most recent completed root spans retained for
        :meth:`recent_roots`.
    """

    def __init__(self, max_roots: int = 256):
        self._local = threading.local()
        self._roots: "deque[Span]" = deque(maxlen=int(max_roots))
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Open a span around the ``with`` body; nests under any open span.

        Parameters
        ----------
        name:
            Span name, conventionally dotted (``"serving.batch"``).
        """
        stack = self._stack()
        node = Span(name=name, start=time.perf_counter())
        stack.append(node)
        try:
            yield node
        finally:
            node.elapsed = time.perf_counter() - node.start
            stack.pop()
            if stack:
                stack[-1].children.append(node)
            else:
                with self._lock:
                    self._roots.append(node)

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, or ``None``."""
        stack = self._stack()
        return stack[-1] if stack else None

    def recent_roots(self, n: Optional[int] = None) -> List[Span]:
        """The most recent completed root spans, oldest first.

        Parameters
        ----------
        n:
            Number of roots to return (``None`` → all retained).
        """
        with self._lock:
            roots = list(self._roots)
        return roots if n is None else roots[-int(n):]

    def clear(self) -> None:
        """Drop all retained root spans (open spans are unaffected)."""
        with self._lock:
            self._roots.clear()


#: The process-wide tracer used by :func:`repro.utils.timing.TimingLog.phase`
#: and the serving/pipeline instrumentation.
trace = Tracer()

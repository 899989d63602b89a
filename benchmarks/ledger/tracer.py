"""Benchmark-side spans and exact call counts.

Spans are recorded here, around the calls into each layer's public
functions — the program under test is not instrumented.  They are kept in
memory and written once, when the traced run ends.

Span file schema (``trace_<workload>.json``)::

    {"run_id": str, "workload": str, "seed": int,
     "spans": [{"id": int, "parent": int | null, "name": "<layer>.<op>",
                "run_id": str, "start_s": float, "end_s": float,
                "self_s": float, "counts": {str: number}}, ...]}

``start_s``/``end_s`` are seconds since the tracer was created; ``self_s``
is the span's duration minus the part covered by its direct children;
``counts`` are work counts taken at the same boundary (rows, calls, bytes).
"""

from __future__ import annotations

import cProfile
import gc
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple


class Tracer:
    """In-memory span recorder with parent links (one thread)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, **counts):
        """Record one span; ``counts`` may be extended through the yielded dict."""
        record = {"id": len(self.spans),
                  "parent": self._stack[-1] if self._stack else None,
                  "name": name, "run_id": self.run_id,
                  "start_s": time.perf_counter() - self._t0, "end_s": None,
                  "counts": dict(counts)}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end_s"] = time.perf_counter() - self._t0
            self._stack.pop()

    def durations(self, name: str) -> List[float]:
        """Durations of every finished span called ``name``, in order."""
        return [s["end_s"] - s["start_s"] for s in self.spans
                if s["name"] == name and s["end_s"] is not None]

    def finished(self) -> List[dict]:
        """All spans with ``self_s`` filled in."""
        child_time: Dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                           + s["end_s"] - s["start_s"])
        return [dict(s, self_s=s["end_s"] - s["start_s"]
                     - child_time.get(s["id"], 0.0)) for s in self.spans]

    def write(self, path: str, **header) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(header, run_id=self.run_id,
                           spans=self.finished()), fh, indent=1)
            fh.write("\n")


def profiled_calls(fn: Callable[[], object]) -> Tuple[object, int]:
    """Run ``fn`` under the profiler; return ``(result, calls)``.

    ``calls`` counts every Python-function call and every C-function call
    made on this thread while ``fn`` runs (``cProfile`` is ``sys.setprofile``
    in C, so these are the same events at a fraction of the cost).  The
    cyclic collector is emptied first and held off meanwhile: finalizers of
    earlier garbage, run whenever a collection happens to fall inside
    ``fn``, moved the count by three calls in 260 404 between runs with
    different round counts.  Without them it depends only on the inputs.
    """
    profiler = cProfile.Profile()
    gc.collect()
    gc.disable()
    try:
        result = profiler.runcall(fn)
    finally:
        gc.enable()
    return result, sum(entry.callcount for entry in profiler.getstats())

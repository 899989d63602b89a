"""Process-wide metrics registry: counters, gauges and mergeable histograms.

The registry is the single accumulation point for everything the process
does — phase wall-clock, kernel evaluations, transport bytes, serving
latencies.  Three design constraints shape it:

* **Dependency-free.**  Only the standard library; ``repro.obs`` sits below
  every other ``repro`` package so even ``repro.utils.timing`` can import it.
* **Thread-safe and cheap.**  Each metric owns one lock; an increment is a
  lock/add/unlock.  Hot paths hold on to metric (or labeled-child) handles
  so no dictionary lookup happens per event.
* **Exactly mergeable.**  Histograms use one fixed, process-independent
  bucket boundary table (:data:`DEFAULT_BUCKETS`), so snapshots taken on
  different worker processes merge by plain elementwise integer addition —
  no re-binning, no approximation.

Distributed runs ship worker-local snapshots back to the parent process
(see :meth:`MetricsRegistry.absorb`), which stores the *latest cumulative*
snapshot per shard; :meth:`MetricsRegistry.snapshot` then presents one
cluster view with a ``shard`` label on every remote sample.
"""

from __future__ import annotations

import json
import math
import os
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "global_registry",
    "set_enabled",
    "is_enabled",
    "merge_snapshots",
]

#: Shared histogram bucket upper bounds: ``10**(e/4)`` for ``e`` in
#: ``range(-24, 17)`` — a quarter-decade grid from 1 microsecond to 10 000
#: (seconds, rows, bytes...).  Every histogram in every process uses this
#: table, which is what makes shard snapshot merging exact.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(10.0 ** (e / 4.0) for e in range(-24, 17))


def _serialize_labels(labels: Mapping[str, str]) -> str:
    """Render a label mapping as a Prometheus-style suffix (sorted keys)."""
    if not labels:
        return ""
    inner = ",".join(
        '{}="{}"'.format(k, str(v).replace("\\", r"\\").replace('"', r"\""))
        for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing count.

    Parameters
    ----------
    name:
        Metric family name (by convention ends in ``_total``).
    labels:
        Fixed label key/value mapping of this child (empty for an
        unlabeled metric).
    """

    kind = "counter"

    def __init__(self, name: str, labels: Optional[Mapping[str, str]] = None):
        self.name = name
        self.labels = dict(labels or {})
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current accumulated count."""
        with self._lock:
            return self._value

    def _sample(self) -> float:
        return self.value


class Gauge:
    """A value that can go up and down (pool sizes, generations, ...).

    Parameters
    ----------
    name:
        Metric family name.
    labels:
        Fixed label key/value mapping of this child.
    """

    kind = "gauge"

    def __init__(self, name: str, labels: Optional[Mapping[str, str]] = None):
        self.name = name
        self.labels = dict(labels or {})
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` to the gauge."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the gauge."""
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        """Current gauge value."""
        with self._lock:
            return self._value

    def _sample(self) -> float:
        return self.value


class Histogram:
    """A fixed-bucket histogram of observed values.

    All histograms share :data:`DEFAULT_BUCKETS`, so two histograms of the
    same name — possibly observed in different processes — merge exactly by
    adding bucket counts.  Observations below the first bound land in
    bucket 0; observations above the last bound land in the implicit
    ``+Inf`` bucket.

    Parameters
    ----------
    name:
        Metric family name.
    labels:
        Fixed label key/value mapping of this child.
    """

    kind = "histogram"

    def __init__(self, name: str, labels: Optional[Mapping[str, str]] = None):
        self.name = name
        self.labels = dict(labels or {})
        self._counts = [0] * (len(DEFAULT_BUCKETS) + 1)  # last = +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        # log10(v)*4 inverts the 10**(e/4) bucket grid; math.ceil because
        # bucket bounds are *upper* bounds (v <= bound).
        if value <= DEFAULT_BUCKETS[0]:
            idx = 0
        elif value > DEFAULT_BUCKETS[-1]:
            idx = len(DEFAULT_BUCKETS)
        else:
            idx = int(math.ceil(math.log10(value) * 4.0)) + 24
            # Guard the float boundary: ensure v really is <= bounds[idx].
            while idx > 0 and value <= DEFAULT_BUCKETS[idx - 1]:
                idx -= 1
            while value > DEFAULT_BUCKETS[idx]:
                idx += 1
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        """Total number of observations."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        with self._lock:
            return self._sum

    def percentile(self, q: float) -> float:
        """Approximate ``q``-th percentile (upper bucket bound), ``q`` in [0, 100]."""
        with self._lock:
            total = self._count
            counts = list(self._counts)
        if total == 0:
            return 0.0
        target = max(1, math.ceil(total * q / 100.0))
        running = 0
        for i, c in enumerate(counts):
            running += c
            if running >= target:
                return DEFAULT_BUCKETS[i] if i < len(DEFAULT_BUCKETS) else math.inf
        return math.inf  # pragma: no cover - unreachable

    def _sample(self) -> Dict[str, object]:
        with self._lock:
            return {
                "buckets": list(self._counts),
                "sum": self._sum,
                "count": self._count,
            }


class _LabeledFamily:
    """Get-or-create container of labeled children of one metric family."""

    def __init__(self, name: str, cls, labelnames: Tuple[str, ...]):
        self.name = name
        self.cls = cls
        self.labelnames = labelnames
        self._children: Dict[Tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def labels(self, **labels: str):
        """Return (creating if needed) the child with the given label values."""
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[k]) for k in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self.cls(self.name, dict(zip(self.labelnames, key)))
                self._children[key] = child
            return child

    def _iter_children(self) -> Iterable[object]:
        with self._lock:
            return list(self._children.values())


class MetricsRegistry:
    """Thread-safe registry of named metrics with snapshot/merge/export.

    Metrics are created lazily by :meth:`counter`, :meth:`gauge` and
    :meth:`histogram` — repeated calls with the same name return the same
    object, so call sites do not need to coordinate registration.  Passing
    ``labelnames`` returns a family whose ``.labels(k=v)`` children are the
    actual counters; hot paths should cache the child handle.

    Remote (worker) snapshots are attached with :meth:`absorb` and appear
    in :meth:`snapshot` / exporters with a ``shard`` label.
    """

    def __init__(self):
        self._metrics: Dict[str, object] = {}
        self._help: Dict[str, str] = {}
        self._lock = threading.Lock()
        self._remote: Dict[str, Dict] = {}
        self._remote_lock = threading.Lock()

    # ----------------------------------------------------------- registration
    def _get_or_create(self, name, cls, help, labelnames):
        labelnames = tuple(labelnames or ())
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                want_family = bool(labelnames)
                is_family = isinstance(existing, _LabeledFamily)
                if want_family != is_family or (
                    is_family and existing.labelnames != labelnames
                ) or (getattr(existing, "cls", type(existing)) is not cls):
                    raise ValueError(
                        f"metric {name!r} already registered with a "
                        f"different type or labels"
                    )
                return existing
            metric = _LabeledFamily(name, cls, labelnames) if labelnames else cls(name)
            self._metrics[name] = metric
            if help:
                self._help[name] = help
            return metric

    def counter(self, name: str, help: str = "", labelnames: Iterable[str] = ()):
        """Get or create a :class:`Counter` (or labeled counter family).

        Parameters
        ----------
        name:
            Metric family name; by convention counters end in ``_total``.
        help:
            One-line description used in the Prometheus exposition.
        labelnames:
            Label keys; when non-empty a family is returned and children
            are obtained via ``family.labels(key=value)``.
        """
        return self._get_or_create(name, Counter, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Iterable[str] = ()):
        """Get or create a :class:`Gauge` (or labeled gauge family).

        Parameters
        ----------
        name:
            Metric family name.
        help:
            One-line description used in the Prometheus exposition.
        labelnames:
            Label keys; when non-empty a family is returned.
        """
        return self._get_or_create(name, Gauge, help, labelnames)

    def histogram(self, name: str, help: str = "", labelnames: Iterable[str] = ()):
        """Get or create a :class:`Histogram` (or labeled histogram family).

        Parameters
        ----------
        name:
            Metric family name.
        help:
            One-line description used in the Prometheus exposition.
        labelnames:
            Label keys; when non-empty a family is returned.
        """
        return self._get_or_create(name, Histogram, help, labelnames)

    # -------------------------------------------------------------- snapshots
    def _iter_samples(self) -> Iterable[object]:
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            if isinstance(metric, _LabeledFamily):
                for child in metric._iter_children():
                    yield child
            else:
                yield metric

    def local_snapshot(self) -> Dict:
        """Snapshot of this process's own metrics (no absorbed remotes).

        Returns a plain, JSON-serializable dict with ``counters`` /
        ``gauges`` mapping serialized sample names to values, and
        ``histograms`` mapping names to ``{"buckets", "sum", "count"}``.
        The shared bucket bounds are recorded once under ``"bounds"``.
        """
        snap: Dict = {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "bounds": list(DEFAULT_BUCKETS),
            "help": dict(self._help),
        }
        for metric in self._iter_samples():
            key = metric.name + _serialize_labels(metric.labels)
            if metric.kind == "counter":
                snap["counters"][key] = metric._sample()
            elif metric.kind == "gauge":
                snap["gauges"][key] = metric._sample()
            else:
                snap["histograms"][key] = metric._sample()
        return snap

    def absorb(self, key: str, snapshot: Dict) -> None:
        """Attach (replace) a remote process's cumulative snapshot.

        Workers ship their *cumulative* local snapshot on every ``fit``
        reply; the registry keeps only the most recent snapshot per
        ``key``, so repeated absorption never double-counts.

        Parameters
        ----------
        key:
            Identity of the remote process (shard id as a string).
        snapshot:
            A dict produced by :meth:`local_snapshot` on the remote side.
        """
        with self._remote_lock:
            self._remote[str(key)] = snapshot

    def remote_keys(self) -> List[str]:
        """Shard keys with an absorbed snapshot, sorted."""
        with self._remote_lock:
            return sorted(self._remote)

    def snapshot(self) -> Dict:
        """Merged cluster view: local metrics plus absorbed remote snapshots.

        Remote samples gain a ``shard="<key>"`` label so per-shard
        breakdowns survive the merge; identical remote sample names from
        different shards stay distinct.
        """
        merged = self.local_snapshot()
        with self._remote_lock:
            remotes = dict(self._remote)
        for shard, snap in sorted(remotes.items()):
            merged = merge_snapshots(merged, snap, extra_labels={"shard": shard})
        return merged

    def to_json(self, indent: Optional[int] = None) -> str:
        """Merged snapshot serialized as JSON text.

        Parameters
        ----------
        indent:
            Passed through to :func:`json.dumps`.
        """
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Merged snapshot rendered in the Prometheus text exposition format."""
        from .export import snapshot_to_prometheus

        return snapshot_to_prometheus(self.snapshot())

    def reset(self) -> None:
        """Drop every metric and absorbed remote snapshot."""
        with self._lock:
            self._metrics.clear()
            self._help.clear()
        with self._remote_lock:
            self._remote.clear()


class _NullMetric:
    """No-op stand-in for any metric; every recording method does nothing."""

    name = "null"
    labels: Dict[str, str] = {}

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def labels(self, **labels) -> "_NullMetric":
        return self

    @property
    def value(self) -> float:
        return 0.0

    @property
    def count(self) -> int:
        return 0

    @property
    def sum(self) -> float:
        return 0.0

    def percentile(self, q: float) -> float:
        return 0.0


_NULL_METRIC = _NullMetric()


class NullRegistry(MetricsRegistry):
    """A registry whose metrics are no-ops (used when telemetry is disabled).

    Handles returned from :meth:`counter` / :meth:`gauge` /
    :meth:`histogram` accept all recording calls and discard them, so
    instrumented code runs unchanged at near-zero cost.
    """

    def __init__(self):
        super().__init__()

    def counter(self, name: str, help: str = "", labelnames: Iterable[str] = ()):
        """Return the shared no-op metric (see class docstring).

        Parameters
        ----------
        name:
            Ignored.
        help:
            Ignored.
        labelnames:
            Ignored.
        """
        return _NULL_METRIC

    gauge = counter
    histogram = counter


def _parse_sample_name(sample: str) -> Tuple[str, Dict[str, str]]:
    """Split ``name{k="v",...}`` into (name, labels dict)."""
    if "{" not in sample:
        return sample, {}
    name, _, rest = sample.partition("{")
    rest = rest.rstrip("}")
    labels: Dict[str, str] = {}
    if rest:
        # Labels were serialized by _serialize_labels: no embedded commas
        # in values beyond escaped quotes — split naively and unescape.
        for part in rest.split('",'):
            k, _, v = part.partition('="')
            labels[k.strip()] = v.rstrip('"').replace(r"\"", '"').replace(r"\\", "\\")
    return name, labels


def _relabel(sample: str, extra: Mapping[str, str]) -> str:
    name, labels = _parse_sample_name(sample)
    labels.update(extra)
    return name + _serialize_labels(labels)


def merge_snapshots(base: Dict, other: Dict,
                    extra_labels: Optional[Mapping[str, str]] = None) -> Dict:
    """Merge two snapshots into a new one (exact histogram addition).

    Counters sum; gauges take the incoming value (last writer wins);
    histogram bucket counts add elementwise — exact because all snapshots
    share :data:`DEFAULT_BUCKETS`.

    Parameters
    ----------
    base:
        Snapshot merged *into* (not mutated).
    other:
        Snapshot merged *from*.
    extra_labels:
        Labels appended to every ``other`` sample name before merging,
        e.g. ``{"shard": "1"}`` to keep per-shard samples distinct.

    Returns
    -------
    dict
        A new snapshot dict; neither input is mutated.
    """
    out = {
        "counters": dict(base.get("counters", {})),
        "gauges": dict(base.get("gauges", {})),
        "histograms": {k: dict(v) for k, v in base.get("histograms", {}).items()},
        "bounds": list(base.get("bounds", DEFAULT_BUCKETS)),
        "help": dict(base.get("help", {})),
    }
    extra = dict(extra_labels or {})

    def rename(sample: str) -> str:
        return _relabel(sample, extra) if extra else sample

    for sample, value in other.get("counters", {}).items():
        key = rename(sample)
        out["counters"][key] = out["counters"].get(key, 0.0) + value
    for sample, value in other.get("gauges", {}).items():
        out["gauges"][rename(sample)] = value
    for sample, hist in other.get("histograms", {}).items():
        key = rename(sample)
        existing = out["histograms"].get(key)
        if existing is None:
            out["histograms"][key] = {
                "buckets": list(hist["buckets"]),
                "sum": hist["sum"],
                "count": hist["count"],
            }
        else:
            if len(existing["buckets"]) != len(hist["buckets"]):
                raise ValueError(
                    f"histogram {key!r} has mismatched bucket tables; "
                    "snapshots must share DEFAULT_BUCKETS"
                )
            existing["buckets"] = [
                a + b for a, b in zip(existing["buckets"], hist["buckets"])
            ]
            existing["sum"] += hist["sum"]
            existing["count"] += hist["count"]
    out["help"].update(other.get("help", {}))
    return out


# ------------------------------------------------------------------ globals
_enabled = os.environ.get("REPRO_OBS_DISABLED", "").strip() not in ("1", "true", "yes")
_registry = MetricsRegistry()
_null_registry = NullRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide registry.

    Returns
    -------
    MetricsRegistry
        The shared registry, or the no-op :class:`NullRegistry` while
        telemetry is disabled.
    """
    return _registry if _enabled else _null_registry


def set_enabled(enabled: bool) -> None:
    """Enable or disable telemetry process-wide.

    While disabled, :func:`global_registry` returns a no-op registry, so
    *newly created* metric handles discard all recordings.  Handles cached
    before disabling keep recording into the real registry; long-lived
    objects (engines, services) should be constructed after the switch.

    Parameters
    ----------
    enabled:
        ``True`` to record metrics, ``False`` to discard them.
    """
    global _enabled
    _enabled = bool(enabled)


def is_enabled() -> bool:
    """Whether telemetry is currently being recorded.

    Returns
    -------
    bool
        ``True`` while :func:`global_registry` hands out the real registry.
    """
    return _enabled

"""Process-wide metrics registry: counters, gauges and histograms.

This is the unified stats surface for the whole stack.  Before this module
existed every subsystem grew its own ad-hoc dict — ``BufferArena.stats()``,
``ConditionCache.stats()``, ``KernelCache.stats()``,
``RemoteExecutor.last_run_stats`` — with no way to
merge them across shards or ship them across the remote transport.  The
registry keeps the hot paths untouched (backends still bump plain dict
counters) and unifies at the read side: :func:`backend_registry` publishes a
backend's counters under canonical ``nn.*`` metric names, and anything that
used to read a bespoke dict now reads the registry snapshot.

Merge semantics (used when worker-side snapshots ride back in the shard
result envelope):

- counters add,
- gauges take the max (they model high-water marks like arena peak bytes),
- histograms combine count/total/min/max.

Snapshots are plain dicts of plain scalars so they pickle small and survive
the remote transport unchanged.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional


class Counter:
    """A monotonically increasing sum.  Merges by addition."""

    kind = "counter"
    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.value = 0
        self._lock = lock

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}

    def merge(self, snapshot: Dict[str, Any]) -> None:
        with self._lock:
            self.value += snapshot.get("value", 0)


class Gauge:
    """A point-in-time value.  Merges by max (models high-water marks)."""

    kind = "gauge"
    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.value = 0
        self._lock = lock

    def set(self, value: Any) -> None:
        with self._lock:
            self.value = value

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value}

    def merge(self, snapshot: Dict[str, Any]) -> None:
        other = snapshot.get("value", 0)
        with self._lock:
            if other > self.value:
                self.value = other


class Histogram:
    """Streaming count/total/min/max over observed values (e.g. seconds)."""

    kind = "histogram"
    __slots__ = ("name", "count", "total", "min", "max", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = lock

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "histogram", "count": self.count, "total": self.total,
                "min": self.min, "max": self.max}

    def merge(self, snapshot: Dict[str, Any]) -> None:
        with self._lock:
            self.count += snapshot.get("count", 0)
            self.total += snapshot.get("total", 0.0)
            for key, pick in (("min", min), ("max", max)):
                other = snapshot.get(key)
                if other is None:
                    continue
                mine = getattr(self, key)
                setattr(self, key, other if mine is None else pick(mine, other))


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """A named collection of metrics with snapshot/merge support."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Any] = {}

    def _get(self, name: str, cls: type) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name, threading.Lock())
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} is a {metric.kind}, not a {cls.kind}")
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Plain-dict snapshot, picklable and JSON-serializable."""
        with self._lock:
            metrics = list(self._metrics.values())
        return {metric.name: metric.snapshot() for metric in metrics}

    def merge_snapshot(self, snapshot: Dict[str, Dict[str, Any]]) -> None:
        """Fold another registry's snapshot into this one (shard merge)."""
        for name, entry in snapshot.items():
            cls = _KINDS.get(entry.get("type"))
            if cls is None:
                continue
            self._get(name, cls).merge(entry)

    def totals(self) -> Dict[str, Any]:
        """Flat ``{name: scalar}`` view: counter/gauge values, histogram
        totals (the cumulative-time number reports sort by)."""
        flat: Dict[str, Any] = {}
        for name, entry in self.snapshot().items():
            flat[name] = entry["total"] if entry["type"] == "histogram" \
                else entry["value"]
        return flat

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)


_PROCESS_REGISTRY = MetricsRegistry()
_ACTIVE = threading.local()


def process_registry() -> MetricsRegistry:
    """The registry owned by this process (the merge target for shards)."""
    return _PROCESS_REGISTRY


def get_registry() -> MetricsRegistry:
    """The registry active on this thread.

    Normally the process registry; inside a worker-side shard observation a
    thread-local shard registry is installed so the shard's metrics can ride
    back in the result envelope and merge into the parent.
    """
    override = getattr(_ACTIVE, "registry", None)
    return override if override is not None else _PROCESS_REGISTRY


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Install ``registry`` as this thread's active registry."""
    previous = getattr(_ACTIVE, "registry", None)
    _ACTIVE.registry = registry
    try:
        yield registry
    finally:
        _ACTIVE.registry = previous


def backend_registry(backend: Any,
                     registry: Optional[MetricsRegistry] = None,
                     ) -> MetricsRegistry:
    """Publish an ``ArrayBackend``'s ad-hoc counters as registry metrics.

    This is the unification seam for the legacy stats surfaces: arena
    traffic lands under ``nn.arena.*`` and compiled-backend state under
    ``nn.cjit.*``.  ``ArrayBackend.stats()`` and the benchmarks read
    through this instead of bespoke per-backend dicts.
    """
    registry = registry if registry is not None else MetricsRegistry()
    arena = getattr(backend, "arena", None)
    if arena is not None and hasattr(arena, "stats"):
        for key, value in arena.stats().items():
            registry.gauge(f"nn.arena.{key}").set(int(value))
    for attr in ("compiled", "fallbacks"):
        value = getattr(backend, attr, None)
        if isinstance(value, int):
            registry.gauge(f"nn.cjit.{attr}").set(value)
    cache = getattr(backend, "cache", None)
    if cache is not None and hasattr(cache, "stats"):
        for key, value in cache.stats().items():
            if isinstance(value, (int, float)):
                registry.gauge(f"nn.cjit.cache.{key}").set(value)
    return registry


def cache_registry(cache: Any, prefix: str = "channel.cache",
                   registry: Optional[MetricsRegistry] = None,
                   ) -> MetricsRegistry:
    """Publish a ``ConditionCache``-style ``stats()`` dict as gauges."""
    registry = registry if registry is not None else MetricsRegistry()
    for key, value in cache.stats().items():
        if isinstance(value, (int, float)):
            registry.gauge(f"{prefix}.{key}").set(value)
    return registry

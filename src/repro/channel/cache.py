"""A small LRU cache for per-condition channel artifacts.

Monte-Carlo consumers of a channel model — the time-aware code selector, the
ECC evaluation loop, the LLR density estimation — repeatedly query the same
``(model, P/E cycle)`` operating condition.  The artifacts they derive
(density tables, error-rate estimates, wear parameters) are expensive to
recompute and small to store, so every :class:`repro.channel.ChannelModel`
carries a :class:`ConditionCache` keyed by the condition tuple.

The cache is a plain ordered-dict LRU: no external dependency, deterministic
eviction, and hit/miss counters so benchmarks can report cache
effectiveness.  A worker of the sharded execution engine (:mod:`repro.exec`)
fills its own copy of a context's cache, and those entries stay in the
worker: an artifact every shard needs is computed in the parent and passed
in the plan context instead.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

__all__ = ["ConditionCache"]


class _InFlight:
    """Reservation stored while a key's compute runs.

    Records the owning thread so a *reentrant* compute of the same key (the
    same thread re-entering through its own compute callable — an infinite
    recursion in the making) fails fast, while a merely *concurrent* compute
    from another thread falls back to computing independently, exactly as it
    did before reservations existed.
    """

    __slots__ = ("thread_id",)

    def __init__(self):
        self.thread_id = threading.get_ident()


class ConditionCache:
    """Least-recently-used cache keyed by hashable condition tuples.

    Parameters
    ----------
    maxsize:
        Maximum number of cached entries; the least recently used entry is
        evicted when the cache is full.  ``0`` disables caching entirely
        (every :meth:`get_or_compute` call recomputes).
    """

    def __init__(self, maxsize: int = 32):
        if maxsize < 0:
            raise ValueError("maxsize must be non-negative")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return sum(1 for value in self._entries.values()
                   if not isinstance(value, _InFlight))

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries \
            and not isinstance(self._entries[key], _InFlight)

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing it on a miss.

        A ``compute`` that raises does not poison the key: the reservation is
        removed and the next call recomputes.  A compute that re-enters the
        cache for its own key raises :class:`RuntimeError` instead of
        recursing forever; a concurrent compute from *another* thread simply
        computes its own copy (duplicate work, never a crash).
        """
        if key in self._entries:
            value = self._entries[key]
            if isinstance(value, _InFlight):
                if value.thread_id == threading.get_ident():
                    raise RuntimeError(f"reentrant computation of cache key "
                                       f"{key!r}")
                # Another thread is computing this key; duplicate the work
                # independently rather than waiting on (or corrupting) its
                # reservation.
                self.misses += 1
                return compute()
            self.hits += 1
            self._entries.move_to_end(key)
            return value
        self.misses += 1
        if self.maxsize == 0:
            return compute()
        reservation = _InFlight()
        self._entries[key] = reservation
        try:
            value = compute()
        except BaseException:
            if self._entries.get(key) is reservation:
                self._entries.pop(key, None)
            raise
        self._entries[key] = value
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return value

    def clear(self) -> None:
        """Drop every entry and reset both counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict[str, int]:
        """Hit/miss/size counters (useful in benchmark reports)."""
        return {"hits": self.hits, "misses": self.misses, "size": len(self)}

    def publish_metrics(self, prefix: str = "channel.cache",
                        registry: Any = None) -> Any:
        """Publish :meth:`stats` as gauges in an observability registry.

        Lands the counters under ``<prefix>.*`` in ``registry`` (the active
        :mod:`repro.obs` registry when omitted), so traced campaigns report
        cache effectiveness alongside kernel and fleet metrics instead of
        through ad-hoc ``stats()`` plumbing.
        """
        from repro.obs import metrics as _metrics

        if registry is None:
            registry = _metrics.get_registry()
        return _metrics.cache_registry(self, prefix=prefix,
                                       registry=registry)

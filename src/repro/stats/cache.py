"""Process-wide memoization for the planning hot path.

The sample-size machinery is pure: every result is a deterministic function
of its (hashable) arguments.  A CI service fielding heavy commit traffic
therefore re-derives the same plans, the same tight bounds, and the same
worst-case scans over and over — this module gives every layer of the stack
a shared, inspectable, invalidatable cache:

* :class:`LRUCache` — a small thread-safe least-recently-used mapping used
  directly by the estimator's plan cache and wrapped by :func:`memoize`;
* :func:`memoize` — a decorator building a keyed cache over a function of
  hashable positional arguments (the tight-bound entry points use it);
* a **registry**: every cache created through this module self-registers
  under a dotted name, so operators can inspect hit rates
  (:func:`all_cache_info`) and invalidate everything in one call
  (:func:`clear_all_caches`) — e.g. after hot-reloading the statistics
  code, or in benchmarks that need cold-start timings.

Invalidation contract
---------------------
Caches key on *every* input that can affect the result (including
estimator configuration), so entries never go stale under normal use; the
only reasons to clear are benchmarking cold paths and reclaiming memory.
``clear_all_caches()`` is the single entry point; individual caches can be
cleared through ``all_caches()[name].clear()``.

Registry contents
-----------------
Every memoized layer registers here (asserted complete in
``tests/stats/test_cache_registry.py``):

* ``estimators.plan_cache`` — the process-wide :class:`SampleSizePlan`
  cache shared by every estimator instance;
* ``stats.batch.log_factorial_table`` — the shared ``lgamma`` table (and
  the per-``n`` log-binomial rows derived from it);
* ``stats.batch.pairs_layout`` — concatenated padded log-binomial
  segments reused across dispatches of the heterogeneous
  multi-``(n, p, eps)`` kernel;
* ``stats.tight_bounds.worst_case`` / ``exceeds_delta`` /
  ``tight_sample_size`` — the memoized §4.3 scans and search.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import wraps
from typing import Any, Callable, Hashable, Iterator, Mapping

__all__ = [
    "CacheInfo",
    "LRUCache",
    "memoize",
    "register_cache",
    "all_caches",
    "all_cache_info",
    "clear_all_caches",
]


@dataclass(frozen=True)
class CacheInfo:
    """Point-in-time statistics for one cache."""

    hits: int
    misses: int
    maxsize: int
    currsize: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUCache:
    """A thread-safe least-recently-used mapping.

    Kept deliberately tiny (``OrderedDict`` + a lock): the cached values —
    plans, sample sizes — are immutable, so sharing the stored object with
    every caller is safe.
    """

    def __init__(self, maxsize: int = 1024):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, refreshing its recency on a hit."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self._misses += 1
                return default
            self._data.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``key`` (evicting the least recently used on overflow)."""
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        """Drop every entry (statistics are reset too)."""
        with self._lock:
            self._data.clear()
            self._hits = 0
            self._misses = 0

    def info(self) -> CacheInfo:
        """Current :class:`CacheInfo` snapshot."""
        with self._lock:
            return CacheInfo(
                hits=self._hits,
                misses=self._misses,
                maxsize=self.maxsize,
                currsize=len(self._data),
            )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, LRUCache] = {}
_REGISTRY_LOCK = threading.Lock()


def register_cache(name: str, cache: LRUCache) -> LRUCache:
    """Register ``cache`` under ``name``.

    Re-registering a name replaces the previous entry (latest wins): the
    registration sites are module-level, so a hot-reload of a statistics
    module re-runs them, and the reloaded module's fresh caches are the
    live ones from then on.
    """
    with _REGISTRY_LOCK:
        _REGISTRY[name] = cache
    return cache


def all_caches() -> Mapping[str, LRUCache]:
    """Snapshot of every registered cache, by name."""
    with _REGISTRY_LOCK:
        return dict(_REGISTRY)


def all_cache_info() -> dict[str, CacheInfo]:
    """Hit/miss statistics for every registered cache."""
    return {name: cache.info() for name, cache in all_caches().items()}


def clear_all_caches() -> None:
    """Invalidate every registered cache (plans, tight bounds, tables)."""
    for cache in all_caches().values():
        cache.clear()


def _iter_key(args: tuple) -> Iterator[Hashable]:
    yield from args


def memoize(
    name: str, maxsize: int = 1024
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Memoize a pure function of hashable positional arguments.

    The wrapper exposes the underlying :class:`LRUCache` as ``.cache`` and
    registers it under ``name``.  Unlike :func:`functools.lru_cache` the
    cache participates in the module registry, so ``clear_all_caches()``
    reaches it, and ``None`` results are cached like any other value.
    """

    def decorator(func: Callable[..., Any]) -> Callable[..., Any]:
        cache = register_cache(name, LRUCache(maxsize=maxsize))
        sentinel = object()

        @wraps(func)
        def wrapper(*args: Hashable) -> Any:
            key = tuple(_iter_key(args))
            value = cache.get(key, sentinel)
            if value is sentinel:
                value = func(*args)
                cache.put(key, value)
            return value

        wrapper.cache = cache  # type: ignore[attr-defined]
        return wrapper

    return decorator

"""Every process-wide cache self-registers so clear_all_caches covers it.

The completeness check is *introspective*: it walks every module under
:mod:`repro.stats` and :mod:`repro.core.estimators` and discovers
module-level :class:`LRUCache` instances — both bare attributes (the
estimator plan cache) and the ``.cache`` attribute :func:`memoize` hangs
on its wrappers (the tight-bound layers).  A new memoized layer is
caught automatically: create a cache without registering it and the
discovered-but-unregistered assertion names the exact module attribute.
"""

import importlib
import pkgutil
import types

import numpy as np

import repro.core.estimators
import repro.stats
from repro.core.estimators.api import SampleSizeEstimator
from repro.stats.cache import LRUCache, all_cache_info, all_caches, clear_all_caches
from repro.stats.batch import exact_coverage_failure_probability_pairs
from repro.stats.tight_bounds import tight_sample_size, worst_case_failure_probability

# Registered through custom registry adapters rather than plain LRUCache
# instances (the shared lgamma table and the concatenated pairs layout);
# they opt into clear/info/manifest duties with proxy objects.
KNOWN_NON_LRU_ENTRIES = {
    "stats.batch.log_factorial_table",
    "stats.batch.pairs_layout",
}

_SCANNED_PACKAGES = (repro.stats, repro.core.estimators)


def _walk_modules():
    for package in _SCANNED_PACKAGES:
        yield package
        for info in pkgutil.walk_packages(
            package.__path__, prefix=package.__name__ + "."
        ):
            yield importlib.import_module(info.name)


def _discovered_caches() -> dict[int, tuple[str, LRUCache]]:
    """``id(cache) -> (dotted attribute path, cache)`` over the scan."""
    found: dict[int, tuple[str, LRUCache]] = {}
    for module in _walk_modules():
        for attr_name, value in vars(module).items():
            where = f"{module.__name__}.{attr_name}"
            if isinstance(value, LRUCache):
                found.setdefault(id(value), (where, value))
            elif isinstance(value, types.FunctionType):
                wrapped = getattr(value, "cache", None)  # memoize() wrappers
                if isinstance(wrapped, LRUCache):
                    found.setdefault(id(wrapped), (f"{where}.cache", wrapped))
    return found


def test_every_discovered_cache_is_registered():
    registered_ids = {id(cache): name for name, cache in all_caches().items()}
    discovered = _discovered_caches()
    # The scan must actually see the known layers — guard against the
    # walk silently going blind after a refactor.
    assert len(discovered) >= 4, sorted(path for path, _ in discovered.values())
    unregistered = [
        path for path, cache in discovered.values() if id(cache) not in registered_ids
    ]
    assert not unregistered, (
        f"module-level caches outside the registry (clear_all_caches would "
        f"miss them): {sorted(unregistered)}"
    )


def test_every_registered_lru_cache_is_discoverable():
    discovered = _discovered_caches()
    stranded = []
    for name, cache in all_caches().items():
        if not isinstance(cache, LRUCache):
            continue
        if id(cache) not in discovered:
            stranded.append(name)
    assert not stranded, (
        f"registered caches the module scan cannot see: {sorted(stranded)} "
        f"(moved outside {[p.__name__ for p in _SCANNED_PACKAGES]}?)"
    )


def test_non_lru_registry_entries_are_the_known_proxies():
    non_lru = {
        name for name, cache in all_caches().items() if not isinstance(cache, LRUCache)
    }
    assert non_lru == KNOWN_NON_LRU_ENTRIES


def _warm_planning_caches():
    """One call through each memoized planning layer; returns the results."""
    size = tight_sample_size(0.1, 1e-2)
    worst = worst_case_failure_probability(120, 0.1)
    pairs = exact_coverage_failure_probability_pairs(
        np.array([90, 160]), np.array([0.3, 0.5]), np.array([0.1, 0.05])
    )
    return size, worst, pairs


def test_clear_all_caches_reaches_every_registry_entry():
    # Warm every layer the batched-evaluation stack touches.
    SampleSizeEstimator().plan("n > 0.7 +/- 0.1", delta=1e-2, steps=2)
    _warm_planning_caches()
    warmed = {
        name
        for name, info in all_cache_info().items()
        if info.currsize > 0
    }
    assert "estimators.plan_cache" in warmed
    assert "stats.tight_bounds.tight_sample_size" in warmed
    assert "stats.tight_bounds.worst_case" in warmed
    assert "stats.batch.pairs_layout" in warmed
    clear_all_caches()
    for name, info in all_cache_info().items():
        assert info.currsize <= 1, f"cache {name!r} not cleared"


def test_cleared_caches_recompute_identically():
    size_warm, worst_warm, pairs_warm = _warm_planning_caches()
    clear_all_caches()
    size_cold, worst_cold, pairs_cold = _warm_planning_caches()
    assert size_warm == size_cold
    assert worst_warm == worst_cold
    assert np.array_equal(pairs_warm, pairs_cold)

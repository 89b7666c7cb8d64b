"""Which library callables the traced run wraps, and the per-layer metrics.

Each callable is wrapped where its caller looks it up: methods on their
class, ``tight_sample_size`` in the estimator module that imported it by
name, the ``stats.batch`` kernels in ``stats.tight_bounds`` that imported
them, and ``os.fsync`` on ``os`` (looked up at call time).

Every ``_ms`` metric is summed self time divided by the number of
operations (restore metrics: by the number of restores); every count is
per operation unless its name says per commit.
"""

from __future__ import annotations

import os
from typing import Any, Callable

from tracer import Tracer

import repro.core.estimators.api as estimators_api
import repro.stats.tight_bounds as tight_bounds
from repro.ci.notifications import RetryingTransport
from repro.ci.persistence import EventJournal, SnapshotStore
from repro.ci.repository import ModelRepository
from repro.ci.service import CIService
from repro.core.engine import CIEngine
from repro.core.estimators.api import SampleSizeEstimator
from repro.core.evaluation import ConditionEvaluator
from repro.core.testset import Testset
from repro.fleet.gateway import CIFleet
from repro.fleet.intake import IntakeQueue
from repro.reliability.storage import StorageGovernor
from repro.stats.cache import all_cache_info

__all__ = ["PER_LAYER", "WRAPPED", "cache_counts", "install", "per_layer_metrics"]


def _file_growth(args: tuple, kwargs: dict) -> Callable[[Any], dict]:
    path = args[0].path
    before = path.stat().st_size if path.exists() else 0
    return lambda result: {"bytes": path.stat().st_size - before}


def _snapshot_bytes(args: tuple, kwargs: dict) -> Callable[[Any], dict]:
    return lambda info: {"bytes": info.path.stat().st_size}


def _replayed(args: tuple, kwargs: dict) -> Callable[[Any], dict]:
    return lambda count: {"replayed": count}


def _hydrated(args: tuple, kwargs: dict) -> Callable[[Any], dict]:
    fleet = args[0]
    before = fleet.hydrations
    return lambda service: {"hydrated": fleet.hydrations - before}


#: (owner, attribute, span name, measure hook)
WRAPPED = (
    (EventJournal, "append", "ci.persistence.journal_append", _file_growth),
    (EventJournal, "compact", "ci.persistence.journal_compact", None),
    (SnapshotStore, "save", "ci.persistence.snapshot_save", _snapshot_bytes),
    (SnapshotStore, "load", "ci.persistence.snapshot_load", None),
    (SnapshotStore, "prune", "ci.persistence.prune", None),
    (CIService, "snapshot", "ci.service.snapshot", None),
    (CIService, "restore", "ci.service.restore", None),
    (CIService, "_replay_journal", "ci.service.replay", _replayed),
    (os, "fsync", "os.fsync", None),
    (CIFleet, "submit", "fleet.gateway.submit", None),
    (CIFleet, "service", "fleet.gateway.service", _hydrated),
    (CIFleet, "_try_evict", "fleet.gateway.evict", None),
    (CIFleet, "enqueue", "fleet.gateway.enqueue", None),
    (IntakeQueue, "append", "fleet.intake.append", None),
    (IntakeQueue, "ack", "fleet.intake.ack", None),
    (IntakeQueue, "compact", "fleet.intake.compact", None),
    (StorageGovernor, "check", "reliability.storage.check", None),
    (ModelRepository, "commit", "ci.repository.commit", None),
    (ModelRepository, "commit_many", "ci.repository.commit_many", None),
    (RetryingTransport, "send", "ci.notifications.send", None),
    (CIEngine, "submit", "core.engine.submit", None),
    (CIEngine, "submit_many", "core.engine.submit_many", None),
    (CIEngine, "_rotate_from_pool", "core.engine.rotate", None),
    (ConditionEvaluator, "evaluate", "core.evaluation.evaluate", None),
    (ConditionEvaluator, "evaluate_batch", "core.evaluation.evaluate_batch", None),
    (Testset, "predict_with", "core.testset.predict", None),
    (SampleSizeEstimator, "plan", "core.estimators.plan", None),
    (estimators_api, "tight_sample_size", "stats.tight_bounds.tight_sample_size", None),
    (tight_bounds, "exact_coverage_failure_probability_vec", "stats.batch.kernel", None),
    (tight_bounds, "exact_coverage_failure_probability_pairs", "stats.batch.kernel", None),
)


def install(tracer: Tracer) -> None:
    """Wrap every callable in :data:`WRAPPED` (undo with ``tracer.remove``)."""
    for owner, attr, name, measure in WRAPPED:
        tracer.install(owner, attr, name, measure)


def cache_counts() -> dict[str, tuple[int, int]]:
    """(hits, misses) of every registered cache, for before/after deltas."""
    return {name: (info.hits, info.misses) for name, info in all_cache_info().items()}


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def _merge(totals: list[dict[str, dict[str, float]]]) -> dict[str, dict[str, float]]:
    merged: dict[str, dict[str, float]] = {}
    for entry in totals:
        for span, values in entry.items():
            target = merged.setdefault(span, {})
            for key, value in values.items():
                target[key] = target.get(key, 0.0) + value
    return merged


def per_layer_metrics(
    tracers: list[Tracer],
    cache_deltas: list[tuple[dict, dict]],
    *,
    root: str,
    ops: int,
    commits: int,
    disk_bytes_per_commit: float,
) -> dict[str, float]:
    """Every per-layer metric from the traced repetitions' spans.

    ``ops`` and ``commits`` count the timed operations of all traced
    repetitions.  Restore metrics count spans under any operation (cold
    resumes after the stream, hydrations inside submits); every other
    metric counts spans under the workload's own operation ``root``.
    """
    primary = _merge([tracer.totals(root) for tracer in tracers])
    every = _merge([tracer.totals() for tracer in tracers])

    def get(span: str, key: str, source: dict = primary) -> float:
        return source.get(span, {}).get(key, 0.0)

    def ms(*spans: str, per: float = ops, source: dict = primary) -> float:
        total = sum(get(span, "self_s", source) for span in spans)
        return total * 1e3 / max(per, 1)

    def inclusive_ms(span: str) -> float:
        return get(span, "total_s") * 1e3 / max(ops, 1)

    def calls(span: str, per: float = ops) -> float:
        return get(span, "calls") / max(per, 1)

    def delta(prefix: str) -> tuple[int, int]:
        hits = misses = 0
        for before, after in cache_deltas:
            for name, (h, m) in after.items():
                if name.startswith(prefix):
                    h0, m0 = before.get(name, (0, 0))
                    hits, misses = hits + h - h0, misses + m - m0
        return hits, misses

    restores = get("ci.service.restore", "calls", every)
    lookups = get("fleet.gateway.service", "calls")
    hydrated = get("fleet.gateway.service", "hydrated")
    plan_hits, plan_misses = delta("estimators.plan_cache")
    stats_hits, stats_misses = delta("stats.")
    return {
        "ci.persistence.journal_append_ms": ms("ci.persistence.journal_append"),
        "ci.persistence.journal_appends_per_commit": calls(
            "ci.persistence.journal_append", commits
        ),
        "ci.persistence.journal_bytes_per_commit": get(
            "ci.persistence.journal_append", "bytes"
        ) / max(commits, 1),
        "ci.persistence.journal_compact_ms": ms("ci.persistence.journal_compact"),
        "ci.persistence.journal_compactions": calls("ci.persistence.journal_compact"),
        "ci.persistence.snapshot_save_ms": ms("ci.persistence.snapshot_save"),
        "ci.persistence.snapshot_bytes": get("ci.persistence.snapshot_save", "bytes")
        / max(ops, 1),
        "ci.persistence.prune_ms": ms("ci.persistence.prune"),
        "ci.persistence.snapshot_load_ms": ms(
            "ci.persistence.snapshot_load", per=restores, source=every
        ),
        "ci.persistence.disk_bytes_per_commit": disk_bytes_per_commit,
        "ci.service.snapshot_ms": ms("ci.service.snapshot"),
        "ci.service.snapshots": calls("ci.service.snapshot"),
        "ci.service.restore_ms": ms("ci.service.restore", per=restores, source=every),
        "ci.service.replay_ms": ms("ci.service.replay", per=restores, source=every),
        "ci.service.replayed_commits": get("ci.service.replay", "replayed", every)
        / max(restores, 1),
        "os.fsync_ms": ms("os.fsync"),
        "os.fsyncs_per_commit": calls("os.fsync", commits),
        "fleet.gateway.hit_ratio": _ratio(lookups - hydrated, lookups),
        "fleet.gateway.hydrations": hydrated / max(ops, 1),
        "fleet.gateway.evictions": calls("fleet.gateway.evict"),
        # Inclusive: a hydrate is the whole service() lookup (snapshot read
        # plus replay) minus the evictions it triggers; an evict is its
        # snapshot plus intake compaction.
        "fleet.gateway.hydrate_ms": inclusive_ms("fleet.gateway.service")
        - inclusive_ms("fleet.gateway.evict"),
        "fleet.gateway.evict_ms": inclusive_ms("fleet.gateway.evict"),
        "fleet.gateway.enqueue_ms": ms("fleet.gateway.enqueue"),
        "fleet.gateway.submit_ms": ms("fleet.gateway.submit"),
        "fleet.intake.append_ms": ms("fleet.intake.append"),
        "fleet.intake.ack_ms": ms("fleet.intake.ack"),
        "fleet.intake.compact_ms": ms("fleet.intake.compact"),
        "fleet.intake.compactions": calls("fleet.intake.compact"),
        "reliability.storage.check_ms": ms("reliability.storage.check"),
        "reliability.storage.checks": calls("reliability.storage.check"),
        "ci.repository.commit_ms": ms(
            "ci.repository.commit", "ci.repository.commit_many"
        ),
        "ci.notifications.send_ms": ms("ci.notifications.send"),
        "ci.notifications.sends": calls("ci.notifications.send"),
        "core.engine.submit_ms": ms("core.engine.submit"),
        "core.engine.submit_many_ms": ms("core.engine.submit_many"),
        "core.engine.rotations": calls("core.engine.rotate"),
        "core.evaluation.evaluate_ms": ms("core.evaluation.evaluate"),
        "core.evaluation.evaluate_batch_ms": ms("core.evaluation.evaluate_batch"),
        "core.testset.predict_ms": ms("core.testset.predict"),
        "core.estimators.plan_ms": ms("core.estimators.plan"),
        "core.estimators.plan_cache_hit_ratio": _ratio(
            plan_hits, plan_hits + plan_misses
        ),
        "core.estimators.plan_cache_misses": plan_misses / max(ops, 1),
        "stats.tight_bounds.tight_sample_size_ms": ms(
            "stats.tight_bounds.tight_sample_size"
        ),
        "stats.tight_bounds.tight_sample_size_calls": calls(
            "stats.tight_bounds.tight_sample_size"
        ),
        "stats.batch.kernel_ms": ms("stats.batch.kernel"),
        "stats.batch.kernel_calls": calls("stats.batch.kernel"),
        "stats.cache.hit_ratio": _ratio(stats_hits, stats_hits + stats_misses),
        "bench.root_self_ms": ms(f"op.{root}"),
    }


#: name -> (unit, better); every key per_layer_metrics returns, plus the
#: tracing-overhead pair the runner adds.
PER_LAYER = {
    "ci.persistence.journal_append_ms": ("ms", "lower"),
    "ci.persistence.journal_appends_per_commit": ("count", "lower"),
    "ci.persistence.journal_bytes_per_commit": ("B", "lower"),
    "ci.persistence.journal_compact_ms": ("ms", "lower"),
    "ci.persistence.journal_compactions": ("count", "lower"),
    "ci.persistence.snapshot_save_ms": ("ms", "lower"),
    "ci.persistence.snapshot_bytes": ("B", "lower"),
    "ci.persistence.prune_ms": ("ms", "lower"),
    "ci.persistence.snapshot_load_ms": ("ms", "lower"),
    "ci.persistence.disk_bytes_per_commit": ("B", "lower"),
    "ci.service.snapshot_ms": ("ms", "lower"),
    "ci.service.snapshots": ("count", "lower"),
    "ci.service.restore_ms": ("ms", "lower"),
    "ci.service.replay_ms": ("ms", "lower"),
    "ci.service.replayed_commits": ("count", "lower"),
    "os.fsync_ms": ("ms", "lower"),
    "os.fsyncs_per_commit": ("count", "lower"),
    "fleet.gateway.hit_ratio": ("ratio", "higher"),
    "fleet.gateway.hydrations": ("count", "lower"),
    "fleet.gateway.evictions": ("count", "lower"),
    "fleet.gateway.hydrate_ms": ("ms", "lower"),
    "fleet.gateway.evict_ms": ("ms", "lower"),
    "fleet.gateway.enqueue_ms": ("ms", "lower"),
    "fleet.gateway.submit_ms": ("ms", "lower"),
    "fleet.intake.append_ms": ("ms", "lower"),
    "fleet.intake.ack_ms": ("ms", "lower"),
    "fleet.intake.compact_ms": ("ms", "lower"),
    "fleet.intake.compactions": ("count", "lower"),
    "reliability.storage.check_ms": ("ms", "lower"),
    "reliability.storage.checks": ("count", "lower"),
    "ci.repository.commit_ms": ("ms", "lower"),
    "ci.notifications.send_ms": ("ms", "lower"),
    "ci.notifications.sends": ("count", "lower"),
    "core.engine.submit_ms": ("ms", "lower"),
    "core.engine.submit_many_ms": ("ms", "lower"),
    "core.engine.rotations": ("count", "lower"),
    "core.evaluation.evaluate_ms": ("ms", "lower"),
    "core.evaluation.evaluate_batch_ms": ("ms", "lower"),
    "core.testset.predict_ms": ("ms", "lower"),
    "core.estimators.plan_ms": ("ms", "lower"),
    "core.estimators.plan_cache_hit_ratio": ("ratio", "higher"),
    "core.estimators.plan_cache_misses": ("count", "lower"),
    "stats.tight_bounds.tight_sample_size_ms": ("ms", "lower"),
    "stats.tight_bounds.tight_sample_size_calls": ("count", "lower"),
    "stats.batch.kernel_ms": ("ms", "lower"),
    "stats.batch.kernel_calls": ("count", "lower"),
    "stats.cache.hit_ratio": ("ratio", "higher"),
    "bench.root_self_ms": ("ms", "lower"),
    "bench.trace_overhead_ms": ("ms", "lower"),
    "bench.trace_overhead_pct": ("%", "lower"),
}

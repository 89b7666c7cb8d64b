"""The process-wide reliability event log.

Every degraded-mode transition the reliability layer performs is
recorded here so operators can see *that* the system healed itself, not
just that results kept flowing: a restore skipped a corrupt snapshot
and replayed a longer journal tail, a notification was retried or
dead-lettered, a fleet tenant tripped its circuit breaker.
The log is runtime operational state — like cache statistics it is
per-process, never snapshotted, and starts empty after a restore (the
restore's own fallback events are the first entries the new process
records).

The log is a fixed-capacity ring buffer (default
:data:`DEFAULT_EVENT_CAPACITY` entries): a long-running fleet that
hydrates, evicts and retries for weeks keeps the newest events and a
:func:`dropped_event_count` tally instead of leaking memory.  Tests that
assert on the log record far fewer events than the capacity, so
:func:`reliability_events` semantics (all retained events, in order,
optionally filtered by kind) are unchanged.

:meth:`repro.ci.service.CIService.operations` folds the log into its
report and ``repro ops`` renders it; tests assert on it directly.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "DEFAULT_EVENT_CAPACITY",
    "ReliabilityEvent",
    "record_event",
    "reliability_events",
    "dropped_event_count",
    "event_capacity",
    "set_event_capacity",
    "clear_events",
]

#: How many events the ring buffer retains before dropping the oldest.
DEFAULT_EVENT_CAPACITY = 4096


@dataclass(frozen=True)
class ReliabilityEvent:
    """One recovery or degradation action taken by the reliability layer.

    Attributes
    ----------
    kind:
        What happened — e.g. ``"snapshot-quarantined"``,
        ``"snapshot-fallback"``, ``"journal-torn-tail"``,
        ``"notification-retry"``, ``"notification-dead-letter"``,
        ``"breaker-open"``, ``"tenant-evicted"``.
    site:
        Where — the subsystem or injection-point name that observed the
        failure (``"ci.persistence"``, ``"fleet.gateway"``, ...).
    detail:
        JSON-compatible context (paths, attempt counts, error strings).
    """

    kind: str
    site: str
    detail: dict[str, Any] = field(default_factory=dict)


_EVENTS: deque[ReliabilityEvent] = deque(maxlen=DEFAULT_EVENT_CAPACITY)
_DROPPED = 0
_LOCK = threading.Lock()


def record_event(kind: str, site: str, **detail: Any) -> ReliabilityEvent:
    """Append one event to the process-wide log and return it.

    When the ring buffer is full the oldest retained event is dropped
    (and tallied on :func:`dropped_event_count`) to make room.
    """
    global _DROPPED
    event = ReliabilityEvent(kind=kind, site=site, detail=dict(detail))
    with _LOCK:
        if _EVENTS.maxlen is not None and len(_EVENTS) == _EVENTS.maxlen:
            _DROPPED += 1
        _EVENTS.append(event)
    return event


def reliability_events(kind: str | None = None) -> list[ReliabilityEvent]:
    """All retained events in order, optionally filtered by ``kind``."""
    with _LOCK:
        events = list(_EVENTS)
    if kind is None:
        return events
    return [event for event in events if event.kind == kind]


def dropped_event_count() -> int:
    """Events the ring buffer has discarded since the last clear."""
    with _LOCK:
        return _DROPPED


def event_capacity() -> int:
    """The ring buffer's current capacity."""
    with _LOCK:
        return _EVENTS.maxlen or 0


def set_event_capacity(capacity: int) -> None:
    """Resize the ring buffer, keeping the newest ``capacity`` events.

    Shrinking discards the oldest retained events (they count toward
    :func:`dropped_event_count`); growing never loses anything.
    """
    global _EVENTS, _DROPPED
    if capacity < 1:
        raise ValueError(f"event capacity must be >= 1, got {capacity}")
    with _LOCK:
        retained = list(_EVENTS)
        _DROPPED += max(0, len(retained) - capacity)
        _EVENTS = deque(retained[-capacity:], maxlen=capacity)


def clear_events() -> None:
    """Empty the log and reset the dropped tally (test isolation)."""
    global _DROPPED
    with _LOCK:
        _EVENTS.clear()
        _DROPPED = 0

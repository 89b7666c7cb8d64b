"""Deterministic fault injection: seeded chaos with named injection points.

Production failures — a snapshot torn by a dying disk, a full disk
under the journal, a webhook endpoint timing out — are rare and
unreproducible exactly when a test needs them.  This module makes them
*scheduled*: instrumented code traverses named **injection points**
(:func:`fault_point`), and an installed :class:`FaultInjector` decides,
deterministically, whether a fault fires at each traversal.

Injection points wired into the system
--------------------------------------
========================  =====================================================
site                      instrumented where
========================  =====================================================
``snapshot.write``        :meth:`SnapshotStore.save` — ``tear`` leaves a
                          silently truncated snapshot on disk (the
                          bit-rot / non-atomic-filesystem case)
``snapshot.fsync``        the snapshot's pre-rename fsync — ``raise``
                          simulates a failing disk
``journal.append``        :meth:`EventJournal.append` — ``tear`` writes a
                          partial line then raises (crash mid-append)
``journal.write``         the journal's per-append ``write`` — ``errno``
                          (ENOSPC/EIO) is the full-disk / dying-disk
                          case before any byte lands
``journal.fsync``         every journal append but the intake queue's,
                          after the write
``journal.compact``       :meth:`EventJournal.compact`, before the
                          temp-then-rename rewrite — an aborted
                          compaction leaves the original journal intact
``snapshot.rename``       the snapshot's final ``os.replace`` — ``errno``
                          leaves the temp file behind and no new
                          generation visible; the previous snapshot
                          still restores
``intake.write``          the write of every intake-queue record in a
                          tenant journal — ``errno`` fails it before
                          any byte lands (a submission was never
                          accepted)
``notification.send``     :class:`repro.ci.notifications.RetryingTransport`
                          — ``raise`` is a flaky transport (retried),
                          ``drop`` loses the message silently
``intake.append``         every intake-queue record (submissions,
                          deferrals, acks) — ``tear`` writes a partial
                          line then raises (crash mid-accept; the torn
                          bytes are quarantined and truncated at once)
``intake.fsync``          every intake-queue record, after the write
                          — ``raise`` fails the record whole
``fleet.hydrate``         :meth:`repro.fleet.CIFleet.service` — ``raise``
                          simulates a tenant whose cold resume fails
                          (counts against its circuit breaker)
``fleet.evict``           the fleet's LRU eviction, before the release —
                          ``raise`` aborts the eviction; the tenant
                          stays resident, nothing is lost
``fleet.process``         traversed before each intake entry is applied
                          to a tenant's engine; the per-tenant variant
                          ``fleet.process.<tenant-id>`` is traversed
                          right after it, so a chaos schedule can fail
                          exactly one tenant's engine repeatedly (the
                          breaker-isolation scenario)
========================  =====================================================

Determinism
-----------
A rule fires either *positionally* (``at=N``: the Nth traversal of its
site) or *probabilistically* (``probability=p``): traversal ``n`` of
site ``s`` under seed ``q`` draws ``Random(f"{q}:{s}:{n}").random()`` —
a pure function of (seed, site, occurrence index), independent of call
interleaving across sites, threads or repeated runs.  Every chaos test
is therefore reproducible from its rule list and seed alone.
Traversal counters and firing tallies are per injector.

Environment activation: when no injector is installed,
``REPRO_FAULT_SPEC`` (a JSON list of rule mappings) plus
``REPRO_FAULT_SEED`` activate one lazily — this is how the CI chaos leg
picks up the schedule.
"""

from __future__ import annotations

import errno
import json
import os
import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

__all__ = [
    "InjectedFault",
    "FaultRule",
    "FaultInjector",
    "install_injector",
    "uninstall_injector",
    "get_injector",
    "fault_point",
    "injected_faults",
    "seed_from_env",
    "FAULT_SPEC_ENV",
    "FAULT_SEED_ENV",
]

#: JSON list of rule mappings activating an injector process-wide.
FAULT_SPEC_ENV = "REPRO_FAULT_SPEC"
#: Seed for probabilistic rules (and for tests that build their own
#: schedules from it); integer, default 0.
FAULT_SEED_ENV = "REPRO_FAULT_SEED"

_ACTIONS = frozenset({"raise", "tear", "drop", "errno"})


class InjectedFault(Exception):
    """An injected failure.

    Deliberately *not* a :class:`~repro.exceptions.ReproError`: injected
    faults simulate infrastructure failures (a failing disk, a flaky
    webhook), which the library's own error contract does not cover.
    The retrying transport treats it as a delivery failure.
    """

    def __init__(self, site: str, message: str | None = None):
        self.site = site
        super().__init__(message or f"injected fault at {site!r}")


@dataclass(frozen=True)
class FaultRule:
    """One scheduled fault.

    Attributes
    ----------
    site:
        The injection-point name this rule watches.
    action:
        ``"raise"`` (raise :class:`InjectedFault`), ``"tear"`` (the
        instrumented writer truncates its write at byte ``tear_at``),
        ``"drop"`` (the instrumented sender silently loses the message),
        ``"errno"`` (raise a real :class:`OSError` carrying
        ``errno_name`` — the disk-failure case: the instrumented code
        must survive genuine ``ENOSPC``/``EIO``, not just the library's
        own exception types).
    at:
        Fire on exactly the ``at``-th traversal of the site (1-based).
        ``None`` means fire probabilistically instead.
    probability:
        Per-traversal firing probability for ``at=None`` rules, drawn
        deterministically from the injector seed.
    times:
        Maximum number of firings per injector; ``None`` = unlimited.
    tear_at:
        Byte offset for ``tear`` actions (the write keeps exactly this
        many bytes).
    errno_name:
        Symbolic errno for ``errno`` actions (``"ENOSPC"``, ``"EIO"``,
        or any name the :mod:`errno` module defines).
    """

    site: str
    action: str
    at: int | None = None
    probability: float = 0.0
    times: int | None = 1
    tear_at: int = 0
    errno_name: str = "ENOSPC"

    def __post_init__(self):
        if self.action not in _ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; expected one of "
                f"{sorted(_ACTIONS)}"
            )
        if self.action == "errno" and not hasattr(errno, self.errno_name):
            raise ValueError(
                f"unknown errno name {self.errno_name!r}; expected a "
                "symbolic name from the errno module (e.g. ENOSPC, EIO)"
            )
        if self.at is not None and self.at < 1:
            raise ValueError(f"at must be >= 1, got {self.at}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")


@dataclass(frozen=True)
class FiredFault:
    """Audit record of one firing (site, action, traversal index)."""

    site: str
    action: str
    occurrence: int
    rule: FaultRule = field(repr=False)


class FaultInjector:
    """Evaluates :class:`FaultRule` schedules at injection points.

    Parameters
    ----------
    rules:
        The fault schedule.
    seed:
        Drives the probabilistic rules (see module docstring).
    """

    def __init__(self, rules: Sequence[FaultRule] = (), *, seed: int = 0):
        self.rules = list(rules)
        self.seed = int(seed)
        self._counts: dict[str, int] = {}
        self._firings: dict[int, int] = {}
        self._fired: list[FiredFault] = []
        self._lock = threading.Lock()

    # -- audit ---------------------------------------------------------------
    @property
    def fired(self) -> list[FiredFault]:
        """Every firing this process observed, in order."""
        with self._lock:
            return list(self._fired)

    # -- counters ------------------------------------------------------------
    def _increment(self, name: str) -> int:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + 1
            return self._counts[name]

    def _rule_firings(self, index: int) -> int:
        with self._lock:
            return self._firings.get(index, 0)

    def _record_firing(self, index: int, fault: FiredFault) -> None:
        with self._lock:
            self._firings[index] = self._firings.get(index, 0) + 1
            self._fired.append(fault)

    # -- evaluation ----------------------------------------------------------
    def _draw(self, site: str, occurrence: int) -> float:
        return random.Random(f"{self.seed}:{site}:{occurrence}").random()

    def check(self, site: str) -> FiredFault | None:
        """Evaluate one traversal of ``site``; return the firing, if any.

        At most one rule fires per traversal (first match in rule
        order).
        """
        if not any(rule.site == site for rule in self.rules):
            return None
        occurrence = self._increment(site)
        for index, rule in enumerate(self.rules):
            if rule.site != site:
                continue
            if rule.times is not None and self._rule_firings(index) >= rule.times:
                continue
            if rule.at is not None:
                if occurrence != rule.at:
                    continue
            elif self._draw(site, occurrence) >= rule.probability:
                continue
            fault = FiredFault(
                site=site, action=rule.action, occurrence=occurrence, rule=rule
            )
            self._record_firing(index, fault)
            return fault
        return None


# ---------------------------------------------------------------------------
# Process-wide installation
# ---------------------------------------------------------------------------

_INSTALLED: FaultInjector | None = None
_ENV_CHECKED = False


def install_injector(injector: FaultInjector) -> FaultInjector:
    """Install the process-wide injector (replacing any previous one)."""
    global _INSTALLED
    _INSTALLED = injector
    return injector


def uninstall_injector() -> None:
    """Remove the installed injector (environment activation stays off)."""
    global _INSTALLED
    _INSTALLED = None


def _from_env() -> FaultInjector | None:
    spec = os.environ.get(FAULT_SPEC_ENV)
    if not spec:
        return None
    rules = [FaultRule(**mapping) for mapping in json.loads(spec)]
    return FaultInjector(rules, seed=seed_from_env())


def get_injector() -> FaultInjector | None:
    """The installed injector, activating from the environment lazily."""
    global _ENV_CHECKED, _INSTALLED
    if _INSTALLED is not None:
        return _INSTALLED
    if not _ENV_CHECKED:
        _ENV_CHECKED = True
        _INSTALLED = _from_env()
    return _INSTALLED


def seed_from_env(default: int = 0) -> int:
    """The ``REPRO_FAULT_SEED`` value (``default`` when unset/invalid)."""
    raw = os.environ.get(FAULT_SEED_ENV, "")
    try:
        return int(raw)
    except ValueError:
        return default


@contextmanager
def injected_faults(
    rules: Sequence[FaultRule],
    *,
    seed: int = 0,
) -> Iterator[FaultInjector]:
    """Context manager installing (then uninstalling) an injector."""
    previous = _INSTALLED
    injector = install_injector(FaultInjector(rules, seed=seed))
    try:
        yield injector
    finally:
        install_injector(previous) if previous is not None else uninstall_injector()


# ---------------------------------------------------------------------------
# The injection point
# ---------------------------------------------------------------------------

def fault_point(site: str) -> FiredFault | None:
    """Traverse injection point ``site``.

    With no injector installed this is a few-nanosecond no-op.  When a
    rule fires: ``raise`` raises :class:`InjectedFault`; ``errno``
    raises a *real* :class:`OSError` with the rule's ``errno_name``
    (deliberately not an :class:`InjectedFault` — the instrumented write
    paths must survive the same exception a genuinely full or dying
    disk produces); ``tear`` and ``drop`` are returned to the caller,
    which interprets them (truncate the write at ``rule.tear_at`` / lose
    the message).
    """
    injector = get_injector()
    if injector is None:
        return None
    fault = injector.check(site)
    if fault is None:
        return None
    if fault.action == "raise":
        raise InjectedFault(site)
    if fault.action == "errno":
        code = getattr(errno, fault.rule.errno_name)
        raise OSError(
            code,
            f"{os.strerror(code)} [injected at {site!r}, "
            f"occurrence {fault.occurrence}]",
        )
    return fault


def torn_bytes(data: bytes, fault: FiredFault | None) -> bytes | None:
    """The truncated write a ``tear`` firing prescribes (else ``None``).

    The kept prefix is clamped to ``len(data)``; a clamp to the full
    length still counts as a tear of zero bytes removed (callers treat
    any non-``None`` return as the torn path).
    """
    if fault is None or fault.action != "tear":
        return None
    return data[: max(0, min(fault.rule.tear_at, len(data)))]

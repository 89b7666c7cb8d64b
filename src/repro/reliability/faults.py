"""Deterministic fault injection: seeded chaos with named injection points.

Production failures — a planning worker OOM-killed mid-sweep, a snapshot
torn by a dying disk, a webhook endpoint timing out — are rare and
unreproducible exactly when a test needs them.  This module makes them
*scheduled*: instrumented code traverses named **injection points**
(:func:`fault_point`), and an installed :class:`FaultInjector` decides,
deterministically, whether a fault fires at each traversal.

Injection points wired into the system
--------------------------------------
========================  =====================================================
site                      instrumented where
========================  =====================================================
``executor.task``         entry of every planning-executor worker task
                          (:mod:`repro.stats.parallel`) — ``kill`` /
                          ``hang`` / ``raise`` here simulate crashed,
                          wedged and flaky workers
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
``journal.fsync``         every journal append, after the write (only
                          ``commit-received`` then fsyncs)
``journal.compact``       :meth:`EventJournal.compact`, before the
                          temp-then-rename rewrite — an aborted
                          compaction leaves the original journal intact
``snapshot.rename``       the snapshot's final ``os.replace`` — ``errno``
                          leaves the temp file behind and no new
                          generation visible; the previous snapshot
                          still restores
``intake.write``          every intake append's write (the queue's
                          :class:`~repro.ci.appendlog.AppendLog`) —
                          ``errno`` fails it before any byte lands (a
                          submission was never accepted)
``notification.send``     :class:`repro.ci.notifications.RetryingTransport`
                          — ``raise`` is a flaky transport (retried),
                          ``drop`` loses the message silently
``intake.append``         every intake append (submissions and acks) —
                          ``tear`` writes a partial intake line then
                          raises (crash mid-accept; the torn bytes are
                          quarantined and truncated at once)
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

Traversal counters are per-process by default.  Worker processes
inherit the installed injector through ``fork`` (and the environment
spec below under ``spawn``), but each counts its own traversals — a
``kill at=1`` rule kills *every* fresh worker's first task, which is
exactly the repeated-failure ladder the supervisor must degrade
through.  For kill-*once* semantics pass ``counter_dir``: counters
then live in lock-protected files shared by every process of the test.

Safety
------
``kill`` and ``hang`` actions only ever fire inside executor worker
processes (marked by the pool initializer via :func:`mark_worker`);
in the parent they are skipped.  The ``executor.task`` point goes
further: it is only *traversed* in worker processes at all, so a
degraded-to-serial planning pass re-running the task functions in the
parent sits outside the injection surface for every action — a
persistent ``raise`` rule cannot crash the fallback that exists to
survive it.

Environment activation: when no injector is installed,
``REPRO_FAULT_SPEC`` (a JSON list of rule mappings) plus
``REPRO_FAULT_SEED`` activate one lazily — this is how the CI chaos leg
and spawn-context workers pick up the schedule.
"""

from __future__ import annotations

import errno
import json
import os
import random
import threading
import time
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
    "mark_worker",
    "in_worker",
    "seed_from_env",
    "FAULT_SPEC_ENV",
    "FAULT_SEED_ENV",
]

#: JSON list of rule mappings activating an injector process-wide.
FAULT_SPEC_ENV = "REPRO_FAULT_SPEC"
#: Seed for probabilistic rules (and for tests that build their own
#: schedules from it); integer, default 0.
FAULT_SEED_ENV = "REPRO_FAULT_SEED"

_ACTIONS = frozenset({"raise", "kill", "hang", "tear", "drop", "errno"})
#: Actions that must only fire inside an executor worker process.
_WORKER_ONLY_ACTIONS = frozenset({"kill", "hang"})


class InjectedFault(Exception):
    """An injected failure.

    Deliberately *not* a :class:`~repro.exceptions.ReproError`: injected
    faults simulate infrastructure failures (a dead worker, a failing
    disk, a flaky webhook), which the library's own error contract does
    not cover.  The supervised executor treats it as retryable; the
    retrying transport treats it as a delivery failure.
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
        ``"raise"`` (raise :class:`InjectedFault`), ``"kill"``
        (``os._exit`` — worker processes only), ``"hang"`` (sleep
        ``hang_seconds`` — worker processes only), ``"tear"`` (the
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
        Maximum number of firings (per process, or per ``counter_dir``
        when the injector shares counters); ``None`` = unlimited.
    tear_at:
        Byte offset for ``tear`` actions (the write keeps exactly this
        many bytes).
    hang_seconds:
        Sleep duration for ``hang`` actions.
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
    hang_seconds: float = 30.0
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
    counter_dir:
        Optional directory for cross-process traversal counters and
        firing tallies (lock-protected files).  Without it, counters are
        per-process — forked workers start from the parent's counts at
        fork time and diverge independently.
    """

    def __init__(
        self,
        rules: Sequence[FaultRule] = (),
        *,
        seed: int = 0,
        counter_dir: str | os.PathLike | None = None,
    ):
        self.rules = list(rules)
        self.seed = int(seed)
        self.counter_dir = os.fspath(counter_dir) if counter_dir is not None else None
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
    def _counter_path(self, name: str) -> str:
        assert self.counter_dir is not None
        safe = "".join(c if c.isalnum() or c in "._-" else "_" for c in name)
        return os.path.join(self.counter_dir, safe + ".count")

    def _shared_increment(self, name: str) -> int:
        """Atomically increment a cross-process counter file; return it."""
        import fcntl

        os.makedirs(self.counter_dir, exist_ok=True)
        path = self._counter_path(name)
        with open(path, "a+") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            handle.seek(0)
            raw = handle.read().strip()
            value = int(raw) + 1 if raw else 1
            handle.seek(0)
            handle.truncate()
            handle.write(str(value))
            handle.flush()
        return value

    def _increment(self, name: str) -> int:
        if self.counter_dir is not None:
            return self._shared_increment(name)
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + 1
            return self._counts[name]

    def _rule_firings(self, index: int) -> int:
        if self.counter_dir is not None:
            path = self._counter_path(f"rule-{index}-fired")
            try:
                with open(path) as handle:
                    return int(handle.read().strip() or 0)
            except (FileNotFoundError, ValueError):
                return 0
        with self._lock:
            return self._firings.get(index, 0)

    def _record_firing(self, index: int, fault: FiredFault) -> None:
        if self.counter_dir is not None:
            self._shared_increment(f"rule-{index}-fired")
        with self._lock:
            self._firings[index] = self._firings.get(index, 0) + 1
            self._fired.append(fault)

    # -- evaluation ----------------------------------------------------------
    def _draw(self, site: str, occurrence: int) -> float:
        return random.Random(f"{self.seed}:{site}:{occurrence}").random()

    def check(self, site: str) -> FiredFault | None:
        """Evaluate one traversal of ``site``; return the firing, if any.

        At most one rule fires per traversal (first match in rule
        order).  Worker-only actions never fire in the parent process.
        """
        if not any(rule.site == site for rule in self.rules):
            return None
        occurrence = self._increment(site)
        for index, rule in enumerate(self.rules):
            if rule.site != site:
                continue
            if rule.action in _WORKER_ONLY_ACTIONS and not in_worker():
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
_IS_WORKER = False


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
    counter_dir: str | os.PathLike | None = None,
) -> Iterator[FaultInjector]:
    """Context manager installing (then uninstalling) an injector."""
    previous = _INSTALLED
    injector = install_injector(
        FaultInjector(rules, seed=seed, counter_dir=counter_dir)
    )
    try:
        yield injector
    finally:
        install_injector(previous) if previous is not None else uninstall_injector()


def mark_worker() -> None:
    """Mark this process as an executor worker (enables kill/hang rules)."""
    global _IS_WORKER
    _IS_WORKER = True


def in_worker() -> bool:
    """Whether this process has been marked as an executor worker."""
    return _IS_WORKER


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
    disk produces); ``kill`` exits the process immediately (worker
    processes only — the supervised executor sees a broken pool);
    ``hang`` sleeps ``hang_seconds`` (worker only — the supervisor sees
    a task timeout) and then returns; ``tear`` and ``drop`` are
    returned to the caller, which interprets them (truncate the write
    at ``rule.tear_at`` / lose the message).
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
    if fault.action == "kill":
        os._exit(17)
    if fault.action == "hang":
        time.sleep(fault.rule.hang_seconds)
        return None
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

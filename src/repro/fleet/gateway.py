"""The fleet gateway: many repositories, one overload-safe front door.

:class:`CIFleet` multiplexes N tenant repositories over shared
infrastructure, the ROADMAP's "millions of users" shape.  Each tenant is
a full :class:`~repro.ci.service.CIService` with its own state directory
(a :class:`~repro.ci.persistence.DirectoryStateStore`: snapshots plus
one log, the tenant journal, which is also its durable intake queue);
the gateway adds the three things a shared deployment needs that a
single service does not:

* **Bounded residency.**  At most ``max_resident`` tenant engines are
  live.  Each tenant carries an access count, bumped on every
  :meth:`CIFleet.service` lookup and halved (floor) for every tenant
  each ``16 * max_resident`` lookups, so a tenant whose traffic stops
  ages out.  Over capacity, the resident with the lowest count is
  evicted first, the least recently used among equal counts (plain LRU
  when counts tie); the tenant being served is never the victim.
  Eviction releases the service and writes nothing — every commit's
  durable copy is already in the tenant journal.  The fleet keeps each
  tenant's journal open across evictions (its append handle closed),
  and the next submission hydrates the tenant from the newest snapshot
  plus that journal's tail (``CIService.restore``, the path every crash
  takes — element-wise identical to never having been evicted), without
  reopening or re-indexing the file; the tenant's ``snapshot_every``
  cadence bounds that replay.  Residency decides only
  *when* a tenant pays that hydration, never a result.  A thousand
  registered tenants cost the memory of ``max_resident`` engines.
* **Admission control and durable intake.**  A submission is either
  rejected *at the door* with a typed
  :class:`~repro.exceptions.AdmissionError` (fleet overload, tenant
  quota, quarantined tenant — each with a retry-after hint) or accepted
  into the tenant journal as a CRC'd submission, fsynced, before
  anything evaluates it.  Accepted work survives a crash or power loss
  at any point and replays idempotently by repository sequence (a lost
  ack is re-acked, never re-run); there is no third outcome.  A
  :meth:`CIFleet.submit` with nothing queued ahead of it costs one
  fsync: its submission is the commit's only durable copy, and the
  ``commit-received`` after it in the same file names it (see
  :mod:`repro.fleet.intake`).
* **Per-tenant isolation.**  A tenant whose engine fails repeatedly
  trips its circuit breaker (open → half-open probe → close) and is
  quarantined at the door while every other tenant keeps serving,
  results unchanged.  Engine failures also never poison resident state:
  the failing tenant's in-memory service is discarded and the next drain
  re-hydrates it from its durable state, which the failure never
  touched.

Plans are shared across tenants for free: the process-wide plan cache
(:mod:`repro.stats.cache`) is keyed on normalized condition + spec, so a
fleet of tenants watching the same condition plans once.

Fault-injection points (chaos suite): ``fleet.hydrate``,
``fleet.evict``, ``fleet.process`` (plus the per-tenant
``fleet.process.<tenant-id>`` variant) and the intake records'
``intake.append`` (tear) / ``intake.write`` (errno).

Single-writer assumption: one live :class:`CIFleet` per root directory,
like one :class:`CIService` per state directory.  Read-only inspection
(``repro fleet``, :func:`CIFleet.fsck`) is always safe.
"""

from __future__ import annotations

import re
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from repro.ci.notifications import NotificationTransport
from repro.ci.persistence import (
    DirectoryStateStore,
    SnapshotStore,
    open_state_dir,
    scan_journal,
)
from repro.ci.repository import ModelRepository
from repro.ci.service import BuildRecord, CIService, OperationsReport
from repro.core.script.config import CIScript
from repro.core.testset import Testset, TestsetPool
from repro.exceptions import (
    PersistenceError,
    StorageExhaustedError,
    TenantQuarantinedError,
    TenantQuotaExceededError,
    UnknownTenantError,
)
from repro.fleet.admission import AdmissionPolicy
from repro.fleet.breaker import BreakerState, CircuitBreaker
from repro.fleet.intake import IntakeQueue, IntakeRecord
from repro.reliability.events import record_event
from repro.reliability.faults import InjectedFault, fault_point
from repro.reliability.fsck import FsckReport, fsck_state_dir
from repro.reliability.storage import StorageGovernor, StorageStatus

__all__ = [
    "CIFleet",
    "DrainReport",
    "FleetReport",
    "TenantStatus",
    "TenantFsck",
    "FleetFsckReport",
]

_TENANT_ID = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}")
# Access counts are halved once every this many lookups per resident slot.
_AGING_LOOKUPS_PER_SLOT = 16


@dataclass(frozen=True)
class TenantStatus:
    """One tenant's row in the fleet operations report.

    ``builds_total``/``dead_letters`` are ``None`` for non-resident
    tenants — the report never hydrates an engine just to count builds.
    """

    tenant_id: str
    resident: bool
    pending: int
    breaker: str
    retry_after_seconds: float
    builds_total: int | None
    dead_letters: int | None
    # Storage governance (None when no per-tenant governor is attached).
    storage_bytes: int | None = None
    storage_level: str | None = None


@dataclass(frozen=True)
class FleetReport:
    """Point-in-time operational view of the whole fleet.

    JSON-compatible via :func:`repro.utils.serialization.to_jsonable`;
    rendered for terminals by :meth:`describe` (what ``repro fleet``
    prints).
    """

    root: str
    tenants_registered: int
    tenants_resident: int
    max_resident: int
    pending_total: int
    accepted: int
    processed: int
    rejections: Mapping[str, int]
    hits: int
    hit_ratio: float
    hydrations: int
    evictions: int
    breakers_open: int
    breakers_half_open: int
    tenant_status: tuple[TenantStatus, ...]
    # Fleet-wide storage governance (None when no fleet governor).
    storage_bytes: int | None = None
    storage_level: str | None = None

    def describe(self) -> str:
        """A terminal-friendly rendering (what ``repro fleet`` prints)."""
        rejected = sum(self.rejections.values())
        lines = [
            f"fleet report for root {self.root!r}:",
            f"  tenants       : {self.tenants_registered} registered, "
            f"{self.tenants_resident} resident (cap {self.max_resident})",
            f"  intake        : {self.pending_total} pending, "
            f"{self.accepted} accepted, {self.processed} processed "
            "this process",
            f"  admission     : {rejected} rejected "
            f"({self.rejections.get('fleet-overloaded', 0)} overloaded, "
            f"{self.rejections.get('tenant-quota', 0)} over quota, "
            f"{self.rejections.get('tenant-quarantined', 0)} quarantined, "
            f"{self.rejections.get('storage-exhausted', 0)} storage-exhausted)",
            f"  lifecycle     : {self.hits} hit(s) "
            f"(hit ratio {self.hit_ratio:.2f}), {self.hydrations} "
            f"hydration(s), {self.evictions} eviction(s)",
            f"  breakers      : {self.breakers_open} open, "
            f"{self.breakers_half_open} half-open "
            f"of {self.tenants_registered}",
        ]
        if self.storage_level is not None:
            lines.append(
                f"  storage       : {self.storage_bytes}B used fleet-wide "
                f"({self.storage_level})"
            )
        for status in self.tenant_status:
            if status.resident:
                engine = f"resident ({status.builds_total} builds)"
            else:
                engine = "cold"
            if status.storage_level is not None:
                engine += f"; storage {status.storage_level}"
            lines.append(
                f"    {status.tenant_id:<20} pending {status.pending:<4} "
                f"breaker {status.breaker:<9} {engine}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class DrainReport:
    """Outcome of a fleet-wide drain.

    Attributes
    ----------
    builds:
        Per-tenant build records produced (or re-matched) this drain.
    errors:
        Tenants whose drain failed, with the error message; their
        remaining intake entries stay durably pending.
    skipped:
        Tenants skipped because their breaker was open.
    """

    builds: Mapping[str, list[BuildRecord]]
    errors: Mapping[str, str]
    skipped: tuple[str, ...]


@dataclass(frozen=True)
class TenantFsck:
    """One tenant's entry in the fleet fsck sweep."""

    tenant_id: str
    state: FsckReport


@dataclass(frozen=True)
class FleetFsckReport:
    """Read-only integrity sweep across every tenant state directory."""

    root: Path
    exists: bool
    tenants: tuple[TenantFsck, ...]

    @property
    def healthy(self) -> bool:
        """Every tenant restorable (the fsck verdict restore agrees with)."""
        return self.exists and all(t.state.restorable for t in self.tenants)

    def describe(self) -> str:
        """A terminal-friendly rendering (``repro fleet --fsck``)."""
        if not self.exists:
            return f"fleet fsck: root {str(self.root)!r} does not exist"
        lines = [
            f"fleet fsck for root {str(self.root)!r}: "
            f"{len(self.tenants)} tenant(s), "
            f"{'HEALTHY' if self.healthy else 'DAMAGED'}"
        ]
        for tenant in self.tenants:
            state = tenant.state
            verdict = (
                f"restore #{state.restore_sequence} + replay "
                f"{state.replay_commits} commit(s)"
                if state.restorable
                else "UNRESTORABLE"
            )
            intake = f"intake {state.journal.pending} pending"
            if state.journal.corrupt_lines:
                intake += f", {len(state.journal.corrupt_lines)} corrupt line(s)"
            if state.missing_submissions:
                intake += (
                    f", {len(state.missing_submissions)} commit(s) naming a "
                    "submission that is gone"
                )
            lines.append(f"  {tenant.tenant_id:<20} {verdict}; {intake}")
        return "\n".join(lines)


class CIFleet:
    """A bounded-residency, overload-safe gateway over N tenant services.

    Parameters
    ----------
    root:
        Fleet root directory; tenant state lives in
        ``<root>/tenants/<tenant-id>/`` (snapshots plus one journal).
        An existing root's tenants are discovered from disk and hydrated
        lazily.
    max_resident:
        Residency capacity: how many tenant engines stay live at once.
        It also sets the aging period of the access counts that pick
        eviction victims (every ``16 * max_resident`` lookups; see the
        module docstring).
    admission:
        The :class:`AdmissionPolicy` enforced at the door.
    failure_threshold / cooldown_seconds:
        Per-tenant circuit-breaker configuration.
    snapshot_every:
        Auto-snapshot cadence forwarded to every tenant service (default
        8, must be >= 1).  Eviction writes no snapshot, so this cadence
        alone bounds hydration: a tenant is restored from its newest
        snapshot plus at most ``snapshot_every - 1`` replayed commits.
        Retention (prune + journal compaction, acknowledged submissions
        included) runs at these cadence snapshots too, never at eviction.
    keep_snapshots:
        Snapshot-retention depth forwarded to every tenant service
        (default 3): each tenant snapshot prunes older generations and
        compacts the tenant journal through the oldest retained anchor,
        so tenant dirs stop growing monotonically.  ``None`` keeps every
        generation.
    storage:
        Optional per-tenant :class:`StorageGovernor`: each submission is
        admitted against its tenant dir's byte budget — soft triggers
        reclamation (prune + journal compaction), hard rejects
        with a retryable
        :class:`~repro.exceptions.StorageExhaustedError` while every
        other tenant keeps serving.
    fleet_storage:
        Optional fleet-wide :class:`StorageGovernor` metering the whole
        root; its hard watermark closes the door for everyone (like
        fleet-wide overload) until reclamation brings usage back under.
    sync:
        Fsync each commit's durable copy before it is acted on (default):
        the submission, plus the ``commit-received`` of a submission
        that was only enqueued or was deferred; other records ride along
        with the next fsync.  Benchmarks simulating
        thousands of tenants turn this off; a tenant is then durable
        only to the OS page cache.
    transport_factory:
        Optional ``tenant_id -> NotificationTransport`` hook supplying
        each tenant's notification transport at registration/hydration.
    clock:
        Monotonic-seconds source for the breakers (injectable for
        deterministic chaos tests).
    create:
        Create ``<root>/tenants/`` when missing (default).  Read-only
        inspectors pass ``False``.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        max_resident: int = 8,
        admission: AdmissionPolicy | None = None,
        failure_threshold: int = 3,
        cooldown_seconds: float = 30.0,
        snapshot_every: int = 8,
        keep_snapshots: int | None = 3,
        storage: StorageGovernor | None = None,
        fleet_storage: StorageGovernor | None = None,
        sync: bool = True,
        transport_factory: Callable[[str], NotificationTransport | None]
        | None = None,
        clock: Callable[[], float] | None = None,
        create: bool = True,
    ):
        if max_resident < 1:
            raise ValueError(f"max_resident must be >= 1, got {max_resident}")
        if snapshot_every is None or snapshot_every < 1:
            # The cadence snapshot is what bounds hydration replay, so an
            # unset cadence would let replay grow with a tenant's history.
            raise ValueError(
                f"snapshot_every must be >= 1, got {snapshot_every!r}"
            )
        self.root = Path(root)
        self.max_resident = int(max_resident)
        self.admission = admission if admission is not None else AdmissionPolicy()
        self.failure_threshold = int(failure_threshold)
        self.cooldown_seconds = float(cooldown_seconds)
        self.snapshot_every = int(snapshot_every)
        self.keep_snapshots = keep_snapshots
        self.storage = storage
        self.fleet_storage = fleet_storage
        self.sync = bool(sync)
        self.transport_factory = transport_factory
        self._clock = clock or time.monotonic
        # Live services, least recently used first.
        self._resident: OrderedDict[str, CIService] = OrderedDict()
        # Aged access counts (zero counts are dropped) and lookups so far.
        self._frequency: dict[str, int] = {}
        self._lookups = 0
        # Each tenant's intake queue over its open journal, kept across
        # evictions and handed to every hydrated service.
        self._intakes: dict[str, IntakeQueue] = {}
        # Registered tenant ids for the admission scan: read from disk on
        # first use, then extended by register() (single-writer root).
        self._registered: list[str] | None = None
        # Running fleet-wide pending total: each open queue's depth as
        # last counted.
        self._pending_counts: dict[str, int] = {}
        self._pending_total = 0
        self._breakers: dict[str, CircuitBreaker] = {}
        self.hits = 0
        self.hydrations = 0
        self.evictions = 0
        self.accepted = 0
        self.processed = 0
        self.rejections: dict[str, int] = {
            "fleet-overloaded": 0,
            "tenant-quota": 0,
            "tenant-quarantined": 0,
            "storage-exhausted": 0,
        }
        if create:
            # Read-only inspectors (`repro fleet`) pass create=False so
            # pointing the CLI at a path never creates directories there.
            (self.root / "tenants").mkdir(parents=True, exist_ok=True)

    # -- tenant directory layout --------------------------------------------
    def tenant_dir(self, tenant_id: str) -> Path:
        """The tenant's state directory (validating the id)."""
        if not _TENANT_ID.fullmatch(tenant_id):
            raise UnknownTenantError(
                f"invalid tenant id {tenant_id!r}: expected 1-64 characters "
                "from [A-Za-z0-9._-], starting alphanumeric"
            )
        return self.root / "tenants" / tenant_id

    def tenants(self) -> list[str]:
        """Registered tenant ids, discovered from disk, sorted."""
        base = self.root / "tenants"
        if not base.is_dir():
            return []
        return sorted(
            child.name for child in base.iterdir() if child.is_dir()
        )

    def has_tenant(self, tenant_id: str) -> bool:
        """Whether a tenant state directory exists under this root."""
        return self.tenant_dir(tenant_id).is_dir()

    def _require_tenant(self, tenant_id: str) -> Path:
        directory = self.tenant_dir(tenant_id)
        if not directory.is_dir():
            raise UnknownTenantError(
                f"no tenant {tenant_id!r} registered under {self.root}"
            )
        return directory

    # -- per-tenant runtime objects -----------------------------------------
    def _breaker(self, tenant_id: str) -> CircuitBreaker:
        breaker = self._breakers.get(tenant_id)
        if breaker is None:
            breaker = CircuitBreaker(
                tenant_id,
                failure_threshold=self.failure_threshold,
                cooldown_seconds=self.cooldown_seconds,
                clock=self._clock,
            )
            self._breakers[tenant_id] = breaker
        return breaker

    def _intake(self, tenant_id: str) -> IntakeQueue:
        queue = self._intakes.get(tenant_id)
        if queue is None:
            directory = self._require_tenant(tenant_id)
            _, journal = open_state_dir(directory, create=False, sync=self.sync)
            queue = IntakeQueue(journal)
            self._intakes[tenant_id] = queue
            self._count_pending(tenant_id, queue)
        return queue

    def _count_pending(self, tenant_id: str, queue: IntakeQueue) -> None:
        """Fold the queue's current depth into the running total."""
        depth = queue.pending_count
        self._pending_total += depth - self._pending_counts.get(tenant_id, 0)
        self._pending_counts[tenant_id] = depth

    def _transport(self, tenant_id: str) -> NotificationTransport | None:
        if self.transport_factory is None:
            return None
        return self.transport_factory(tenant_id)

    # -- registration --------------------------------------------------------
    def register(
        self,
        tenant_id: str,
        script: CIScript,
        testset: Testset,
        baseline_model: Any,
        *,
        pool: TestsetPool | None = None,
        repository: ModelRepository | None = None,
        **engine_kwargs: Any,
    ) -> CIService:
        """Create a tenant: state dir, first snapshot, empty journal.

        The returned service is resident (and may evict another tenant).
        All subsequent writes to the tenant must flow through
        :meth:`enqueue`/:meth:`submit` — the intake queue's sequence
        accounting assumes it is the only write path.
        """
        directory = self.tenant_dir(tenant_id)
        if directory.exists():
            raise PersistenceError(
                f"tenant {tenant_id!r} already exists under {self.root}"
            )
        service = CIService(
            script,
            testset,
            baseline_model,
            repository=repository
            if repository is not None
            else ModelRepository(name=tenant_id),
            transport=self._transport(tenant_id),
            **engine_kwargs,
        )
        if pool is not None:
            service.install_testset_pool(pool)
        service.persist_to(
            directory,
            snapshot_every=self.snapshot_every,
            sync=self.sync,
            keep_snapshots=self.keep_snapshots,
        )
        journal = service._state_store.journal
        # The first snapshot's record tells the queue the repository's
        # length; it must outlive a power loss before any submission.
        journal.sync()
        self._intakes[tenant_id] = IntakeQueue(journal)
        if self._registered is not None:
            self._registered.append(tenant_id)
        self._resident[tenant_id] = service
        self._resident.move_to_end(tenant_id)
        self._enforce_capacity()
        return service

    # -- residency (aged access counts + hydration) --------------------------
    @property
    def resident_tenants(self) -> list[str]:
        """Currently live tenants, least-recently-used first."""
        return list(self._resident)

    def _count_lookup(self, tenant_id: str) -> None:
        self._frequency[tenant_id] = self._frequency.get(tenant_id, 0) + 1
        self._lookups += 1
        if self._lookups % (_AGING_LOOKUPS_PER_SLOT * self.max_resident) == 0:
            self._frequency = {
                tenant: count // 2
                for tenant, count in self._frequency.items()
                if count > 1
            }

    def service(self, tenant_id: str) -> CIService:
        """The tenant's live service, hydrating from disk when evicted.

        Every call counts as an access for the residency policy.

        Fault-injection point: ``fleet.hydrate`` (``raise`` simulates a
        failing cold resume; the failure counts against the tenant's
        circuit breaker and the fleet keeps serving everyone else).
        """
        self._count_lookup(tenant_id)
        service = self._resident.get(tenant_id)
        if service is not None:
            self.hits += 1
            self._resident.move_to_end(tenant_id)
            return service
        directory = self._require_tenant(tenant_id)
        try:
            fault_point("fleet.hydrate")
            store = DirectoryStateStore(
                SnapshotStore(directory / "snapshots"), self._intake(tenant_id).journal
            )
            service = CIService.restore(
                store,
                transport=self._transport(tenant_id),
                snapshot_every=self.snapshot_every,
                keep_snapshots=self.keep_snapshots,
            )
        except Exception as exc:
            self._breaker(tenant_id).record_failure(exc)
            record_event(
                "tenant-hydrate-failed",
                "fleet.gateway",
                tenant=tenant_id,
                error=str(exc),
            )
            raise
        self.hydrations += 1
        record_event("tenant-hydrated", "fleet.gateway", tenant=tenant_id)
        self._resident[tenant_id] = service
        self._resident.move_to_end(tenant_id)
        self._enforce_capacity()
        return service

    def _try_evict(self, tenant_id: str) -> bool:
        """Release one resident tenant; False on failure.

        Eviction writes nothing: every commit's durable copy (a fsynced
        submission or ``commit-received``) was written before its build
        ran, so the newest snapshot plus the journal tail already
        restore the service exactly — the next hydration takes the path
        every crash takes.  Replay depth is bounded by
        ``snapshot_every``, not by eviction.
        The one exception is state replay cannot rebuild, changed since
        the last snapshot (:attr:`CIService.unjournaled_changes`: the
        dead-letter log, a testset or pool install, a generation added
        to the pool): that is snapshotted first.

        The fault point fires before anything else, so an injected
        eviction failure leaves the tenant resident and loses nothing —
        eviction is maintenance, never allowed to become a failure mode.
        """
        service = self._resident[tenant_id]
        try:
            fault_point("fleet.evict")
            if service.unjournaled_changes:
                service.snapshot()
        except Exception as exc:
            record_event(
                "evict-failed",
                "fleet.gateway",
                tenant=tenant_id,
                error=str(exc),
            )
            return False
        del self._resident[tenant_id]
        self._intake(tenant_id).close()  # bounds open handles by the resident set
        self.evictions += 1
        record_event("tenant-evicted", "fleet.gateway", tenant=tenant_id)
        return True

    def _enforce_capacity(self) -> None:
        while len(self._resident) > self.max_resident:
            # Spare the most recently used entry — the tenant being
            # served.  The sort is stable, so equal counts stay in LRU
            # order.
            candidates = sorted(
                list(self._resident)[:-1],
                key=lambda tenant: self._frequency.get(tenant, 0),
            )
            for tenant_id in candidates:
                if self._try_evict(tenant_id):
                    break
            else:
                # Every eviction failed (e.g. injected faults): serve
                # over capacity rather than refuse traffic.
                return

    # -- storage governance ---------------------------------------------------
    def _maintain_tenant(self, tenant_id: str) -> None:
        """Reclaim one tenant dir: prune snapshots, compact the journal.

        Resident tenants reclaim through their own service's retention;
        cold tenants through their intake queue's open journal (both are
        the one retention pass, over the same journal object).
        Best-effort: a reclamation failure (including an injected disk
        fault) is recorded and swallowed — maintenance must never become
        its own failure mode.
        """
        try:
            service = self._resident.get(tenant_id)
            if service is not None:
                service._run_retention()
            elif self.keep_snapshots is not None:
                snapshots = SnapshotStore(self._require_tenant(tenant_id) / "snapshots")
                self._intake(tenant_id).compact(snapshots, self.keep_snapshots)
        except (OSError, InjectedFault, PersistenceError) as exc:
            record_event(
                "storage-maintenance-failed",
                "fleet.gateway",
                tenant=tenant_id,
                error=str(exc),
            )

    def _storage_statuses(
        self, tenant_id: str
    ) -> tuple[StorageStatus | None, StorageStatus | None]:
        """Measure (tenant, fleet) storage, reclaiming once when over.

        Either governor reading soft *or* hard triggers reclamation
        (hard included: reclamation only deletes/rewrites, never grows
        the disk) followed by a re-measure — the returned statuses are
        post-reclamation, so a budget a compaction pass can satisfy
        never rejects anyone.
        """
        tenant_status = fleet_status = None
        if self.storage is not None:
            directory = self.tenant_dir(tenant_id)
            tenant_status = self.storage.check(directory)
            if tenant_status.level != "ok":
                self._maintain_tenant(tenant_id)
                tenant_status = self.storage.check(directory)
        if self.fleet_storage is not None:
            fleet_status = self.fleet_storage.check(self.root)
            if fleet_status.level != "ok":
                for tenant in self.tenants():
                    self._maintain_tenant(tenant)
                fleet_status = self.fleet_storage.check(self.root)
        return tenant_status, fleet_status

    # -- the front door ------------------------------------------------------
    def _total_pending(self) -> int:
        # Runs on every submission, so it must not list the tenants
        # directory or visit every queue; tenants() stays disk-backed for
        # read-only inspectors.  The first call opens every queue (each
        # open adds its depth to the running total).
        if self._registered is None:
            self._registered = self.tenants()
            for tenant_id in self._registered:
                self._intake(tenant_id)
        return self._pending_total

    def _admit(self, tenant_id: str) -> IntakeQueue:
        """The door: breaker, storage and admission; the tenant's queue.

        Raises a typed :class:`~repro.exceptions.AdmissionError` when the
        door is closed.
        """
        self._require_tenant(tenant_id)
        breaker = self._breaker(tenant_id)
        if not breaker.allows():
            self.rejections["tenant-quarantined"] += 1
            record_event(
                "admission-rejected",
                "fleet.admission",
                tenant=tenant_id,
                reason="tenant-quarantined",
            )
            raise TenantQuarantinedError(
                f"tenant {tenant_id!r} is quarantined (circuit breaker "
                f"open after {breaker.consecutive_failures} consecutive "
                f"failures); retry in {breaker.retry_after():.1f}s",
                tenant=tenant_id,
                retry_after_seconds=breaker.retry_after(),
            )
        queue = self._intake(tenant_id)
        tenant_storage, fleet_storage = self._storage_statuses(tenant_id)
        try:
            self.admission.admit(
                tenant_id,
                tenant_pending=queue.pending_count,
                total_pending=self._total_pending(),
                tenant_storage=tenant_storage,
                fleet_storage=fleet_storage,
            )
        except StorageExhaustedError:
            self.rejections["storage-exhausted"] += 1
            raise
        except TenantQuotaExceededError:
            self.rejections["tenant-quota"] += 1
            raise
        except Exception:
            self.rejections["fleet-overloaded"] += 1
            raise
        return queue

    def _accept(
        self,
        tenant_id: str,
        queue: IntakeQueue,
        model: Any,
        message: str,
        author: str,
        started: bool = False,
    ) -> IntakeRecord:
        """Append one admitted submission to the tenant's journal (fsynced).

        A failed append heals at once (its bytes are cut back): by the
        crash model the submission was not accepted.
        """
        record = queue.append(model, message=message, author=author, started=started)
        self._count_pending(tenant_id, queue)
        self.accepted += 1
        return record

    def enqueue(
        self,
        tenant_id: str,
        model: Any,
        *,
        message: str = "",
        author: str = "developer",
    ) -> IntakeRecord:
        """Admit and durably accept one submission (no evaluation yet).

        Raises a typed :class:`~repro.exceptions.AdmissionError` when
        the door is closed; on return the submission is fsynced into the
        tenant's intake queue and will be processed by the next
        :meth:`drain` (or :meth:`submit`), surviving any crash in
        between.
        """
        queue = self._admit(tenant_id)
        return self._accept(tenant_id, queue, model, message, author)

    # -- processing ----------------------------------------------------------
    def _ack(
        self, tenant_id: str, queue: IntakeQueue, repo_sequence: int
    ) -> None:
        try:
            queue.ack(repo_sequence)
        except Exception as exc:
            # The failed ack was cut back.  The processed build is safe
            # in the tenant journal — the next drain re-acks the entry by
            # sequence without re-running it.
            record_event(
                "intake-ack-failed",
                "fleet.gateway",
                tenant=tenant_id,
                repo_sequence=repo_sequence,
                error=str(exc),
            )
            raise
        self._count_pending(tenant_id, queue)

    def _defer(self, tenant_id: str, queue: IntakeQueue, repo_sequence: int) -> None:
        try:
            queue.defer(repo_sequence)
        except Exception as exc:
            # Still started on disk: like after a crash, the next
            # hydration replays it with the notifier off (its one
            # notification is lost, never doubled).
            record_event(
                "intake-defer-failed",
                "fleet.gateway",
                tenant=tenant_id,
                repo_sequence=repo_sequence,
                error=str(exc),
            )

    def _drain_tenant(
        self, tenant_id: str, service: CIService | None = None
    ) -> list[BuildRecord]:
        """Process every pending intake entry of one tenant, in order.

        Idempotent by repository sequence: an entry whose sequence the
        repository already contains (the crash landed between the
        tenant-journal append and the intake ack) is re-acked without
        re-running its build.  A processing failure
        counts against the breaker, discards the (possibly poisoned)
        resident service — durable state is untouched, the next drain
        re-hydrates — and leaves the failed entry pending; a started
        entry whose ``commit-received`` never landed is deferred first.
        ``service`` is the tenant's live service when the caller already
        looked it up.
        """
        queue = self._intake(tenant_id)
        if queue.pending_count == 0:
            return []
        breaker = self._breaker(tenant_id)
        if service is None:
            # Gate on fully-open only: a half-open drain IS the probe.
            if breaker.state is BreakerState.OPEN:
                raise TenantQuarantinedError(
                    f"tenant {tenant_id!r} is quarantined; retry in "
                    f"{breaker.retry_after():.1f}s",
                    tenant=tenant_id,
                    retry_after_seconds=breaker.retry_after(),
                )
            service = self.service(tenant_id)  # breaker-accounted on failure
        builds: list[BuildRecord] = []
        by_sequence: dict[int, BuildRecord] | None = None
        for entry in queue.pending():
            repo_length = len(service.repository)
            if entry.repo_sequence < repo_length:
                # Already journaled (and therefore already replayed into
                # this service) by the pre-crash process: heal the ack.
                if by_sequence is None:
                    by_sequence = {
                        build.commit.sequence: build
                        for build in service.builds
                    }
                self._ack(tenant_id, queue, entry.repo_sequence)
                record_event(
                    "intake-ack-healed",
                    "fleet.gateway",
                    tenant=tenant_id,
                    repo_sequence=entry.repo_sequence,
                )
                healed = by_sequence.get(entry.repo_sequence)
                if healed is not None:
                    builds.append(healed)
                continue
            if entry.repo_sequence != repo_length:
                raise PersistenceError(
                    f"intake queue for tenant {tenant_id!r} expected "
                    f"repository sequence {repo_length} but holds "
                    f"{entry.repo_sequence}; intake and state dir disagree"
                )
            started = queue.is_started(entry.repo_sequence)
            journaled = service._state_store.journal_sequence
            message = entry.payload.get("message", "")
            author = entry.payload.get("author", "developer")
            try:
                fault_point("fleet.process")
                fault_point(f"fleet.process.{tenant_id}")
                service.repository.commit(entry.model(), message=message, author=author)
            except Exception as exc:
                if started and service._state_store.journal_sequence == journaled:
                    self._defer(tenant_id, queue, entry.repo_sequence)
                breaker.record_failure(exc)
                self._resident.pop(tenant_id, None)
                record_event(
                    "tenant-process-failed",
                    "fleet.gateway",
                    tenant=tenant_id,
                    repo_sequence=entry.repo_sequence,
                    error=str(exc),
                )
                raise
            self._ack(tenant_id, queue, entry.repo_sequence)
            self.processed += 1
            builds.append(service.last_build)
        breaker.record_success()
        return builds

    def drain(self, tenant_id: str | None = None) -> DrainReport:
        """Process pending intake entries — one tenant's, or everyone's.

        With a ``tenant_id`` the tenant's failure (or open breaker)
        raises.  Fleet-wide, failing tenants are recorded in the report
        and *skipped past* — one wedged tenant never blocks the others'
        backlog; its entries stay durably pending for a later drain.
        """
        if tenant_id is not None:
            return DrainReport(
                builds={tenant_id: self._drain_tenant(tenant_id)},
                errors={},
                skipped=(),
            )
        builds: dict[str, list[BuildRecord]] = {}
        errors: dict[str, str] = {}
        skipped: list[str] = []
        for tenant in self.tenants():
            if self._intake(tenant).pending_count == 0:
                continue
            if self._breaker(tenant).state is BreakerState.OPEN:
                skipped.append(tenant)
                continue
            try:
                builds[tenant] = self._drain_tenant(tenant)
            except Exception as exc:
                errors[tenant] = str(exc)
        return DrainReport(
            builds=builds, errors=errors, skipped=tuple(skipped)
        )

    def submit(
        self,
        tenant_id: str,
        model: Any,
        *,
        message: str = "",
        author: str = "developer",
    ) -> BuildRecord:
        """The webhook path: admit, durably accept, process, return the build.

        Equivalent to :meth:`enqueue` followed by a tenant drain, at one
        fsync: the tenant is hydrated first, and a submission with
        nothing queued ahead of it is appended *started*, so its fsynced
        record is the commit's durable copy (see
        :mod:`repro.fleet.intake`).  When hydration fails the submission
        is still accepted, as an ordinary queued one, and the error
        propagates; when processing fails the exception propagates too.
        Either way a later drain (or a restart) completes it.
        """
        queue = self._admit(tenant_id)
        try:
            service = self.service(tenant_id)
        except Exception:
            self._accept(tenant_id, queue, model, message, author)
            raise
        entry = self._accept(
            tenant_id, queue, model, message, author,
            started=queue.pending_count == 0,
        )
        for build in self._drain_tenant(tenant_id, service):
            if build.commit.sequence == entry.repo_sequence:
                return build
        raise PersistenceError(
            f"tenant {tenant_id!r} drain did not produce a build for "
            f"repository sequence {entry.repo_sequence}"
        )

    # -- operations ----------------------------------------------------------
    def operations(self) -> FleetReport:
        """The fleet-level operations surface (``repro fleet``).

        Aggregates intake depth and breaker state for every tenant
        without hydrating anyone; engine-level counters are reported for
        resident tenants only.
        """
        statuses = []
        open_count = half_open_count = 0
        for tenant in self.tenants():
            breaker = self._breakers.get(tenant)
            state = breaker.state if breaker is not None else BreakerState.CLOSED
            if state is BreakerState.OPEN:
                open_count += 1
            elif state is BreakerState.HALF_OPEN:
                half_open_count += 1
            service = self._resident.get(tenant)
            # Live queues report directly; journals this process never
            # opened are scanned read-only, so a reporting-only fleet
            # (the CLI) never heals, migrates or truncates anyone's file.
            queue = self._intakes.get(tenant)
            pending = (
                queue.pending_count
                if queue is not None
                else scan_journal(self.tenant_dir(tenant) / "journal.jsonl").pending
            )
            tenant_storage = (
                self.storage.check(self.tenant_dir(tenant))
                if self.storage is not None
                else None
            )
            statuses.append(
                TenantStatus(
                    tenant_id=tenant,
                    resident=service is not None,
                    pending=pending,
                    breaker=state.value,
                    retry_after_seconds=(
                        breaker.retry_after() if breaker is not None else 0.0
                    ),
                    builds_total=(
                        len(service.builds) if service is not None else None
                    ),
                    dead_letters=(
                        len(service.repository.dead_letters)
                        if service is not None
                        else None
                    ),
                    storage_bytes=(
                        tenant_storage.used_bytes
                        if tenant_storage is not None
                        else None
                    ),
                    storage_level=(
                        tenant_storage.level
                        if tenant_storage is not None
                        else None
                    ),
                )
            )
        fleet_storage = (
            self.fleet_storage.check(self.root)
            if self.fleet_storage is not None
            else None
        )
        return FleetReport(
            root=str(self.root),
            tenants_registered=len(statuses),
            tenants_resident=len(self._resident),
            max_resident=self.max_resident,
            pending_total=sum(status.pending for status in statuses),
            accepted=self.accepted,
            processed=self.processed,
            rejections=dict(self.rejections),
            hits=self.hits,
            hit_ratio=(
                self.hits / (self.hits + self.hydrations)
                if self.hits + self.hydrations
                else 0.0
            ),
            hydrations=self.hydrations,
            evictions=self.evictions,
            breakers_open=open_count,
            breakers_half_open=half_open_count,
            tenant_status=tuple(statuses),
            storage_bytes=(
                fleet_storage.used_bytes if fleet_storage is not None else None
            ),
            storage_level=(
                fleet_storage.level if fleet_storage is not None else None
            ),
        )

    def tenant_operations(self, tenant_id: str) -> OperationsReport:
        """One tenant's full :class:`OperationsReport`.

        Resident tenants report live; evicted tenants are restored
        read-only (``record=False`` — inspection never mutates the
        journal) without being made resident.
        """
        service = self._resident.get(tenant_id)
        if service is None:
            directory = self._require_tenant(tenant_id)
            store = DirectoryStateStore.open(
                directory, create=False, sync=self.sync, heal=False
            )
            service = CIService.restore(
                store,
                record=False,
                keep_snapshots=self.keep_snapshots,
                storage=self.storage,
            )
        return service.operations()

    def fsck(self) -> FleetFsckReport:
        """Read-only integrity sweep across all tenant state dirs."""
        base = self.root / "tenants"
        if not base.is_dir():
            return FleetFsckReport(root=self.root, exists=False, tenants=())
        tenants = tuple(
            TenantFsck(tenant_id=tenant, state=fsck_state_dir(base / tenant))
            for tenant in self.tenants()
        )
        return FleetFsckReport(root=self.root, exists=True, tenants=tenants)

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Evict every resident tenant and close every journal handle.

        Like any eviction this normally writes nothing (see
        :meth:`_try_evict`); a fleet reopened on the same root hydrates
        each tenant from its newest snapshot plus the journal tail.
        """
        for tenant_id in list(self._resident):
            self._try_evict(tenant_id)
        for queue in self._intakes.values():
            queue.close()

    def __enter__(self) -> "CIFleet":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __iter__(self) -> Iterator[str]:
        return iter(self.tenants())

    def __len__(self) -> int:
        return len(self.tenants())

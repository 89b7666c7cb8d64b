"""Fault tolerance for the CI service: recovery, disk budgets, chaos.

The paper's guarantees are statistical; this package is about the
*systems* failures a production ease.ml/ci must survive without ever
silently weakening the (epsilon, delta) contract:

* :mod:`repro.reliability.events` — the process-wide reliability event
  log.  Degraded-mode transitions (a restore skipping a corrupt
  snapshot, a notification dead-lettered, a tenant's breaker opening)
  are recorded here and surfaced through
  :meth:`repro.ci.service.CIService.operations` / ``repro ops``.
* :mod:`repro.reliability.faults` — the deterministic fault-injection
  harness: a seeded registry of injection points (fail an fsync, tear a
  write at byte *k*, fill the disk, drop a notification) wired into the
  persistence layer, the fleet and the notification transport.  Every
  chaos test is reproducible from its rule list and seed.
* :mod:`repro.reliability.fsck` — the read-only state-directory doctor
  behind ``repro ops --fsck``: classifies snapshots, scans the journal
  without repairing it, and reports quarantined files and replay depth.
* :mod:`repro.reliability.storage` — disk budgets: the
  :class:`~repro.reliability.storage.StorageGovernor` meters state-dir
  bytes against soft (reclaim) and hard (degrade-to-read-only)
  watermarks, and :func:`~repro.reliability.storage.maintain_state_dir`
  is the offline prune-and-compact reclamation primitive.

The recovery invariant threading through all of them: a retried
notification, a healed journal tail, or a restore from an older
snapshot with a longer journal replay produces results *bit-identical*
to the undisturbed run — fault tolerance rides on the same determinism
contract (replay parity) that the persistence layer already enforces.
"""

from repro.reliability.events import (
    ReliabilityEvent,
    clear_events,
    record_event,
    reliability_events,
)
from repro.reliability.faults import (
    FaultInjector,
    FaultRule,
    InjectedFault,
    fault_point,
    get_injector,
    injected_faults,
    install_injector,
    uninstall_injector,
)
from repro.reliability.storage import (
    MaintenanceReport,
    StorageGovernor,
    StorageStatus,
    directory_bytes,
    maintain_state_dir,
)

__all__ = [
    "ReliabilityEvent",
    "record_event",
    "reliability_events",
    "clear_events",
    "FaultRule",
    "FaultInjector",
    "InjectedFault",
    "fault_point",
    "install_injector",
    "uninstall_injector",
    "get_injector",
    "injected_faults",
    "StorageStatus",
    "StorageGovernor",
    "MaintenanceReport",
    "directory_bytes",
    "maintain_state_dir",
]

"""Overload-safe multi-tenant fleet serving for the ease.ml/ci loop.

The :class:`CIFleet` gateway owns N tenant state directories and routes
webhook-style submissions to per-tenant
:class:`~repro.ci.service.CIService` instances, hydrated lazily from
their snapshots + journal and held in a bounded resident set that keeps
frequently used tenants live.  In front of each tenant sit a durable
intake queue (:class:`IntakeQueue`, kept in the tenant's journal), admission
control (:class:`AdmissionPolicy`), and a circuit breaker
(:class:`CircuitBreaker`).  See :mod:`repro.fleet.gateway` for the full
contract and ``docs/fleet.md`` for a quickstart.
"""

from repro.fleet.admission import AdmissionPolicy
from repro.fleet.breaker import BreakerState, CircuitBreaker
from repro.fleet.gateway import (
    CIFleet,
    DrainReport,
    FleetFsckReport,
    FleetReport,
    TenantFsck,
    TenantStatus,
)
from repro.fleet.intake import IntakeQueue, IntakeRecord

__all__ = [
    "AdmissionPolicy",
    "BreakerState",
    "CIFleet",
    "CircuitBreaker",
    "DrainReport",
    "FleetFsckReport",
    "FleetReport",
    "IntakeQueue",
    "IntakeRecord",
    "TenantFsck",
    "TenantStatus",
]

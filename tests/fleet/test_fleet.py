"""The fleet gateway: LRU residency, admission, isolation, operations.

The headline invariant (the fleet parity gate, scaled down for the unit
suite; ``benchmarks/bench_fleet.py`` runs it at 100+ tenants): routing N
tenants' traffic through one gateway — with an LRU small enough to force
eviction churn — produces build records element-wise identical to N
isolated ``CIService`` runs, in all three adaptivity modes.
"""

import sys

import pytest

sys.path.insert(0, "tests/ci")
from test_restart_parity import ADAPTIVITY_MODES, assert_parity  # noqa: E402

from tests.fleet.conftest import reference_service, register_tenant  # noqa: E402

from repro.exceptions import (  # noqa: E402
    FleetOverloadedError,
    PersistenceError,
    TenantQuarantinedError,
    TenantQuotaExceededError,
    UnknownTenantError,
)
from repro.fleet import AdmissionPolicy, CIFleet  # noqa: E402
from repro.reliability.events import reliability_events  # noqa: E402
from repro.reliability.faults import (  # noqa: E402
    FaultRule,
    InjectedFault,
    injected_faults,
)


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestRegistration:
    def test_register_creates_tenant_layout(self, make_fleet, small_world):
        fleet = make_fleet()
        register_tenant(fleet, "t-0", small_world(commits=2))
        directory = fleet.tenant_dir("t-0")
        # Snapshots plus exactly one log: the journal is also the intake.
        assert (directory / "snapshots").is_dir()
        assert sorted(path.name for path in directory.iterdir()) == [
            "journal.jsonl",
            "snapshots",
        ]
        assert fleet.tenants() == ["t-0"]
        assert fleet.resident_tenants == ["t-0"]

    def test_register_twice_raises(self, make_fleet, small_world):
        fleet = make_fleet()
        world = small_world(commits=2)
        register_tenant(fleet, "t-0", world)
        with pytest.raises(PersistenceError, match="already exists"):
            register_tenant(fleet, "t-0", world)

    @pytest.mark.parametrize("bad", ["", ".hidden", "a b", "x/y", "a" * 65])
    def test_invalid_tenant_ids_rejected(self, make_fleet, bad):
        fleet = make_fleet()
        with pytest.raises(UnknownTenantError, match="invalid tenant id"):
            fleet.tenant_dir(bad)

    def test_unknown_tenant_raises(self, make_fleet):
        fleet = make_fleet()
        with pytest.raises(UnknownTenantError, match="no tenant"):
            fleet.service("ghost")
        with pytest.raises(UnknownTenantError, match="no tenant"):
            fleet.enqueue("ghost", object())


class TestParityUnderChurn:
    @pytest.mark.parametrize("adaptivity", ADAPTIVITY_MODES)
    def test_interleaved_tenants_match_isolated_services(
        self, make_fleet, small_world, adaptivity
    ):
        """The fleet parity gate at unit scale.

        max_resident=1 over 3 tenants means every interleaved submission
        evicts someone and rehydrates someone else — the worst-case
        churn schedule.
        """
        worlds = {
            f"t-{i}": small_world(adaptivity=adaptivity, commits=4, seed=i)
            for i in range(3)
        }
        fleet = make_fleet(max_resident=1)
        for tenant_id, world in worlds.items():
            register_tenant(fleet, tenant_id, world)
        rounds = max(len(w[3]) for w in worlds.values())
        for index in range(rounds):
            for tenant_id, world in worlds.items():
                models = world[3]
                if index < len(models):
                    build = fleet.submit(
                        tenant_id, models[index], message=f"c{index}"
                    )
                    assert build.commit.sequence == index
        assert fleet.evictions > 0
        for tenant_id, world in worlds.items():
            assert_parity(reference_service(tenant_id, world), fleet.service(tenant_id))

    def test_capacity_bound_is_enforced(self, make_fleet, small_world):
        fleet = make_fleet(max_resident=2)
        for i in range(5):
            register_tenant(fleet, f"t-{i}", small_world(commits=2, seed=i))
        assert len(fleet.resident_tenants) == 2
        fleet.service("t-0")
        assert "t-0" in fleet.resident_tenants
        assert len(fleet.resident_tenants) == 2
        assert fleet.hydrations == 1


class TestDurableIntake:
    def test_enqueue_survives_fleet_restart(self, make_fleet, small_world):
        world = small_world(commits=3)
        fleet = make_fleet()
        register_tenant(fleet, "t-0", world)
        for index, model in enumerate(world[3]):
            fleet.enqueue("t-0", model, message=f"c{index}")
        fleet.close()

        resumed = make_fleet()  # same root, fresh process state
        report = resumed.drain("t-0")
        builds = report.builds["t-0"]
        assert [b.commit.sequence for b in builds] == [0, 1, 2]
        assert_parity(reference_service("t-0", world), resumed.service("t-0"))

    def test_drain_is_idempotent(self, make_fleet, small_world):
        world = small_world(commits=2)
        fleet = make_fleet()
        register_tenant(fleet, "t-0", world)
        for index, model in enumerate(world[3]):
            fleet.enqueue("t-0", model, message=f"c{index}")
        first = fleet.drain("t-0").builds["t-0"]
        assert len(first) == 2
        assert fleet.drain("t-0").builds["t-0"] == []
        assert len(fleet.service("t-0").builds) == 2

    def test_submit_returns_the_matching_build(self, make_fleet, small_world):
        world = small_world(commits=2)
        fleet = make_fleet()
        register_tenant(fleet, "t-0", world)
        # A backlog entry sits in front of the submitted one.
        fleet.enqueue("t-0", world[3][0], message="c0")
        build = fleet.submit("t-0", world[3][1], message="c1")
        assert build.commit.sequence == 1
        assert len(fleet.service("t-0").builds) == 2


class TestAdmission:
    def test_tenant_quota_rejects_at_the_door(self, make_fleet, small_world):
        world = small_world(commits=4)
        fleet = make_fleet(
            admission=AdmissionPolicy(
                max_pending_per_tenant=2, retry_after_seconds=5.0
            )
        )
        register_tenant(fleet, "t-0", world)
        fleet.enqueue("t-0", world[3][0])
        fleet.enqueue("t-0", world[3][1])
        with pytest.raises(TenantQuotaExceededError) as excinfo:
            fleet.enqueue("t-0", world[3][2])
        assert excinfo.value.tenant == "t-0"
        assert excinfo.value.retry_after_seconds == 5.0
        # Nothing was durably written for the rejected submission.
        assert fleet._intake("t-0").pending_count == 2
        assert fleet.rejections["tenant-quota"] == 1

    def test_fleet_overload_rejects_globally(self, make_fleet, small_world):
        fleet = make_fleet(admission=AdmissionPolicy(max_pending_total=3))
        worlds = {
            f"t-{i}": small_world(commits=4, seed=i) for i in range(2)
        }
        for tenant_id, world in worlds.items():
            register_tenant(fleet, tenant_id, world)
        fleet.enqueue("t-0", worlds["t-0"][3][0])
        fleet.enqueue("t-0", worlds["t-0"][3][1])
        fleet.enqueue("t-1", worlds["t-1"][3][0])
        with pytest.raises(FleetOverloadedError):
            fleet.enqueue("t-1", worlds["t-1"][3][1])
        assert fleet.rejections["fleet-overloaded"] == 1
        # Draining the backlog reopens the door.
        fleet.drain()
        fleet.enqueue("t-1", worlds["t-1"][3][1])


class TestBreakerIsolation:
    def test_failing_tenant_is_quarantined_others_serve(
        self, make_fleet, small_world
    ):
        clock = FakeClock()
        worlds = {
            "t-bad": small_world(commits=4, seed=1),
            "t-good": small_world(commits=4, seed=2),
        }
        fleet = make_fleet(
            failure_threshold=2, cooldown_seconds=60.0, clock=clock
        )
        for tenant_id, world in worlds.items():
            register_tenant(fleet, tenant_id, world)
        rule = FaultRule(
            site="fleet.process.t-bad",
            action="raise",
            probability=1.0,
            times=None,
        )
        with injected_faults([rule]):
            for index in range(2):
                # Each submission is durably accepted before its
                # processing fails — nothing is lost, only deferred.
                with pytest.raises(InjectedFault):
                    fleet.submit(
                        "t-bad", worlds["t-bad"][3][index], message=f"c{index}"
                    )
            # Threshold reached: the door is now closed for t-bad...
            with pytest.raises(TenantQuarantinedError) as excinfo:
                fleet.enqueue("t-bad", worlds["t-bad"][3][2])
            assert excinfo.value.retry_after_seconds == pytest.approx(60.0)
            # ...while the healthy tenant is completely unaffected.
            for index, model in enumerate(worlds["t-good"][3]):
                fleet.submit("t-good", model, message=f"c{index}")
        assert_parity(
            reference_service("t-good", worlds["t-good"]),
            fleet.service("t-good"),
        )
        # Cooldown elapses, the fault is gone: the half-open drain probes,
        # succeeds, closes the breaker, and the durable backlog completes.
        clock.advance(61.0)
        builds = fleet.drain("t-bad").builds["t-bad"]
        assert [b.commit.sequence for b in builds] == [0, 1]
        fleet.enqueue("t-bad", worlds["t-bad"][3][2], message="c2")
        assert fleet.drain("t-bad").builds["t-bad"][0].commit.sequence == 2

    def test_fleet_drain_skips_open_breakers(self, make_fleet, small_world):
        clock = FakeClock()
        world = small_world(commits=2)
        fleet = make_fleet(failure_threshold=1, clock=clock)
        register_tenant(fleet, "t-0", world)
        rule = FaultRule(
            site="fleet.process.t-0", action="raise", probability=1.0, times=1
        )
        with injected_faults([rule]):
            with pytest.raises(InjectedFault):
                fleet.submit("t-0", world[3][0], message="c0")
        report = fleet.drain()
        assert report.skipped == ("t-0",)
        assert report.builds == {}

    def test_hydration_failure_counts_against_breaker(
        self, make_fleet, small_world
    ):
        world = small_world(commits=2)
        fleet = make_fleet()
        register_tenant(fleet, "t-0", world)
        fleet.close()
        with injected_faults(
            [FaultRule(site="fleet.hydrate", action="raise", at=1)]
        ):
            with pytest.raises(InjectedFault):
                fleet.service("t-0")
        assert fleet._breaker("t-0").consecutive_failures == 1
        assert any(
            e.kind == "tenant-hydrate-failed" for e in reliability_events()
        )
        # The next hydration (fault exhausted) succeeds.
        assert fleet.service("t-0") is not None

    def test_eviction_failure_keeps_tenant_resident(
        self, make_fleet, small_world
    ):
        fleet = make_fleet(max_resident=1)
        register_tenant(fleet, "t-0", small_world(commits=2, seed=0))
        with injected_faults(
            [FaultRule(site="fleet.evict", action="raise", at=1)]
        ):
            register_tenant(fleet, "t-1", small_world(commits=2, seed=1))
        # The failed eviction was absorbed: both tenants stayed resident
        # (over capacity beats refusing traffic), and the event is logged.
        assert set(fleet.resident_tenants) == {"t-0", "t-1"}
        assert any(e.kind == "evict-failed" for e in reliability_events())
        # With the fault gone, the next capacity pass evicts normally.
        fleet._enforce_capacity()
        assert fleet.resident_tenants == ["t-1"]
        fleet.close()
        assert fleet.resident_tenants == []


class TestOperationsAndFsck:
    def test_fleet_report_aggregates(self, make_fleet, small_world):
        worlds = {
            f"t-{i}": small_world(commits=2, seed=i) for i in range(3)
        }
        fleet = make_fleet(max_resident=2)
        for tenant_id, world in worlds.items():
            register_tenant(fleet, tenant_id, world)
        fleet.submit("t-0", worlds["t-0"][3][0], message="c0")
        fleet.enqueue("t-1", worlds["t-1"][3][0])
        report = fleet.operations()
        assert report.tenants_registered == 3
        assert report.tenants_resident == 2
        assert report.pending_total == 1
        assert report.accepted == 2
        assert report.processed == 1
        by_id = {s.tenant_id: s for s in report.tenant_status}
        assert by_id["t-1"].pending == 1
        assert by_id["t-0"].breaker == "closed"
        text = report.describe()
        assert "3 registered" in text and "1 pending" in text

    def test_tenant_operations_cold_is_read_only(self, make_fleet, small_world):
        world = small_world(commits=2)
        fleet = make_fleet()
        register_tenant(fleet, "t-0", world)
        fleet.submit("t-0", world[3][0], message="c0")
        fleet.close()
        journal = (fleet.tenant_dir("t-0") / "journal.jsonl").read_bytes()
        report = fleet.tenant_operations("t-0")
        assert report.builds_total == 1
        assert (fleet.tenant_dir("t-0") / "journal.jsonl").read_bytes() == journal
        assert fleet.resident_tenants == []

    def test_fsck_healthy_and_damaged(self, make_fleet, small_world):
        fleet = make_fleet()
        for i in range(2):
            register_tenant(fleet, f"t-{i}", small_world(commits=2, seed=i))
        fleet.submit("t-0", small_world(commits=2, seed=0)[3][0], message="c0")
        fleet.close()
        assert fleet.fsck().healthy
        # Destroy one tenant's snapshots: the sweep localizes the damage.
        for snapshot in (fleet.tenant_dir("t-1") / "snapshots").glob("*"):
            snapshot.write_bytes(b"garbage")
        report = fleet.fsck()
        assert not report.healthy
        by_id = {t.tenant_id: t for t in report.tenants}
        assert by_id["t-0"].state.restorable
        assert not by_id["t-1"].state.restorable
        assert "UNRESTORABLE" in report.describe()

    def test_fsck_missing_root(self, tmp_path):
        fleet = CIFleet(tmp_path / "nowhere", create=False)
        report = fleet.fsck()
        assert not report.exists
        assert not report.healthy

    def test_context_manager_evicts_on_exit(self, make_fleet, small_world):
        with make_fleet() as fleet:
            register_tenant(fleet, "t-0", small_world(commits=2))
            assert fleet.resident_tenants == ["t-0"]
        assert fleet.resident_tenants == []
        assert len(fleet) == 1
        assert list(fleet) == ["t-0"]

"""Frequency-aware residency and the running fleet-wide pending total.

Residency: every ``CIFleet.service`` lookup bumps the tenant's access
count, and every ``16 * max_resident`` lookups every count is halved.
Over capacity, the resident with the lowest count is evicted first, the
least recently used among equal counts, and the tenant being served is
never the victim.  Only the choice of victim is under test here — which
tenant pays a hydration, never what a build computes (the parity suites
cover that).

Pending total: the admission door reads a running total instead of
visiting every tenant's queue; it must equal the sum of the on-disk
queue depths after every step, including after a queue handle was
dropped by a torn append or a failed ack and reopened.
"""

import sys

import numpy as np
import pytest

sys.path.insert(0, "tests/ci")
from test_restart_parity import ADAPTIVITY_MODES, assert_parity  # noqa: E402

from tests.fleet.conftest import reference_service, register_tenant  # noqa: E402

from repro.ci.persistence import scan_journal  # noqa: E402
from repro.fleet import CIFleet  # noqa: E402
from repro.reliability.events import clear_events, reliability_events  # noqa: E402
from repro.reliability.faults import (  # noqa: E402
    FaultRule,
    InjectedFault,
    injected_faults,
)


def evicted():
    """Tenant ids in eviction order, from the reliability event log."""
    return [event.detail["tenant"] for event in reliability_events("tenant-evicted")]


def aging_period(fleet):
    return 16 * fleet.max_resident


def build_fleet(make_fleet, small_world, tenants, **kwargs):
    fleet = make_fleet(**kwargs)
    for index in range(tenants):
        register_tenant(fleet, f"t-{index}", small_world(commits=2, seed=index))
    return fleet


class TestResidencyPolicy:
    def test_hot_tenant_stays_resident_under_skewed_traffic(
        self, make_fleet, small_world
    ):
        fleet = build_fleet(make_fleet, small_world, 6, max_resident=2)
        rng = np.random.default_rng(11)
        weights = 1.0 / np.arange(1, 7) ** 1.1
        picks = rng.choice(6, size=300, p=weights / weights.sum())
        warm = 20
        for step, pick in enumerate(picks):
            fleet.service(f"t-{pick}")
            if step >= warm:
                assert "t-0" in fleet.resident_tenants, step
        assert fleet.hits + fleet.hydrations == len(picks)
        assert "t-0" not in evicted()[warm:]

    def test_idle_tenant_is_evicted_within_the_aging_bound(
        self, make_fleet, small_world
    ):
        fleet = build_fleet(make_fleet, small_world, 9, max_resident=2)
        hot_lookups = 40
        for _ in range(hot_lookups):
            fleet.service("t-0")
        clear_events()
        # Its count is at most its lookups; it reaches 0 after that many
        # bits' worth of halvings, one per aging period, and is then the
        # first candidate of the next miss (cyclic traffic over eight cold
        # tenants through the one other slot always misses).
        bound = aging_period(fleet) * hot_lookups.bit_length() + 1
        steps = 0
        while "t-0" in fleet.resident_tenants:
            fleet.service(f"t-{1 + steps % 8}")
            steps += 1
            assert steps <= bound
        # Plain LRU would evict it on the second miss; its count keeps
        # it past a whole aging period of cold traffic.
        assert steps > aging_period(fleet)
        assert evicted()[-1] == "t-0"

    def test_served_tenant_is_never_the_victim(self, make_fleet, small_world):
        fleet = build_fleet(make_fleet, small_world, 4, max_resident=1)
        for _ in range(10):
            fleet.service("t-0")
        # t-1 has the lowest count, yet it is being served: t-0 goes.
        fleet.service("t-1")
        assert fleet.resident_tenants == ["t-1"]
        rng = np.random.default_rng(5)
        for pick in rng.integers(0, 4, size=100):
            fleet.service(f"t-{pick}")
            assert fleet.resident_tenants[-1] == f"t-{pick}"
            assert len(fleet.resident_tenants) == 1

    def test_same_access_sequence_gives_same_evictions(
        self, tmp_path, small_world
    ):
        picks = np.random.default_rng(3).integers(0, 7, size=200)
        runs = []
        for run in range(2):
            clear_events()
            fleet = CIFleet(tmp_path / f"fleet-{run}", max_resident=3, sync=False)
            for index in range(7):
                register_tenant(
                    fleet, f"t-{index}", small_world(commits=2, seed=index)
                )
            for pick in picks:
                fleet.service(f"t-{pick}")
            runs.append((evicted(), fleet.resident_tenants, fleet.hydrations))
        assert runs[0] == runs[1]

    def test_failed_eviction_tries_the_next_candidate_in_policy_order(
        self, make_fleet, small_world
    ):
        fleet = build_fleet(make_fleet, small_world, 3, max_resident=3)
        register_tenant(fleet, "t-3", small_world(commits=2, seed=3))
        # t-0 was evicted by registering t-3.  Now counts t-1: 3, t-2: 2,
        # t-3: 1 with recency t-1, t-2, t-3: policy order t-3, t-2, t-1,
        # where LRU order would have been t-1, t-2, t-3.
        for tenant_id, lookups in (("t-1", 3), ("t-2", 2), ("t-3", 1)):
            for _ in range(lookups):
                fleet.service(tenant_id)
        clear_events()
        with injected_faults([FaultRule(site="fleet.evict", action="raise", at=1)]):
            fleet.service("t-0")
        [failed] = reliability_events("evict-failed")
        assert failed.detail["tenant"] == "t-3"
        assert evicted() == ["t-2"]
        assert fleet.resident_tenants == ["t-1", "t-3", "t-0"]

    def test_counts_are_runtime_only(self, make_fleet, small_world):
        fleet = build_fleet(make_fleet, small_world, 3, max_resident=2)
        for _ in range(5):
            fleet.service("t-1")
        fleet.service("t-0")
        report = fleet.operations()
        assert report.hits == fleet.hits == 5
        assert report.hydrations == fleet.hydrations == 1
        assert report.hit_ratio == pytest.approx(5 / 6)
        assert "5 hit(s) (hit ratio 0.83)" in report.describe()
        fleet.close()
        reopened = make_fleet(max_resident=2)
        assert reopened.hits == 0
        assert reopened.operations().hit_ratio == 0.0


class TestPendingTotal:
    def test_running_total_matches_the_queues_after_every_step(
        self, make_fleet, small_world
    ):
        worlds = {
            f"t-{index}": small_world(adaptivity=mode, commits=10, seed=index)
            for index, mode in enumerate(ADAPTIVITY_MODES)
        }
        fleet = make_fleet(max_resident=2)
        for tenant_id, world in worlds.items():
            register_tenant(fleet, tenant_id, world)
        sent = dict.fromkeys(worlds, 0)
        rng = np.random.default_rng(19)
        kinds = []

        def on_disk():
            return sum(
                scan_journal(fleet.tenant_dir(tenant_id) / "journal.jsonl").pending
                for tenant_id in worlds
            )

        def accept(tenant_id):
            index = sent[tenant_id]
            fleet.enqueue(tenant_id, worlds[tenant_id][3][index], message=f"c{index}")
            sent[tenant_id] += 1

        for _ in range(60):
            tenant_id = f"t-{rng.integers(0, len(worlds))}"
            pending = fleet._intake(tenant_id).pending_count
            kind = rng.choice(["enqueue", "drain", "torn-append", "failed-ack"])
            if kind in ("enqueue", "torn-append") and sent[tenant_id] == len(
                worlds[tenant_id][3]
            ):
                kind = "drain"
            if kind == "failed-ack" and not pending:
                kind = "enqueue" if sent[tenant_id] < len(worlds[tenant_id][3]) else "drain"
            if kind == "enqueue":
                accept(tenant_id)
            elif kind == "drain":
                fleet.drain(tenant_id)
            else:
                # Both tear the first intake append: the submission itself,
                # or the ack of the first pending entry of the drain.
                with injected_faults(
                    [FaultRule(site="intake.append", action="tear", at=1)]
                ):
                    with pytest.raises(InjectedFault):
                        if kind == "torn-append":
                            accept(tenant_id)
                        else:
                            fleet.drain(tenant_id)
                # The failed append was cut back at once: no torn tail.
                journal = fleet.tenant_dir(tenant_id) / "journal.jsonl"
                assert scan_journal(journal).torn_tail_bytes == 0
            kinds.append(kind)
            assert fleet._total_pending() == on_disk(), kinds
        assert {"enqueue", "drain", "torn-append", "failed-ack"} <= set(kinds)
        fleet.drain()
        for tenant_id, world in worlds.items():
            while sent[tenant_id] < len(world[3]):
                index = sent[tenant_id]
                fleet.submit(tenant_id, world[3][index], message=f"c{index}")
                sent[tenant_id] += 1
            assert_parity(reference_service(tenant_id, world), fleet.service(tenant_id))
        assert fleet._total_pending() == on_disk() == 0

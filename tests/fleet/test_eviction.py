"""Eviction releases a tenant; hydration is snapshot plus journal replay.

Every commit is in the tenant journal before its build runs, so eviction
writes no tenant state and the next hydration takes the crash path:
newest snapshot, then the journal tail.  What bounds that tail is the
tenant's own snapshot cadence (``snapshot_every``) — these tests pin the
bound, the restart path, and the state replay cannot rebuild (which
eviction still snapshots).
"""

import json
import sys

import pytest

sys.path.insert(0, "tests/ci")
from test_restart_parity import (  # noqa: E402
    ADAPTIVITY_MODES,
    assert_parity,
    make_script,
    make_world,
)

from tests.fleet.conftest import reference_service, register_tenant  # noqa: E402

from repro.ci.notifications import FlakyTransport, RetryingTransport  # noqa: E402
from repro.ci.repository import ModelRepository  # noqa: E402
from repro.ci.persistence import (  # noqa: E402
    QUEUE_TYPES,
    RESTORE,
    EventJournal,
    SnapshotStore,
    scan_journal,
)
from repro.core.testset import TestsetPool  # noqa: E402
from repro.exceptions import FleetOverloadedError  # noqa: E402
from repro.reliability.events import reliability_events  # noqa: E402
from repro.fleet import AdmissionPolicy, CIFleet  # noqa: E402


def state_files(directory):
    """Every file of a tenant dir (its journal is also its intake), with its bytes."""
    return {
        path.relative_to(directory): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


class TestSnapshotCadenceValidation:
    def test_default_cadence(self, tmp_path):
        assert CIFleet(tmp_path / "fleet").snapshot_every == 8

    @pytest.mark.parametrize("bad", [0, -1, None])
    def test_cadence_must_be_positive(self, tmp_path, bad):
        with pytest.raises(ValueError, match="snapshot_every"):
            CIFleet(tmp_path / "fleet", snapshot_every=bad)


class TestEvictionWritesNoState:
    def test_evict_writes_nothing(self, make_fleet, small_world):
        world = small_world(commits=3)
        fleet = make_fleet(max_resident=2)
        register_tenant(fleet, "t-0", world)
        for index, model in enumerate(world[3]):
            fleet.submit("t-0", model, message=f"c{index}")
        directory = fleet.tenant_dir("t-0")
        before = state_files(directory)

        assert fleet._try_evict("t-0")
        assert fleet.resident_tenants == []
        assert state_files(directory) == before
        assert_parity(reference_service("t-0", world), fleet.service("t-0"))

    def test_close_releases_without_writing(self, make_fleet, small_world):
        worlds = {f"t-{i}": small_world(commits=2, seed=i) for i in range(2)}
        fleet = make_fleet()
        for tenant_id, world in worlds.items():
            register_tenant(fleet, tenant_id, world)
            fleet.submit(tenant_id, world[3][0], message="c0")
        before = {t: state_files(fleet.tenant_dir(t)) for t in worlds}
        fleet.close()
        assert fleet.resident_tenants == []
        assert {t: state_files(fleet.tenant_dir(t)) for t in worlds} == before


def failing_transport(tenant_id):
    """A transport whose every send ends up in the dead-letter log."""
    return RetryingTransport(
        FlakyTransport(failures=10**6),
        retries=0,
        backoff=0.0,
        sleep=lambda _: None,
    )


def evict_and_hydrate(fleet, tenant_id="t-0"):
    assert fleet._try_evict(tenant_id)
    return fleet.service(tenant_id)


class TestUnjournaledStateSurvivesEviction:
    """State replay cannot rebuild is snapshotted on evict, wherever changed.

    Each step changes that state directly on the object that holds it —
    the repository, the engine, the pool — not through a service method.
    """

    def test_dead_letter_records_and_drains(self, make_fleet, small_world):
        world = small_world(adaptivity="none -> third-party@example.com")
        fleet = make_fleet(transport_factory=failing_transport)
        register_tenant(fleet, "t-0", world)
        fleet.submit("t-0", world[3][0], message="c0")
        service = fleet.service("t-0")
        assert len(service.repository.dead_letters) == 1
        assert service.unjournaled_changes

        hydrated = evict_and_hydrate(fleet)
        assert len(hydrated.repository.dead_letters) == 1
        assert not hydrated.unjournaled_changes

        # An operator acknowledges the letter: it must not come back.
        (letter,) = hydrated.repository.drain_dead_letters()
        hydrated = evict_and_hydrate(fleet)
        assert hydrated.repository.dead_letters == []

        # Redelivery failed, so the operator re-records it.
        hydrated.repository.record_dead_letter(letter)
        hydrated = evict_and_hydrate(fleet)
        assert len(hydrated.repository.dead_letters) == 1

    def test_testset_and_pool_installs(self, make_fleet, small_world):
        script, testsets, baseline, models = world = small_world()
        fleet = make_fleet()
        register_tenant(fleet, "t-0", world)
        service = fleet.service("t-0")
        assert not service.unjournaled_changes

        service.engine.manager.retire()
        service.engine.install_testset(testsets[2])
        hydrated = evict_and_hydrate(fleet)
        assert hydrated.engine.manager.generation == 2
        assert hydrated.engine.manager.current.name == testsets[2].name

        # Replaces the registered pool (gen-1, gen-2) with one of gen-2.
        hydrated.install_testset_pool(TestsetPool(testsets[2:]))
        hydrated = evict_and_hydrate(fleet)
        assert [t.name for t in hydrated.engine.pool.pending_testsets] == [
            testsets[2].name
        ]
        assert not hydrated.unjournaled_changes

    def test_pool_refill_matches_an_isolated_service(self, make_fleet):
        """Generations a low-watermark callback adds survive the release.

        The callback labels every spare generation once the first pool
        generation is installed; it is runtime wiring, so the hydrated
        tenant has none and replay could never re-add them.
        """
        script = make_script("full", steps=4)
        testsets, baseline, models = make_world(script, commits=14, generations=5)
        pool = TestsetPool(testsets[1:2], low_watermark=0)

        def label_the_spares(event):
            if pool.added == 0:
                for testset in testsets[2:]:
                    pool.add(testset)

        pool.on_low_watermark(label_the_spares)
        # A cadence longer than the run: only eviction can save the refill.
        fleet = make_fleet(snapshot_every=100)
        fleet.register(
            "t-0",
            script,
            testsets[0],
            baseline,
            repository=ModelRepository(nonce="nonce-t-0"),
            pool=pool,
        )
        sent = 0
        while pool.added == 0:
            fleet.submit("t-0", models[sent], message=f"c{sent}")
            sent += 1
        assert fleet._try_evict("t-0")
        for index in range(sent, len(models)):
            fleet.submit("t-0", models[index], message=f"c{index}")

        reference = reference_service("t-0", (script, testsets, baseline, models))
        assert all(build.ran for build in reference.builds)
        assert reference.engine.manager.generation >= 3
        assert_parity(reference, fleet.service("t-0"))


class TestReplayBound:
    @pytest.mark.parametrize("adaptivity", ADAPTIVITY_MODES)
    def test_hydration_replays_less_than_the_cadence(
        self, make_fleet, adaptivity
    ):
        """max_resident=1 churn: every submit hydrates, replay stays bounded.

        The bound holds only because the commits a restore replays count
        toward the next cadence snapshot; a counter reset at restore would
        let the replayed tail grow with every hydration.
        """
        cadence = 3
        script = make_script(adaptivity, steps=4)
        worlds = {
            f"t-{i}": (script, *make_world(
                script, commits=3 * cadence + 2, generations=6, seed=i
            ))
            for i in range(3)
        }
        # Retention off so every restore record stays in the journal.
        fleet = make_fleet(
            max_resident=1, snapshot_every=cadence, keep_snapshots=None
        )
        for tenant_id, world in worlds.items():
            register_tenant(fleet, tenant_id, world)
        for index in range(3 * cadence + 2):
            for tenant_id, world in worlds.items():
                fleet.submit(tenant_id, world[3][index], message=f"c{index}")
        for tenant_id, world in worlds.items():
            assert_parity(reference_service(tenant_id, world), fleet.service(tenant_id))

        for tenant_id in worlds:
            journal = EventJournal(fleet.tenant_dir(tenant_id) / "journal.jsonl")
            replayed = [
                record.payload["replayed_commits"]
                for record in journal.records_of(RESTORE)
            ]
            assert len(replayed) >= 3 * cadence
            assert max(replayed) == cadence - 1


class TestIntakeCadence:
    def test_churn_keeps_only_queue_records_a_retained_snapshot_lacks(
        self, make_fleet
    ):
        """Eviction never compacts the journal; the cadence's retention
        does, and drops every queue record a retained snapshot holds."""
        cadence = 3
        script = make_script("full", steps=4)
        worlds = {
            f"t-{i}": (script, *make_world(script, commits=3 * cadence + 1, seed=i))
            for i in range(2)
        }
        fleet = make_fleet(max_resident=1, snapshot_every=cadence, keep_snapshots=2)
        for tenant_id, world in worlds.items():
            register_tenant(fleet, tenant_id, world)

        def queue(tenant_id):
            directory = fleet.tenant_dir(tenant_id)
            snapshots = SnapshotStore(directory / "snapshots").snapshots()
            covered = min(info.repository_length for info in snapshots)
            journal = EventJournal(directory / "journal.jsonl", heal=False)
            named = [
                record.payload["sequence"]
                for record in journal.records()
                if record.type in QUEUE_TYPES
            ]
            assert all(key >= covered for key in named), (named, covered)
            return scan_journal(directory / "journal.jsonl")

        for index in range(3 * cadence + 1):
            for tenant_id, world in worlds.items():
                fleet.enqueue(tenant_id, world[3][index], message=f"c{index}")
                assert queue(tenant_id).pending == 1
                fleet.drain(tenant_id)
                assert queue(tenant_id).pending == 0
        assert fleet.evictions >= 2 * 3 * cadence
        assert len(reliability_events("journal-compacted")) >= 2 * 2
        for tenant_id, world in worlds.items():
            assert_parity(reference_service(tenant_id, world), fleet.service(tenant_id))


class TestRestart:
    def test_reopened_fleet_resumes_to_parity(self, make_fleet, small_world):
        worlds = {
            f"t-{i}": small_world(adaptivity=mode, commits=12, seed=i)
            for i, mode in enumerate(ADAPTIVITY_MODES)
        }
        fleet = make_fleet(max_resident=2)
        for tenant_id, world in worlds.items():
            register_tenant(fleet, tenant_id, world)
        for index in range(12):
            for tenant_id, world in worlds.items():
                if index < 6:
                    fleet.submit(tenant_id, world[3][index], message=f"c{index}")
                else:
                    fleet.enqueue(tenant_id, world[3][index], message=f"c{index}")
        fleet.close()

        reopened = make_fleet(max_resident=2)
        report = reopened.drain()
        assert report.errors == {} and report.skipped == ()
        for tenant_id, world in worlds.items():
            assert [b.commit.sequence for b in report.builds[tenant_id]] == list(
                range(6, 12)
            )
            assert_parity(
                reference_service(tenant_id, world), reopened.service(tenant_id)
            )
        fsck = reopened.fsck()
        assert fsck.healthy
        assert all(
            tenant.state.replay_commits < reopened.snapshot_every
            for tenant in fsck.tenants
        )


class TestAdmissionScan:
    def test_submissions_do_not_list_the_tenants_dir(
        self, make_fleet, small_world, monkeypatch
    ):
        worlds = {f"t-{i}": small_world(commits=3, seed=i) for i in range(3)}
        fleet = make_fleet()
        for tenant_id in ("t-0", "t-1"):
            register_tenant(fleet, tenant_id, worlds[tenant_id])
        fleet.enqueue("t-0", worlds["t-0"][3][0])

        reopened = make_fleet(admission=AdmissionPolicy(max_pending_total=3))
        listings = []
        tenants = reopened.tenants
        monkeypatch.setattr(
            reopened, "tenants", lambda: listings.append(1) or tenants()
        )
        reopened.enqueue("t-1", worlds["t-1"][3][0])
        # register() extends the list read from disk: t-2's pending
        # entry counts toward the fleet-wide bound without a re-listing.
        register_tenant(reopened, "t-2", worlds["t-2"])
        reopened.enqueue("t-2", worlds["t-2"][3][0])
        with pytest.raises(FleetOverloadedError):
            reopened.enqueue("t-1", worlds["t-1"][3][1])
        assert listings == [1]


class TestColdReclaim:
    def test_a_fresh_fleet_reclaims_a_cold_tenant_like_a_resident_one(
        self, make_fleet, small_world
    ):
        """A restarted fleet's storage reclamation of a tenant it never
        hydrated frees the submissions the retained snapshot holds."""
        world = small_world(commits=9)
        fleet = make_fleet(max_resident=1, snapshot_every=2, keep_snapshots=2)
        register_tenant(fleet, "t", world)
        register_tenant(fleet, "u", small_world(commits=1, seed=1))
        for index, model in enumerate(world[3][:8]):
            fleet.submit("t", model, message=f"c{index}")
            fleet.service("u")  # evict t: every submit hydrates it
        fleet.close()

        fresh = make_fleet(max_resident=1, snapshot_every=2, keep_snapshots=1)
        fresh._maintain_tenant("t")
        assert fresh.resident_tenants == []
        directory = fresh.tenant_dir("t")
        (snapshot,) = SnapshotStore(directory / "snapshots").snapshots()
        assert snapshot.repository_length == 8
        submissions = [
            record.get("repo_sequence", record["payload"].get("sequence"))
            for path in directory.glob("*.jsonl")
            for record in map(json.loads, path.read_bytes().splitlines())
            if "submission" in (record.get("kind"), record.get("type"))
        ]
        assert all(key >= snapshot.repository_length for key in submissions)
        fresh.submit("t", world[3][8], message="c8")
        assert_parity(reference_service("t", world), fresh.service("t"))

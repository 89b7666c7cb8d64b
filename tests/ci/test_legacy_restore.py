"""State written by older builds restores here unchanged.

``tests/fixtures/legacy_state.tar.gz`` was written by commit ``713d042``,
whose snapshots still carry every ``Testset.features`` column (see
``tests/fixtures/make_legacy_state.py``).  A ``persist_to`` state dir
and a fleet root from it — each cut off half-way through its commit
queue, the fleet with one accepted entry pending per tenant — resume
here and finish element-wise identical to an uninterrupted run, in all
three adaptivity modes.

``tests/fixtures/legacy_two_file_fleet.tar.gz`` was written by commit
``01df89a``, whose fleet tenants kept their intake queue in a separate
``intake.jsonl``: started submissions named by the journal, a deferral,
one pending entry per tenant.  The first writable open migrates each
tenant dir to one log, once; read-only inspection writes nothing.
"""

import sys
import tarfile
from pathlib import Path

import pytest

sys.path.insert(0, "tests/ci")
from test_restart_parity import (  # noqa: E402
    ADAPTIVITY_MODES,
    assert_parity,
    finish_queue,
    make_script,
    make_world,
    run_reference,
)

from tests.fleet.conftest import reference_service  # noqa: E402

from repro.ci.persistence import EventJournal  # noqa: E402
from repro.ci.service import CIService  # noqa: E402
from repro.cli import main  # noqa: E402
from repro.fleet import CIFleet  # noqa: E402

ARCHIVE = Path(__file__).resolve().parent.parent / "fixtures" / "legacy_state.tar.gz"
COMMITS = 8  # make_legacy_state.COMMITS
CUT = 4  # make_legacy_state.CUT


def world(adaptivity, seed):
    script = make_script(adaptivity)
    testsets, baseline, models = make_world(script, commits=COMMITS, seed=seed)
    return script, testsets, baseline, models


@pytest.fixture
def legacy_root(tmp_path):
    with tarfile.open(ARCHIVE) as archive:
        archive.extractall(tmp_path, filter="data")
    return tmp_path


@pytest.mark.parametrize("index", range(len(ADAPTIVITY_MODES)))
def test_legacy_state_dir_resumes_identically(legacy_root, index):
    script, testsets, baseline, models = world(ADAPTIVITY_MODES[index], seed=index)
    reference = run_reference(script, testsets, baseline, models)
    restored = CIService.resume(legacy_root / f"service-{index}")
    assert len(restored.repository) == CUT
    assert_parity(reference, finish_queue(restored, models))


def test_legacy_fleet_root_resumes_identically(legacy_root):
    worlds = {
        f"t-{index}": world(mode, seed=index)
        for index, mode in enumerate(ADAPTIVITY_MODES)
    }
    fleet = CIFleet(legacy_root / "fleet", max_resident=2, snapshot_every=3, sync=False)
    report = fleet.drain()
    assert report.errors == {} and report.skipped == ()
    for tenant_id in worlds:
        assert [b.commit.sequence for b in report.builds[tenant_id]] == [CUT]
    for index in range(CUT + 1, COMMITS):
        for tenant_id, tenant_world in worlds.items():
            fleet.submit(tenant_id, tenant_world[3][index], message=f"c{index}")
    for tenant_id, tenant_world in worlds.items():
        assert_parity(
            reference_service(tenant_id, tenant_world), fleet.service(tenant_id)
        )
    assert fleet.fsck().healthy
    fleet.close()


# ---------------------------------------------------------------------------
# A fleet root from before the intake moved into the tenant journal.
# ---------------------------------------------------------------------------

TWO_FILE_ARCHIVE = ARCHIVE.with_name("legacy_two_file_fleet.tar.gz")


@pytest.fixture
def two_file_root(tmp_path):
    with tarfile.open(TWO_FILE_ARCHIVE) as archive:
        archive.extractall(tmp_path, filter="data")
    return tmp_path / "fleet"


def tree(root):
    return {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}


def test_two_file_fleet_root_resumes_identically(two_file_root):
    worlds = {
        f"t-{index}": world(mode, seed=index)
        for index, mode in enumerate(ADAPTIVITY_MODES)
    }
    tenants = two_file_root / "tenants"
    assert all((tenants / t / "intake.jsonl").exists() for t in worlds)
    fleet = CIFleet(two_file_root, max_resident=2, snapshot_every=3, sync=False)
    report = fleet.drain()
    assert report.errors == {} and report.skipped == ()
    for tenant_id in worlds:
        assert [b.commit.sequence for b in report.builds[tenant_id]] == [CUT]
        # Migrated once by the first writable open: one log per tenant.
        assert sorted(p.name for p in (tenants / tenant_id).iterdir()) == [
            "journal.jsonl",
            "snapshots",
        ]
    for index in range(CUT + 1, COMMITS):
        for tenant_id, tenant_world in worlds.items():
            fleet.submit(tenant_id, tenant_world[3][index], message=f"c{index}")
    for tenant_id, tenant_world in worlds.items():
        assert_parity(
            reference_service(tenant_id, tenant_world), fleet.service(tenant_id)
        )
    assert fleet.fsck().healthy
    fleet.close()


def test_two_file_migration_is_idempotent(two_file_root):
    tenant = two_file_root / "tenants" / "t-0"
    intake = (tenant / "intake.jsonl").read_bytes()
    first = EventJournal(tenant / "journal.jsonl", sync=False)
    merged = (tenant / "journal.jsonl").read_bytes()
    assert not (tenant / "intake.jsonl").exists()
    assert sorted(first.pending) == [CUT]
    # A crash after the merged journal landed but before the intake was
    # deleted: the next open merges nothing twice.
    (tenant / "intake.jsonl").write_bytes(intake)
    EventJournal(tenant / "journal.jsonl", sync=False)
    assert (tenant / "journal.jsonl").read_bytes() == merged
    assert not (tenant / "intake.jsonl").exists()


def test_read_only_inspection_leaves_a_two_file_dir_alone(two_file_root, capsys):
    tenant = two_file_root / "tenants" / "t-1"
    before = tree(two_file_root)
    assert main(["ops", str(tenant), "--fsck"]) == 0
    assert main(["ops", str(tenant)]) == 0
    assert main(["fleet", str(two_file_root)]) == 0
    assert "3 pending" in capsys.readouterr().out
    assert main(["fleet", str(two_file_root), "--fsck"]) == 0
    assert main(["fleet", str(two_file_root), "--tenant", "t-1"]) == 0
    inspected = CIService.resume(tenant, record=False)
    assert tree(two_file_root) == before
    # The read-only view restores what a writable open migrates to.
    migrated = CIService.resume(tenant)
    assert not (tenant / "intake.jsonl").exists()
    assert len(inspected.repository) == len(migrated.repository) == CUT
    assert_parity(inspected, migrated)

"""State written before the testset-column elision restores here unchanged.

``tests/fixtures/legacy_state.tar.gz`` was written by commit ``713d042``,
whose snapshots still carry every ``Testset.features`` column (see
``tests/fixtures/make_legacy_state.py``).  A ``persist_to`` state dir
and a fleet root from it — each cut off half-way through its commit
queue, the fleet with one accepted entry pending per tenant — resume
here and finish element-wise identical to an uninterrupted run, in all
three adaptivity modes.
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

from repro.ci.service import CIService  # noqa: E402
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

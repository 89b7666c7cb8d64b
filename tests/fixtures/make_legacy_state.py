"""Write the cross-version restore fixtures under ``tests/fixtures/``.

Run from the repository root against the build whose on-disk state a
fixture should capture.  ``legacy_state.tar.gz`` was written by commit
``713d042``, before ``Testset`` stopped pickling its default features
column:

    git archive 713d042 | tar -x -C /tmp/old
    PYTHONPATH=/tmp/old/src python tests/fixtures/make_legacy_state.py

That archive holds, for each adaptivity mode of the restart-parity
suite, a ``persist_to`` state dir cut off half-way through its commit
queue (``service-<i>/``), and one fleet root with a tenant per mode,
half-way through its submissions plus one accepted-but-unprocessed
entry each (``fleet/``).

``legacy_two_file_fleet.tar.gz`` was written by commit ``01df89a``, the
last build that kept a fleet tenant's intake queue in its own
``intake.jsonl`` beside the journal:

    git archive 01df89a | tar -x -C /tmp/old
    PYTHONPATH=/tmp/old/src python tests/fixtures/make_legacy_state.py two-file

It holds one fleet root (``fleet/``) with a tenant per mode: started
submissions whose journal records name their intake record
(``intake_sequence``), a ``deferred`` marker left by an injected
``fleet.process`` fault (the deferred submission was drained after),
and one accepted-but-unprocessed entry each.
``tests/ci/test_legacy_restore.py`` resumes every one and finishes the
queues.
"""

import sys
import tarfile
import tempfile
from pathlib import Path

sys.path.insert(0, "tests/ci")
sys.path.insert(0, ".")
from test_restart_parity import (  # noqa: E402
    ADAPTIVITY_MODES,
    make_script,
    make_service,
    make_world,
)

from repro.fleet import CIFleet  # noqa: E402
from repro.reliability.faults import FaultRule, InjectedFault, injected_faults  # noqa: E402
from tests.fleet.conftest import register_tenant  # noqa: E402

COMMITS = 8
CUT = 4
SNAPSHOT_EVERY = 3
ARCHIVE = Path(__file__).with_name("legacy_state.tar.gz")
TWO_FILE_ARCHIVE = Path(__file__).with_name("legacy_two_file_fleet.tar.gz")
#: The submission each tenant of the two-file fleet defers, then drains.
DEFERRED = CUT - 1


def world(adaptivity, seed):
    script = make_script(adaptivity)
    testsets, baseline, models = make_world(script, commits=COMMITS, seed=seed)
    return script, testsets, baseline, models


def write_services(root):
    for index, mode in enumerate(ADAPTIVITY_MODES):
        script, testsets, baseline, models = world(mode, seed=index)
        service = make_service(script, testsets, baseline)
        service.persist_to(root / f"service-{index}", snapshot_every=SNAPSHOT_EVERY)
        for model in models[:CUT]:
            service.repository.commit(model, message=model.name)


def write_fleet(root):
    fleet = CIFleet(
        root / "fleet", max_resident=2, snapshot_every=SNAPSHOT_EVERY, sync=False
    )
    worlds = {
        f"t-{index}": world(mode, seed=index)
        for index, mode in enumerate(ADAPTIVITY_MODES)
    }
    for tenant_id, tenant_world in worlds.items():
        register_tenant(fleet, tenant_id, tenant_world)
    for index in range(CUT + 1):
        for tenant_id, tenant_world in worlds.items():
            model = tenant_world[3][index]
            if index < CUT:
                fleet.submit(tenant_id, model, message=f"c{index}")
            else:
                fleet.enqueue(tenant_id, model, message=f"c{index}")
    fleet.close()


def write_two_file_fleet(root):
    fleet = CIFleet(
        root / "fleet", max_resident=2, snapshot_every=SNAPSHOT_EVERY, sync=False
    )
    worlds = {
        f"t-{index}": world(mode, seed=index)
        for index, mode in enumerate(ADAPTIVITY_MODES)
    }
    for tenant_id, tenant_world in worlds.items():
        register_tenant(fleet, tenant_id, tenant_world)
    for index in range(CUT + 1):
        for tenant_id, tenant_world in worlds.items():
            model = tenant_world[3][index]
            if index == CUT:
                fleet.enqueue(tenant_id, model, message=f"c{index}")
            elif index == DEFERRED:
                rule = FaultRule(site="fleet.process", action="raise", at=1)
                try:
                    with injected_faults([rule]):
                        fleet.submit(tenant_id, model, message=f"c{index}")
                except InjectedFault:
                    fleet.drain(tenant_id)
                else:
                    raise AssertionError("the injected fault did not fire")
            else:
                fleet.submit(tenant_id, model, message=f"c{index}")
    fleet.close()


def archive(target, *writers):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for write in writers:
            write(root)
        with tarfile.open(target, "w:gz") as tar:
            for path in sorted(root.iterdir()):
                tar.add(path, arcname=path.name)
    print(f"wrote {target} ({target.stat().st_size} bytes)")


def main():
    if sys.argv[1:] == ["two-file"]:
        archive(TWO_FILE_ARCHIVE, write_two_file_fleet)
    else:
        archive(ARCHIVE, write_services, write_fleet)


if __name__ == "__main__":
    main()

"""Power loss through the fleet: a file loses at most its unsynced suffix.

Group commit fsyncs only the appends an external effect depends on: a
``submission`` (``enqueue`` promised it is never lost) and a
model-carrying ``commit-received`` (it must be on disk before the build
can notify).  Every other record — ``build-recorded``, ``snapshot``,
``restore``, an ``ack`` — is durable only once the next fsync of the
tenant's one log returns.

The test records each log's size at every fsync while a churning fleet
runs.  After every submit it images the fleet root and, for every tenant
journal, cuts the file at each record boundary between its last fsynced
size and its end, plus once mid-record — each cut one power loss.  A fleet resumed on the image, drained and fed the rest of
the stream must match isolated reference services exactly, send each
notification at most once (exactly the reference's notifications), and
re-ack every lost ack without re-running its build.
"""

import os
import shutil
import sys
from collections import Counter

import pytest

sys.path.insert(0, "tests/ci")
from test_restart_parity import ADAPTIVITY_MODES, assert_parity  # noqa: E402

from tests.fleet.conftest import register_tenant  # noqa: E402

from repro.ci.notifications import InMemoryEmailTransport  # noqa: E402
from repro.ci.persistence import SnapshotStore, scan_journal  # noqa: E402
from repro.ci.repository import ModelRepository  # noqa: E402
from repro.ci.service import CIService  # noqa: E402
from repro.core.testset import TestsetPool  # noqa: E402
from repro.fleet import CIFleet  # noqa: E402
from repro.reliability.events import clear_events, reliability_events  # noqa: E402

TENANTS = ("t-0", "t-1")
CONFIG = dict(max_resident=1, snapshot_every=3, keep_snapshots=3)


def stream(worlds):
    """Alternate the tenants' commits: every submit evicts the other tenant."""
    commits = len(next(iter(worlds.values()))[3])
    return [(t, i) for i in range(commits) for t in TENANTS]


def reference(tenant_id, world):
    script, testsets, baseline, models = world
    transport = InMemoryEmailTransport()
    service = CIService(
        script,
        testsets[0],
        baseline,
        repository=ModelRepository(nonce=f"nonce-{tenant_id}"),
        transport=transport,
    )
    service.install_testset_pool(TestsetPool(testsets[1:]))
    for index, model in enumerate(models):
        service.repository.commit(model, message=f"c{index}")
    return service, transport.messages


def messages(transports, tenant_id):
    return [(m.recipient, m.subject, m.body) for m in transports[tenant_id].messages]


def lines_from(data, cut):
    """The lines of ``data`` a cut at ``cut`` removes, even partly."""
    lines, offset = [], 0
    for chunk in data.splitlines(keepends=True):
        offset += len(chunk)
        if offset > cut:
            lines.append(chunk)
    return lines


def cuts(data, synced):
    """Record boundaries from ``synced`` up to the end, plus one torn cut."""
    ends, offset = [], 0
    for chunk in data.splitlines(keepends=True):
        offset += len(chunk)
        ends.append(offset)
    lost = [end for end in ends if end > synced]
    if not lost:
        return []
    return [synced, *lost[:-1], (synced + lost[0]) // 2]


def run_with_images(root, worlds, images):
    """The uninterrupted fleet, imaging the root after every submit.

    Returns, per submit, the image directory, the notifications sent so
    far, and each log file's bytes with the size of its last fsync.
    """
    synced = {}
    real_fsync = os.fsync

    def fsync(fd):
        status = os.fstat(fd)
        synced[(status.st_dev, status.st_ino)] = status.st_size
        real_fsync(fd)

    transports = {t: InMemoryEmailTransport() for t in TENANTS}
    points = []
    os.fsync = fsync
    try:
        fleet = CIFleet(root, sync=True, transport_factory=transports.get, **CONFIG)
        for tenant_id in TENANTS:
            register_tenant(fleet, tenant_id, worlds[tenant_id])
        for step, (tenant_id, index) in enumerate(stream(worlds)):
            fleet.submit(tenant_id, worlds[tenant_id][3][index], message=f"c{index}")
            image = images / str(step)
            shutil.copytree(root, image)
            logs = {}
            for path in sorted(root.glob("tenants/*/*.jsonl")):
                status = path.stat()
                key = (status.st_dev, status.st_ino)
                logs[path.relative_to(root)] = (path.read_bytes(), synced.get(key, 0))
            points.append(
                (image, {t: messages(transports, t) for t in TENANTS}, logs)
            )
    finally:
        os.fsync = real_fsync
    return points


def power_losses(logs):
    """Each file cut alone at each of its cuts, then every file at its fsync."""
    for relative, (data, synced) in logs.items():
        for cut in cuts(data, synced):
            yield {relative: cut}
    yield {relative: synced for relative, (_, synced) in logs.items()}


@pytest.mark.parametrize("adaptivity", ADAPTIVITY_MODES)
def test_power_loss_drops_only_unsynced_suffixes(adaptivity, small_world, tmp_path):
    worlds = {
        t: small_world(adaptivity, commits=4, seed=seed)
        for seed, t in enumerate(TENANTS)
    }
    expected = {t: reference(t, worlds[t]) for t in TENANTS}
    points = run_with_images(tmp_path / "fleet", worlds, tmp_path / "images")
    order = stream(worlds)
    variants = 0
    for step, (image, sent, logs) in enumerate(points):
        for loss in power_losses(logs):
            variants += 1
            root = tmp_path / f"variant-{variants}"
            shutil.copytree(image, root)
            lost_acks = 0
            for relative, cut in loss.items():
                with open(root / relative, "r+b") as handle:
                    handle.truncate(cut)
                lost = lines_from(logs[relative][0], cut)
                assert not any(b'"type": "submission"' in line for line in lost)
                lost_acks += sum(b'"type": "ack"' in line for line in lost)
                # A snapshot never anchors past the journal's durable end.
                anchors = SnapshotStore(root / relative.parent / "snapshots")
                last = scan_journal(root / relative).last_sequence
                assert all(s.journal_sequence <= last for s in anchors.snapshots())
            clear_events()
            transports = {t: InMemoryEmailTransport() for t in TENANTS}
            fleet = CIFleet(
                root, sync=False, transport_factory=transports.get, **CONFIG
            )
            assert not fleet.drain().errors, (step, loss)
            assert len(reliability_events("intake-ack-healed")) == lost_acks
            for tenant_id, index in order[step + 1:]:
                model = worlds[tenant_id][3][index]
                fleet.submit(tenant_id, model, message=f"c{index}")
            for tenant_id in TENANTS:
                service, notifications = expected[tenant_id]
                assert_parity(service, fleet.service(tenant_id))
                delivered = sent[tenant_id] + messages(transports, tenant_id)
                assert Counter(delivered) == Counter(
                    (m.recipient, m.subject, m.body) for m in notifications
                ), (step, loss)
            assert fleet.operations().pending_total == 0
            fleet.close()
            shutil.rmtree(root)
    assert variants > 3 * len(points)

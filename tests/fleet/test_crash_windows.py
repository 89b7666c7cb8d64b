"""Crash windows of the single-copy fleet commit, under mixed traffic.

A started submission's fsynced record is the commit's only durable copy;
its ``commit-received``, later in the same tenant journal, names it and
is only flushed.  An enqueued or deferred submission keeps a fsynced,
model-carrying ``commit-received``.  This suite drives two tenants
through ``submit``, ``enqueue`` + ``drain``, a submit queued behind an
enqueue, and one ``fleet.process`` fault, and images the fleet root

* after every operation, then cuts each tenant journal alone at every
  record boundary past its last fsync (plus once mid-record) and finally
  all of them at their last fsync — power losses; a resumed fleet must match
  isolated reference services and send every notification exactly once;
* after every append and every rewrite — process crashes at each record
  boundary; the resumed fleet must match the references and send each
  notification at most once.

No image, cut or not, may hold a ``commit-received`` naming a
submission its journal does not hold.
"""

import os
import shutil
import sys
from collections import Counter

import pytest

sys.path.insert(0, "tests/ci")
from test_restart_parity import assert_parity  # noqa: E402

from tests.fleet.conftest import register_tenant  # noqa: E402
from tests.fleet.test_power_loss import (  # noqa: E402
    lines_from,
    messages,
    power_losses,
    reference,
)

from repro.ci.appendlog import AppendLog  # noqa: E402
from repro.ci.notifications import InMemoryEmailTransport  # noqa: E402
from repro.ci.persistence import COMMIT_RECEIVED, EventJournal  # noqa: E402
from repro.fleet import CIFleet  # noqa: E402
from repro.reliability.events import clear_events, reliability_events  # noqa: E402
from repro.reliability.faults import FaultRule, InjectedFault, injected_faults  # noqa: E402

TENANTS = ("t-0", "t-1")
CONFIG = dict(max_resident=1, snapshot_every=2, keep_snapshots=2)
COMMITS = 5

#: (tenant, commit index, operation).  ``queued`` submits behind the
#: preceding enqueue; ``fault`` submits under a ``fleet.process`` fault.
OPERATIONS = [
    ("t-0", 0, "submit"),
    ("t-1", 0, "submit"),
    ("t-0", 1, "enqueue"),
    ("t-1", 1, "submit"),
    ("t-0", 2, "queued"),
    ("t-1", 2, "enqueue"),
    ("t-1", None, "drain"),
    ("t-0", 3, "fault"),
    ("t-1", 3, "submit"),
    ("t-0", None, "drain"),
    ("t-0", 4, "submit"),
    ("t-1", 4, "submit"),
]


def apply(fleet, worlds, tenant_id, index, operation):
    if operation == "drain":
        fleet.drain(tenant_id)
        return
    model = worlds[tenant_id][3][index]
    if operation == "enqueue":
        fleet.enqueue(tenant_id, model, message=f"c{index}")
    elif operation == "fault":
        rule = FaultRule(site="fleet.process", action="raise", at=1)
        with injected_faults([rule]), pytest.raises(InjectedFault):
            fleet.submit(tenant_id, model, message=f"c{index}")
    else:
        fleet.submit(tenant_id, model, message=f"c{index}")


def assert_names_resolve(root):
    """Every submission a ``commit-received`` names is still in its journal."""
    for path in root.glob("tenants/*/journal.jsonl"):
        journal = EventJournal(path, heal=False)
        named = [
            record.payload["sequence"]
            for record in journal.records_of(COMMIT_RECEIVED)
            if "model_pickle" not in record.payload
        ]
        assert set(journal.submissions(named)) == set(named), (path, named)


def logs_of(root, synced):
    logs = {}
    for path in sorted(root.glob("tenants/*/*.jsonl")):
        status = path.stat()
        key = (status.st_dev, status.st_ino)
        logs[path.relative_to(root)] = (path.read_bytes(), synced.get(key, 0))
    return logs


def run_with_images(root, worlds, images):
    """The uninterrupted run, imaged after each operation and each write.

    Returns (operation images, write images); every image is the copied
    root with the notifications sent so far, and operation images also
    carry each log's bytes with the size of its last fsync.
    """
    synced = {}
    transports = {t: InMemoryEmailTransport() for t in TENANTS}
    writes = []

    def sent():
        return {t: messages(transports, t) for t in TENANTS}

    def image(kind):
        target = images / f"{kind}-{len(list(images.glob(kind + '-*')))}"
        shutil.copytree(root, target)
        return target

    real_fsync, real_append, real_rewrite = os.fsync, AppendLog.append, AppendLog.rewrite

    def fsync(fd):
        status = os.fstat(fd)
        synced[(status.st_dev, status.st_ino)] = status.st_size
        real_fsync(fd)

    def imaged(write):
        def wrapper(self, *args, **kwargs):
            write(self, *args, **kwargs)
            if capturing:
                writes.append((image("write"), sent()))

        return wrapper

    capturing = False
    points = []
    os.fsync = fsync
    AppendLog.append = imaged(real_append)
    AppendLog.rewrite = imaged(real_rewrite)
    try:
        fleet = CIFleet(root, sync=True, transport_factory=transports.get, **CONFIG)
        for tenant_id in TENANTS:
            register_tenant(fleet, tenant_id, worlds[tenant_id])
        capturing = True
        for operation in OPERATIONS:
            apply(fleet, worlds, *operation)
            points.append((image("op"), sent(), logs_of(root, synced)))
    finally:
        os.fsync, AppendLog.append, AppendLog.rewrite = (
            real_fsync,
            real_append,
            real_rewrite,
        )
    return points, writes


def resume(root, worlds, expected, sent, *, exactly_once):
    """Resume a fleet on ``root``, finish every tenant's stream, compare."""
    transports = {t: InMemoryEmailTransport() for t in TENANTS}
    fleet = CIFleet(root, sync=False, transport_factory=transports.get, **CONFIG)
    assert not fleet.drain().errors
    for tenant_id in TENANTS:
        models = worlds[tenant_id][3]
        for index in range(len(fleet.service(tenant_id).repository), COMMITS):
            fleet.submit(tenant_id, models[index], message=f"c{index}")
    for tenant_id in TENANTS:
        service, notifications = expected[tenant_id]
        assert_parity(service, fleet.service(tenant_id))
        delivered = Counter(sent[tenant_id] + messages(transports, tenant_id))
        wanted = Counter((m.recipient, m.subject, m.body) for m in notifications)
        if exactly_once:
            assert delivered == wanted
        else:
            assert not delivered - wanted  # at most once
    assert fleet.operations().pending_total == 0
    assert_names_resolve(root)
    fleet.close()


def test_crash_windows_of_the_single_copy_commit(small_world, tmp_path):
    worlds = {
        t: small_world("firstChange", commits=COMMITS, seed=seed)
        for seed, t in enumerate(TENANTS)
    }
    expected = {t: reference(t, worlds[t]) for t in TENANTS}
    points, writes = run_with_images(tmp_path / "fleet", worlds, tmp_path / "images")
    variants = 0
    for image, sent, logs in points:
        assert_names_resolve(image)
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
            assert_names_resolve(root)
            clear_events()
            resume(root, worlds, expected, sent, exactly_once=True)
            assert len(reliability_events("intake-ack-healed")) == lost_acks
            shutil.rmtree(root)
    for image, sent in writes:
        assert_names_resolve(image)
        resume(image, worlds, expected, sent, exactly_once=False)
        shutil.rmtree(image)
    assert variants > 2 * len(points)
    assert len(writes) > 4 * len(OPERATIONS)

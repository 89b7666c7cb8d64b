"""Disk-fault chaos: real ENOSPC/EIO at every write site, every occurrence.

The storage-governance PR's chaos gate, in the style of the restart- and
fleet-parity suites: a *real* :class:`OSError` (``ENOSPC`` or ``EIO``,
not the library's own :class:`InjectedFault`) injected at any of the
instrumented disk sites —

* ``journal.write``  — the disk fills before any journal byte lands,
* ``snapshot.rename`` — the atomic publish of a finished snapshot fails,
* ``journal.compact`` — compaction's rewrite cannot start,
* ``intake.write``   — a fleet submission cannot be durably accepted,

— at any occurrence must (a) leave the state directory fsck-restorable,
and (b) let a retried run finish to results element-wise identical to
an unperturbed reference, in all three adaptivity modes.

``test_env_spec_disk_chaos_parity`` is the CI disk-chaos leg's entry
point: the workflow exports ``REPRO_FAULT_SPEC`` (a JSON list of errno
rules) and ``REPRO_FAULT_SEED``; run locally with the environment unset
it falls back to a built-in probabilistic spec.
"""

import errno
import json
import os
import sys

import pytest

sys.path.insert(0, "tests/ci")
from test_restart_parity import (  # noqa: E402
    ADAPTIVITY_MODES,
    assert_parity,
    make_script,
    make_service,
    make_world,
    run_reference,
)

from repro.ci.persistence import EventJournal, SnapshotStore, scan_journal  # noqa: E402
from repro.ci.repository import ModelRepository  # noqa: E402
from repro.ci.service import CIService  # noqa: E402
from repro.core.testset import TestsetPool  # noqa: E402
from repro.exceptions import AdmissionError, StorageExhaustedError  # noqa: E402
from repro.fleet import CIFleet  # noqa: E402
from repro.fleet.intake import IntakeQueue  # noqa: E402
from repro.reliability.faults import (  # noqa: E402
    FaultRule,
    InjectedFault,
    injected_faults,
    seed_from_env,
)
from repro.reliability.fsck import fsck_state_dir  # noqa: E402
from repro.reliability.storage import StorageGovernor, directory_bytes  # noqa: E402

DISK_SITES = ("journal.write", "snapshot.rename", "journal.compact")

# Aggressive persistence so every disk site is traversed many times per
# run: snapshot every second build, and keep only the newest generation
# so every snapshot advances the compaction anchor (prune + compact).
PERSIST = dict(snapshot_every=2, keep_snapshots=1, sync=False)
RESUME = dict(snapshot_every=2, keep_snapshots=1)


# ---------------------------------------------------------------------------
# The chaos driver: commit the queue, recovering from OSErrors the way the
# runbook says — fsck (must be restorable), resume from disk, retry.
# ---------------------------------------------------------------------------

def _recovering_resume(state_dir, attempts=10):
    """Resume from disk, retrying when faults strike the resume itself."""
    for _ in range(attempts):
        try:
            return CIService.resume(state_dir, **RESUME)
        except OSError:
            report = fsck_state_dir(state_dir)
            assert report.restorable, report.describe()
    raise AssertionError("resume kept failing under injected disk faults")


def run_with_disk_faults(script, testsets, baseline, models, state_dir, rules, seed=0):
    """Drive the full commit queue to completion under disk faults.

    Every :class:`OSError` escaping a durable write is handled like a
    crashed process: the in-memory service that saw it is discarded,
    the state directory is fsck'd (and must report restorable), and a
    fresh service resumes from disk and retries from the repository's
    durable length.  Returns ``(service, recoveries)``.
    """
    recoveries = 0
    with injected_faults(rules, seed=seed):
        service = make_service(script, testsets, baseline)
        try:
            service.persist_to(state_dir, **PERSIST)
        except OSError:
            # The initial snapshot (or its journal record) failed; the
            # attachment itself survived, so retrying the snapshot
            # completes setup exactly as an operator rerun would.
            for _ in range(10):
                recoveries += 1
                try:
                    service.snapshot()
                    break
                except OSError:
                    continue
            else:
                raise AssertionError("initial snapshot kept failing")
        while len(service.repository) < len(models):
            index = len(service.repository)
            try:
                service.repository.commit(models[index], message=models[index].name)
            except OSError:
                recoveries += 1
                report = fsck_state_dir(state_dir)
                assert report.restorable, report.describe()
                service = _recovering_resume(state_dir)
    assert fsck_state_dir(state_dir).restorable
    return service, recoveries


def count_site_traversals(script, testsets, baseline, models, state_dir):
    """Fault-free dry run counting how often each disk site is traversed.

    Uses never-firing sentinel rules: the injector only counts a site's
    occurrences while some rule watches it.
    """
    sentinels = [
        FaultRule(site=site, action="raise", at=10**9) for site in DISK_SITES
    ]
    with injected_faults(sentinels) as injector:
        service = make_service(script, testsets, baseline)
        service.persist_to(state_dir, **PERSIST)
        for model in models:
            service.repository.commit(model, message=model.name)
        return {site: injector._counts.get(site, 0) for site in DISK_SITES}


# ---------------------------------------------------------------------------
# Errno-action units: the faults are real OSErrors and the write paths
# fail cleanly (nothing half-written, retry succeeds).
# ---------------------------------------------------------------------------

class TestErrnoInjection:
    def test_unknown_errno_name_rejected(self):
        with pytest.raises(ValueError, match="errno"):
            FaultRule(site="journal.write", action="errno", errno_name="ENOTREAL")

    def test_enospc_at_journal_write_is_a_real_oserror(self, tmp_path):
        journal = EventJournal(tmp_path / "journal.jsonl", sync=False)
        rule = FaultRule(site="journal.write", action="errno", at=1)
        with injected_faults([rule]):
            with pytest.raises(OSError) as excinfo:
                journal.append("promotion", {"commit": "c1"})
            assert excinfo.value.errno == errno.ENOSPC
            assert not isinstance(excinfo.value, InjectedFault)
            # The fault fires before any byte lands: no torn tail, no
            # quarantine, and the sequence counter did not advance.
            record = journal.append("promotion", {"commit": "c1"})
        assert record.sequence == 1
        scan = scan_journal(tmp_path / "journal.jsonl")
        assert (scan.records, scan.torn_tail_bytes, scan.corrupt_lines) == (1, 0, ())

    def test_eio_at_snapshot_rename_leaves_store_intact(self, tmp_path):
        store = SnapshotStore(tmp_path / "snapshots")
        rule = FaultRule(
            site="snapshot.rename", action="errno", at=1, errno_name="EIO"
        )
        with injected_faults([rule]):
            with pytest.raises(OSError) as excinfo:
                store.save({"state": "first"})
            assert excinfo.value.errno == errno.EIO
            # The unpublished temp file is cleaned up and no snapshot
            # generation was minted.
            assert list((tmp_path / "snapshots").glob("*.tmp")) == []
            assert store.latest_sequence == 0
            info = store.save({"state": "second"})
        assert info.sequence == 1
        state, _ = store.load_latest()
        assert state == {"state": "second"}

    def test_enospc_at_intake_write_rejects_submission_cleanly(self, tmp_path):
        from repro.ml.models.base import FixedPredictionModel

        path = tmp_path / "journal.jsonl"
        queue = IntakeQueue(EventJournal(path, sync=False))
        model = FixedPredictionModel([1, 0, 1], name="m0")
        rule = FaultRule(site="intake.write", action="errno", at=1)
        with injected_faults([rule]):
            with pytest.raises(OSError) as excinfo:
                queue.append(model, message="m0")
            assert excinfo.value.errno == errno.ENOSPC
            # By the crash model the submission was not accepted; the
            # queue (and a fresh open) sees it empty, and the retry lands
            # durably.
            assert queue.pending_count == 0
            assert IntakeQueue(EventJournal(path, sync=False)).pending_count == 0
            queue.append(model, message="m0")
        assert IntakeQueue(EventJournal(path, sync=False)).pending_count == 1


# ---------------------------------------------------------------------------
# The exhaustive gate: every occurrence of every disk site, both errnos.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("adaptivity", ADAPTIVITY_MODES)
def test_every_disk_fault_occurrence_recovers_to_parity(adaptivity, tmp_path):
    script = make_script(adaptivity)
    testsets, baseline, models = make_world(script, commits=5)
    reference = run_reference(script, testsets, baseline, models)
    counts = count_site_traversals(
        script, testsets, baseline, models, tmp_path / "dry-run"
    )
    for site in DISK_SITES:
        assert counts[site] >= 1, f"{site} never traversed — dead instrumentation"

    case = 0
    for site in DISK_SITES:
        for occurrence in range(1, counts[site] + 1):
            # Alternate errnos so both ENOSPC and EIO hit every site.
            errno_name = "ENOSPC" if occurrence % 2 else "EIO"
            rules = [
                FaultRule(
                    site=site, action="errno", at=occurrence, errno_name=errno_name
                )
            ]
            state_dir = tmp_path / f"case-{case:03d}"
            case += 1
            service, recoveries = run_with_disk_faults(
                script, testsets, baseline, models, state_dir, rules
            )
            assert recoveries == 1, f"{site} occurrence {occurrence}"
            assert_parity(reference, service)


# ---------------------------------------------------------------------------
# Fleet-level disk chaos: intake faults and the hard-watermark tenant.
# ---------------------------------------------------------------------------

def _fleet_world(tenant_seed, commits=3):
    script = make_script("full")
    testsets, baseline, models = make_world(script, commits=commits, seed=tenant_seed)
    return script, testsets, baseline, models


def _register(fleet, tenant_id, world):
    script, testsets, baseline, _ = world
    return fleet.register(
        tenant_id,
        script,
        testsets[0],
        baseline,
        repository=ModelRepository(nonce=f"nonce-{tenant_id}"),
        pool=TestsetPool(testsets[1:]),
    )


def _fleet_reference(tenant_id, world):
    script, testsets, baseline, models = world
    service = CIService(
        script,
        testsets[0],
        baseline,
        repository=ModelRepository(nonce=f"nonce-{tenant_id}"),
    )
    service.install_testset_pool(TestsetPool(testsets[1:]))
    for model in models:
        service.repository.commit(model, message=model.name)
    return service


class TestFleetDiskChaos:
    def test_intake_write_fault_then_retry_reaches_parity(self, tmp_path):
        worlds = {"t-a": _fleet_world(0), "t-b": _fleet_world(1)}
        fleet = CIFleet(tmp_path / "fleet", sync=False)
        for tenant_id, world in worlds.items():
            _register(fleet, tenant_id, world)

        rule = FaultRule(site="intake.write", action="errno", at=2)
        faults_seen = 0
        with injected_faults([rule]):
            for tenant_id, world in worlds.items():
                for model in world[3]:
                    try:
                        fleet.enqueue(tenant_id, model, message=model.name)
                    except OSError as exc:
                        assert exc.errno == errno.ENOSPC
                        faults_seen += 1
                        # The submission was not accepted; the retry is
                        # the client's redelivery.
                        fleet.enqueue(tenant_id, model, message=model.name)
            assert faults_seen == 1
            fleet.drain()

        assert fleet.fsck().healthy
        for tenant_id, world in worlds.items():
            reference = _fleet_reference(tenant_id, world)
            restored = CIService.resume(fleet.tenant_dir(tenant_id), record=False)
            assert_parity(reference, restored)

    def test_hard_watermark_tenant_rejected_typed_while_others_drain(self, tmp_path):
        worlds = {"t-full": _fleet_world(0), "t-ok": _fleet_world(1)}
        fleet = CIFleet(tmp_path / "fleet", sync=False)
        for tenant_id, world in worlds.items():
            _register(fleet, tenant_id, world)

        # Watermarks sized off the real post-registration footprint, so
        # the healthy tenant has headroom and only the filler (runaway
        # growth reclamation cannot touch) trips the hard level.
        base = max(
            directory_bytes(fleet.tenant_dir(tenant_id)) for tenant_id in fleet
        )
        fleet.storage = StorageGovernor(
            soft_bytes=3 * base, hard_bytes=4 * base, retry_after_seconds=2.5
        )
        filler = fleet.tenant_dir("t-full") / "runaway.bin"
        filler.write_bytes(b"\0" * (5 * base))

        with pytest.raises(StorageExhaustedError) as excinfo:
            fleet.enqueue("t-full", worlds["t-full"][3][0], message="m0")
        assert isinstance(excinfo.value, AdmissionError)
        assert excinfo.value.tenant == "t-full"
        assert excinfo.value.retry_after_seconds == 2.5
        assert fleet.rejections["storage-exhausted"] == 1

        # The other tenant is untouched: accepted, drained, to parity.
        for model in worlds["t-ok"][3]:
            fleet.enqueue("t-ok", model, message=model.name)
        fleet.drain()
        assert_parity(
            _fleet_reference("t-ok", worlds["t-ok"]),
            CIService.resume(fleet.tenant_dir("t-ok"), record=False),
        )

        report = fleet.operations()
        by_tenant = {status.tenant_id: status for status in report.tenant_status}
        assert by_tenant["t-full"].storage_level == "hard"
        assert by_tenant["t-ok"].storage_level == "ok"
        assert "storage-exhausted" in report.describe()

        # Reclaiming the runaway bytes reopens the door; the backlog
        # then completes to parity like nothing happened.
        filler.unlink()
        for model in worlds["t-full"][3]:
            fleet.enqueue("t-full", model, message=model.name)
        fleet.drain()
        assert_parity(
            _fleet_reference("t-full", worlds["t-full"]),
            CIService.resume(fleet.tenant_dir("t-full"), record=False),
        )


# ---------------------------------------------------------------------------
# The CI chaos leg's entry point (environment-driven spec).
# ---------------------------------------------------------------------------

DEFAULT_ENV_SPEC = [
    {"site": "journal.write", "action": "errno", "errno_name": "ENOSPC",
     "at": None, "probability": 0.05, "times": 2},
    {"site": "snapshot.rename", "action": "errno", "errno_name": "EIO",
     "at": None, "probability": 0.2, "times": 1},
    {"site": "journal.compact", "action": "errno", "errno_name": "ENOSPC",
     "at": None, "probability": 0.25, "times": 1},
]


@pytest.mark.parametrize("adaptivity", ADAPTIVITY_MODES)
def test_env_spec_disk_chaos_parity(adaptivity, tmp_path):
    """CI entry point: seeded probabilistic ENOSPC/EIO across all sites."""
    spec = os.environ.get("REPRO_FAULT_SPEC")
    mappings = json.loads(spec) if spec else DEFAULT_ENV_SPEC
    rules = [FaultRule(**mapping) for mapping in mappings]
    # This leg drives a single service; rules for foreign sites (the
    # fleet legs consume the same spec) simply never fire here.
    rules = [rule for rule in rules if rule.site in DISK_SITES]
    assert rules, "REPRO_FAULT_SPEC contained no disk-site rules"
    seed = seed_from_env(default=7)

    script = make_script(adaptivity)
    testsets, baseline, models = make_world(script, commits=6)
    reference = run_reference(script, testsets, baseline, models)
    service, _recoveries = run_with_disk_faults(
        script, testsets, baseline, models, tmp_path / "state", rules, seed=seed
    )
    assert_parity(reference, service)


DEFAULT_FLEET_SPEC = DEFAULT_ENV_SPEC + [
    {"site": "intake.write", "action": "errno", "errno_name": "ENOSPC",
     "at": None, "probability": 0.1, "times": 2},
]
FLEET_DISK_SITES = DISK_SITES + ("intake.write",)


@pytest.mark.parametrize("adaptivity", ADAPTIVITY_MODES)
def test_env_spec_fleet_disk_chaos_parity(adaptivity, tmp_path):
    """CI entry point: the same seeded spec, driven through a churning fleet.

    A refused enqueue is redelivered by the client; a failed drain is
    retried, hydrating the tenant from disk (replay, ack healing).  Each
    tenant must end element-wise identical to its isolated reference.
    """
    spec = os.environ.get("REPRO_FAULT_SPEC")
    mappings = json.loads(spec) if spec else DEFAULT_FLEET_SPEC
    rules = [FaultRule(**mapping) for mapping in mappings]
    rules = [rule for rule in rules if rule.site in FLEET_DISK_SITES]
    assert rules, "REPRO_FAULT_SPEC contained no fleet disk-site rules"
    seed = seed_from_env(default=7)

    script = make_script(adaptivity)
    worlds = {}
    for index in range(2):
        testsets, baseline, models = make_world(script, commits=5, seed=index)
        worlds[f"t-{index}"] = (script, testsets, baseline, models)
    fleet = CIFleet(
        tmp_path / "fleet",
        sync=False,
        max_resident=1,
        snapshot_every=2,
        keep_snapshots=1,
        failure_threshold=10**6,
    )
    with injected_faults([]):  # registration is setup, not under test
        for tenant_id, world in worlds.items():
            _register(fleet, tenant_id, world)
    with injected_faults(rules, seed=seed):
        for index in range(5):
            for tenant_id, world in worlds.items():
                model = world[3][index]
                for _ in range(10):
                    try:
                        fleet.enqueue(tenant_id, model, message=model.name)
                        break
                    except OSError:
                        continue  # not accepted: the client redelivers
                for _ in range(10):
                    try:
                        fleet.drain(tenant_id)
                        break
                    except OSError:
                        continue  # still pending: the next drain retries
                else:
                    raise AssertionError(f"{tenant_id} kept failing to drain")
    with injected_faults([]):
        assert fleet.fsck().healthy
        for tenant_id, world in worlds.items():
            restored = CIService.resume(fleet.tenant_dir(tenant_id), record=False)
            assert_parity(_fleet_reference(tenant_id, world), restored)

"""A fleet commit is written once: the intake record carries the model.

A submit with nothing queued ahead of it appends a *started* intake
submission — fsynced, the commit's only durable copy — and the tenant
journal's ``commit-received`` names that record instead of embedding the
model, flushed but not fsynced.  Enqueued and deferred submissions keep
the fsynced, model-carrying ``commit-received``.  Compaction keeps every
started submission until the oldest retained valid snapshot covers it,
and fsck reports a journal record naming an intake record that is gone.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, "tests/ci")
from test_restart_parity import assert_parity  # noqa: E402

from tests.fleet.conftest import reference_service, register_tenant  # noqa: E402

from repro.ci.persistence import SnapshotStore, scan_journal  # noqa: E402
from repro.ci.service import CIService  # noqa: E402
from repro.cli import main  # noqa: E402
from repro.exceptions import PersistenceError  # noqa: E402
from repro.fleet import scan_intake  # noqa: E402
from repro.reliability.faults import FaultRule, InjectedFault, injected_faults  # noqa: E402
from repro.reliability.fsck import fsck_state_dir  # noqa: E402


@pytest.fixture
def fsyncs(monkeypatch):
    calls = []
    real = os.fsync

    def counted(fd):
        calls.append(fd)
        real(fd)

    monkeypatch.setattr(os, "fsync", counted)
    return calls


def records(path, keep):
    """The parsed lines of a JSON-lines log that ``keep`` selects."""
    lines = [json.loads(line) for line in path.read_bytes().splitlines()]
    return [line for line in lines if keep(line)]


def commits(tenant_dir):
    return records(
        tenant_dir / "journal.jsonl", lambda r: r["type"] == "commit-received"
    )


def tree(root):
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_submit_fsyncs_once_and_the_journal_names_the_intake_record(
    make_fleet, small_world, fsyncs
):
    world = small_world(commits=2)
    fleet = make_fleet(sync=True, snapshot_every=100)
    register_tenant(fleet, "t", world)
    for index, model in enumerate(world[3]):
        fsyncs.clear()
        fleet.submit("t", model, message=f"c{index}")
        assert len(fsyncs) == 1
    directory = fleet.tenant_dir("t")
    submissions = records(
        directory / "intake.jsonl", lambda r: r["kind"] == "submission"
    )
    assert [s["payload"]["started"] for s in submissions] == [True, True]
    payloads = [record["payload"] for record in commits(directory)]
    assert [p["intake_sequence"] for p in payloads] == [
        s["sequence"] for s in submissions
    ]
    assert not any("model_pickle" in payload for payload in payloads)


def test_enqueued_queued_and_deferred_submissions_carry_their_model(
    make_fleet, small_world, fsyncs
):
    world = small_world(commits=4)
    models = world[3]
    fleet = make_fleet(sync=True, snapshot_every=100)
    register_tenant(fleet, "t", world)
    fleet.enqueue("t", models[0], message="c0")
    fleet.submit("t", models[1], message="c1")  # queued behind c0
    with injected_faults([FaultRule(site="fleet.process", action="raise", at=1)]):
        with pytest.raises(InjectedFault):
            fleet.submit("t", models[2], message="c2")
    directory = fleet.tenant_dir("t")
    deferred = records(directory / "intake.jsonl", lambda r: r["kind"] == "deferred")
    assert [r["repo_sequence"] for r in deferred] == [2]
    fsyncs.clear()
    fleet.drain("t")
    assert len(fsyncs) == 1  # the deferred entry's model-carrying commit-received
    fleet.submit("t", models[3], message="c3")
    payloads = [record["payload"] for record in commits(directory)]
    assert ["model_pickle" in p for p in payloads] == [True, True, True, False]
    assert_parity(reference_service("t", world), fleet.service("t"))


def test_a_failed_hydration_accepts_the_submission_unstarted(make_fleet, small_world):
    world = small_world(commits=2)
    fleet = make_fleet(snapshot_every=100)
    register_tenant(fleet, "t", world)
    fleet.close()  # evicted: the next submit hydrates
    with injected_faults([FaultRule(site="fleet.hydrate", action="raise", at=1)]):
        with pytest.raises(InjectedFault):
            fleet.submit("t", world[3][0], message="c0")
    directory = fleet.tenant_dir("t")
    (submission,) = records(
        directory / "intake.jsonl", lambda r: r["kind"] == "submission"
    )
    assert "started" not in submission["payload"]
    assert commits(directory) == []
    fleet.drain("t")
    fleet.submit("t", world[3][1], message="c1")
    payloads = [record["payload"] for record in commits(directory)]
    assert ["model_pickle" in p for p in payloads] == [True, False]
    assert_parity(reference_service("t", world), fleet.service("t"))


def test_started_submissions_stay_until_a_retained_snapshot_covers_them(
    make_fleet, small_world
):
    world = small_world(commits=12)
    fleet = make_fleet(max_resident=1, snapshot_every=2, keep_snapshots=2)
    register_tenant(fleet, "t", world)
    register_tenant(fleet, "u", small_world(commits=1, seed=1))
    directory = fleet.tenant_dir("t")
    for index, model in enumerate(world[3]):
        fleet.submit("t", model, message=f"c{index}")
        fleet.service("u")  # evict t: the next submit hydrates it
        covered = min(
            info.repository_length
            for info in SnapshotStore(directory / "snapshots").snapshots()
        )
        kept = {
            r["repo_sequence"]
            for r in records(
                directory / "intake.jsonl", lambda r: r["kind"] == "submission"
            )
        }
        assert set(range(covered, index + 1)) <= kept
        intake = scan_intake(directory / "intake.jsonl")
        for _, named in scan_journal(directory / "journal.jsonl").intake_references:
            assert named in intake.models
    assert len(kept) < len(world[3]) // 2  # covered ones were dropped
    assert_parity(reference_service("t", world), fleet.service("t"))


def test_a_tenant_dir_resumes_without_its_fleet(make_fleet, small_world):
    world = small_world(commits=6)
    fleet = make_fleet(snapshot_every=4)
    register_tenant(fleet, "t", world)
    for index, model in enumerate(world[3]):
        fleet.submit("t", model, message=f"c{index}")
    directory = fleet.tenant_dir("t")
    # Power loss drops the unsynced commit-received records past the
    # snapshot; the started intake submissions still replay.
    anchor = SnapshotStore(directory / "snapshots").latest_info().journal_sequence
    journal = directory / "journal.jsonl"
    kept = [
        line
        for line in journal.read_bytes().splitlines(keepends=True)
        if json.loads(line)["sequence"] <= anchor
    ]
    journal.write_bytes(b"".join(kept))
    restored = CIService.resume(directory, record=False)
    assert_parity(reference_service("t", world), restored)


@pytest.mark.parametrize("cut", [False, True])
def test_fsck_replay_depth_counts_started_intake_submissions(
    make_fleet, small_world, monkeypatch, cut
):
    world = small_world(commits=6)
    fleet = make_fleet(snapshot_every=4)
    register_tenant(fleet, "t", world)
    for index, model in enumerate(world[3]):
        fleet.submit("t", model, message=f"c{index}")
    directory = fleet.tenant_dir("t")
    journal = directory / "journal.jsonl"
    if cut:
        # Power loss cuts the journal at its last, unsynced
        # commit-received: that commit replays from the intake alone.
        lines = journal.read_bytes().splitlines(keepends=True)
        last = max(
            i for i, line in enumerate(lines)
            if json.loads(line)["type"] == "commit-received"
        )
        journal.write_bytes(b"".join(lines[:last]))
    # The commits past the snapshot replay from both logs; each counts once.
    anchor = SnapshotStore(directory / "snapshots").latest_info().journal_sequence
    journaled = [s for s in scan_journal(journal).commit_journal_sequences if s > anchor]
    assert len(journaled) == (1 if cut else 2)

    report = fsck_state_dir(directory)
    replayed = []
    replay = CIService._replay_journal

    def counted(self, *args):
        replayed.append(replay(self, *args))
        return replayed[-1]

    monkeypatch.setattr(CIService, "_replay_journal", counted)
    restored = CIService.resume(directory, record=False)
    assert report.restorable
    assert replayed == [report.replay_commits] == [2]
    assert_parity(reference_service("t", world), restored)


def test_intake_scan_started_excludes_deferred_submissions(make_fleet, small_world):
    world = small_world(commits=3)
    models = world[3]
    fleet = make_fleet(snapshot_every=100)
    register_tenant(fleet, "t", world)
    fleet.submit("t", models[0], message="c0")
    with injected_faults([FaultRule(site="fleet.process", action="raise", at=1)]):
        with pytest.raises(InjectedFault):
            fleet.submit("t", models[1], message="c1")
    fleet.drain("t")
    fleet.submit("t", models[2], message="c2")
    scan = scan_intake(fleet.tenant_dir("t") / "intake.jsonl")
    assert scan.started == {0, 2}
    intake = fleet._intake("t")
    assert {key for key in range(3) if intake.is_started(key)} == scan.started


def test_fsck_reports_a_journal_record_naming_a_gone_intake_record(
    make_fleet, small_world, capsys
):
    world = small_world(commits=3)
    fleet = make_fleet(snapshot_every=100)
    register_tenant(fleet, "t", world)
    register_tenant(fleet, "healthy", small_world(commits=1, seed=1))
    for index, model in enumerate(world[3]):
        fleet.submit("t", model, message=f"c{index}")
    fleet.close()
    directory = fleet.tenant_dir("t")
    intake = directory / "intake.jsonl"
    data = intake.read_bytes()
    intake.write_bytes(data[: data.rindex(b'{"crc"', 0, data.rindex(b'"submission"'))])

    report = fleet.fsck()
    assert not report.healthy
    damaged = {t.tenant_id: t for t in report.tenants}
    assert len(damaged["t"].state.dangling_references) == 1
    assert not damaged["healthy"].state.dangling_references
    assert "naming a record that is gone" in report.describe()

    before = tree(fleet.root)
    assert main(["fleet", str(fleet.root), "--fsck"]) == 2
    assert main(["ops", str(directory), "--fsck"]) == 2
    assert "intake record that is gone" in capsys.readouterr().out
    assert tree(fleet.root) == before
    with pytest.raises(PersistenceError, match="names intake record"):
        CIService.resume(directory, record=False)

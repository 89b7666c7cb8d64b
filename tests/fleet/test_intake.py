"""The durable intake queue: accept-then-never-lose, byte for byte.

The queue lives in the tenant journal, so it gets the journal's contract:
CRC'd records, torn-tail healing with a quarantined sidecar, strict
corruption on non-trailing damage, and idempotent state across reopen
and compaction.
"""

import json

import pytest

from repro.ci.persistence import SNAPSHOT, EventJournal, scan_journal
from repro.exceptions import PersistenceError, UnknownTenantError
from repro.fleet import CIFleet, IntakeQueue
from repro.ml.models.base import FixedPredictionModel
from repro.reliability.events import reliability_events
from repro.reliability.faults import FaultRule, InjectedFault, injected_faults

import numpy as np


def model(tag):
    return FixedPredictionModel(np.array([0, 1, 1, 0]), name=tag)


def open_queue(path):
    return IntakeQueue(EventJournal(path, sync=False))


@pytest.fixture
def queue(tmp_path):
    return open_queue(tmp_path / "journal.jsonl")


class TestLifecycle:
    def test_create_writes_genesis_cursor(self, tmp_path):
        # The genesis is the registration snapshot's journal record: it
        # carries the repository length the first submission takes.
        journal = EventJournal(tmp_path / "journal.jsonl", sync=False)
        journal.append(SNAPSHOT, {"snapshot_sequence": 1, "repository_length": 7})
        queue = open_queue(journal.path)
        assert queue.next_repo_sequence == 7
        assert queue.pending_count == 0
        assert list(queue.records()) == []
        assert queue.append(model("a")).repo_sequence == 7

    def test_open_requires_existing_file(self, tmp_path):
        fleet = CIFleet(tmp_path / "fleet", sync=False)
        with pytest.raises(UnknownTenantError, match="no tenant"):
            fleet.enqueue("missing", model("a"))

    def test_append_assigns_consecutive_repo_sequences(self, queue):
        first = queue.append(model("a"), message="one", author="dev")
        second = queue.append(model("b"))
        assert (first.repo_sequence, second.repo_sequence) == (0, 1)
        assert queue.next_repo_sequence == 2
        assert [r.repo_sequence for r in queue.pending()] == [0, 1]
        restored = first.model()
        assert restored.name == "a"
        assert first.payload["message"] == "one"
        assert first.payload["author"] == "dev"

    def test_ack_retires_pending(self, queue):
        queue.append(model("a"))
        queue.append(model("b"))
        queue.ack(0)
        assert [r.repo_sequence for r in queue.pending()] == [1]
        assert [r.kind for r in queue.records()] == ["submission", "submission", "ack"]

    def test_reopen_restores_exact_state(self, queue):
        queue.append(model("a"), message="m0")
        queue.append(model("b"), message="m1")
        queue.ack(0)
        reopened = open_queue(queue.path)
        assert reopened.next_repo_sequence == queue.next_repo_sequence
        assert reopened.pending_count == 1
        entry = reopened.pending()[0]
        assert entry.repo_sequence == 1
        assert entry.payload["message"] == "m1"
        assert entry.model().name == "b"


class TestCompaction:
    def test_compact_drops_acked_keeps_pending(self, queue):
        for tag in "abcd":
            queue.append(model(tag))
        queue.ack(0)
        queue.ack(1)
        # A snapshot holding the first two commits covers their records.
        journal = queue.journal
        dropped = journal.compact(journal.last_sequence, repository_length=2)
        assert dropped == 4  # two submissions and their acks
        assert queue.pending_count == 2
        assert queue.next_repo_sequence == 4
        # On disk: the pending submissions with their original identities.
        records = list(queue.records())
        assert [r.kind for r in records] == ["submission", "submission"]
        assert [r.repo_sequence for r in records] == [2, 3]
        assert [r.sequence for r in records] == [3, 4]

    def test_reopen_after_compact_is_identical(self, queue):
        for tag in "abc":
            queue.append(model(tag))
        queue.ack(0)
        queue.journal.compact(queue.journal.last_sequence, repository_length=1)
        reopened = open_queue(queue.path)
        assert reopened.next_repo_sequence == 3
        assert [r.repo_sequence for r in reopened.pending()] == [1, 2]
        # Appending after reopen continues the sequence without collision.
        assert reopened.append(model("d")).repo_sequence == 3

    def test_compact_empty_queue_leaves_cursor_only(self, queue):
        queue.append(model("a"))
        queue.ack(0)
        queue.journal.compact(queue.journal.last_sequence, repository_length=1)
        # The compaction header keeps the next repository sequence.
        assert list(queue.records()) == []
        assert open_queue(queue.path).next_repo_sequence == 1


class TestCrashArtifacts:
    def test_torn_tail_is_quarantined_and_truncated(self, queue):
        queue.append(model("a"))
        with open(queue.path, "ab") as handle:
            handle.write(b'{"kind": "submission", "torn...')
        reopened = open_queue(queue.path)
        assert reopened.pending_count == 1  # the torn append never happened
        sidecars = list(queue.path.parent.glob("*.quarantined"))
        assert len(sidecars) == 1
        assert sidecars[0].read_bytes() == b'{"kind": "submission", "torn...'
        assert any(
            e.kind == "journal-torn-tail" for e in reliability_events()
        )

    def test_injected_append_tear_is_not_accepted(self, queue):
        queue.append(model("a"))
        with injected_faults(
            [FaultRule(site="intake.append", action="tear", at=1, tear_at=10)]
        ):
            with pytest.raises(InjectedFault):
                queue.append(model("b"))
        reopened = open_queue(queue.path)
        assert reopened.pending_count == 1
        assert reopened.next_repo_sequence == 1
        assert reopened.append(model("b2")).repo_sequence == 1

    def test_midfile_corruption_raises_on_read(self, queue):
        queue.append(model("a"))
        queue.append(model("b"))
        lines = queue.path.read_text(encoding="utf-8").splitlines()
        lines[0] = lines[0][:-5] + "XXXXX"  # damage a non-trailing record
        queue.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        fresh = open_queue(queue.path)
        with pytest.raises(PersistenceError, match="non-trailing"):
            list(fresh.records())

    def test_crc_rejects_bitflip(self, queue):
        queue.append(model("a"))
        raw = queue.path.read_text(encoding="utf-8").splitlines()
        record = json.loads(raw[-1])
        record["payload"]["sequence"] = 99  # tamper without recomputing the CRC
        raw[-1] = json.dumps(record, sort_keys=True)
        queue.path.write_text("\n".join(raw) + "\n", encoding="utf-8")
        # The tampered line is trailing, so it heals as a torn tail.
        reopened = open_queue(queue.path)
        assert reopened.pending_count == 0


class TestScan:
    def test_scan_missing_file(self, tmp_path):
        scan = scan_journal(tmp_path / "nope.jsonl")
        assert not scan.exists
        assert scan.records == 0

    def test_scan_classifies_without_mutating(self, queue):
        for tag in "abc":
            queue.append(model(tag))
        queue.ack(0)
        with open(queue.path, "ab") as handle:
            handle.write(b"torn-garbage")
        before = queue.path.read_bytes()
        scan = scan_journal(queue.path)
        assert queue.path.read_bytes() == before  # strictly read-only
        assert (scan.records, scan.pending) == (4, 2)
        assert scan.torn_tail_bytes == len(b"torn-garbage")
        assert scan.corrupt_lines == ()

    def test_scan_reports_midfile_corruption(self, queue):
        queue.append(model("a"))
        queue.append(model("b"))
        lines = queue.path.read_text(encoding="utf-8").splitlines()
        lines[0] = "garbage-line"
        queue.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        scan = scan_journal(queue.path)
        assert scan.corrupt_lines == (1,)

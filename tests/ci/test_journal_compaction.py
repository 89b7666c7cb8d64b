"""Checkpoint-truncate journal compaction: bounded disk, identical replay.

The storage-governance tentpole's journal half.  ``EventJournal.compact``
drops every record a snapshot already captures behind a
``compacted-through`` header; these tests pin down the rewrite's
crash-safety, its idempotence, the reader/fsck contract for compacted
journals, and — the acceptance gate — that a run under *aggressive*
compaction (``snapshot_every=1``, ``keep_snapshots=1``) restarted at
every single commit boundary restores element-wise identical to the
uninterrupted run in all three adaptivity modes.

Also here: the self-healing-append regression — a failed fsync used to
leave a fully-written (valid-looking) line on disk for an event the
caller was told never happened; a later append would then mint a
duplicate sequence.
"""

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

from repro.ci.persistence import (  # noqa: E402
    COMPACTION,
    EventJournal,
    scan_journal,
)
from repro.ci.service import CIService  # noqa: E402
from repro.exceptions import PersistenceError  # noqa: E402
from repro.reliability.events import reliability_events  # noqa: E402
from repro.reliability.faults import FaultRule, injected_faults  # noqa: E402
from repro.reliability.fsck import fsck_state_dir  # noqa: E402
from repro.reliability.storage import maintain_state_dir  # noqa: E402


def make_journal(tmp_path, events=0):
    journal = EventJournal(tmp_path / "journal.jsonl", sync=False)
    for i in range(events):
        journal.append("commit-received", {"sequence": i})
    return journal


# ---------------------------------------------------------------------------
# compact(): the rewrite itself
# ---------------------------------------------------------------------------

class TestCompact:
    def test_drops_prefix_and_keeps_survivors_with_original_sequences(
        self, tmp_path
    ):
        journal = make_journal(tmp_path, events=5)
        assert journal.compact(3) == 3
        records = list(journal.records())
        assert [r.sequence for r in records] == [3, 4, 5]
        assert records[0].type == COMPACTION
        assert records[0].payload == {"compacted_through": 3, "dropped": 3}
        assert journal.compacted_through == 3
        assert reliability_events("journal-compacted")

    def test_append_after_compaction_continues_the_sequence(self, tmp_path):
        journal = make_journal(tmp_path, events=5)
        journal.compact(3)
        record = journal.append("commit-received", {"sequence": 5})
        assert record.sequence == 6
        assert journal.last_sequence == 6

    def test_reopen_resumes_counter_and_boundary(self, tmp_path):
        journal = make_journal(tmp_path, events=5)
        journal.compact(4)
        journal.close()
        reopened = EventJournal(tmp_path / "journal.jsonl", sync=False)
        assert reopened.last_sequence == 5
        assert reopened.compacted_through == 4
        assert reopened.append("commit-received", {"sequence": 5}).sequence == 6

    def test_double_compaction_is_idempotent(self, tmp_path):
        journal = make_journal(tmp_path, events=5)
        assert journal.compact(3) == 3
        before = journal.path.read_bytes()
        assert journal.compact(3) == 0
        assert journal.compact(2) == 0
        assert journal.path.read_bytes() == before

    def test_recompaction_accumulates_dropped_count(self, tmp_path):
        journal = make_journal(tmp_path, events=5)
        journal.compact(2)
        journal.compact(5)  # drops the old header plus records 3..5
        (header,) = list(journal.records())
        assert header.type == COMPACTION
        assert header.payload == {"compacted_through": 5, "dropped": 6}

    def test_compacting_past_the_newest_record_raises(self, tmp_path):
        journal = make_journal(tmp_path, events=2)
        with pytest.raises(PersistenceError, match="cannot compact"):
            journal.compact(3)

    def test_compaction_shrinks_the_file(self, tmp_path):
        journal = make_journal(tmp_path, events=50)
        before = journal.path.stat().st_size
        journal.compact(49)
        assert journal.path.stat().st_size < before / 2

    def test_records_of_after_compaction_sees_only_survivors(self, tmp_path):
        journal = make_journal(tmp_path, events=4)
        journal.append("snapshot", {"snapshot_sequence": 1})
        journal.compact(4)
        assert [r.payload for r in journal.records_of("commit-received")] == []
        assert len(list(journal.records_of("snapshot"))) == 1
        journal.append("commit-received", {"sequence": 4})
        assert [
            r.payload["sequence"] for r in journal.records_of("commit-received")
        ] == [4]


# ---------------------------------------------------------------------------
# Edge cases: empty and header-only journals
# ---------------------------------------------------------------------------

class TestEdgeCases:
    def test_empty_journal_compaction_is_a_no_op(self, tmp_path):
        journal = make_journal(tmp_path, events=0)
        assert journal.compact(0) == 0
        assert journal.compacted_through == 0
        with pytest.raises(PersistenceError, match="cannot compact"):
            journal.compact(1)

    def test_empty_journal_scan_reports_no_compaction(self, tmp_path):
        make_journal(tmp_path, events=0)
        scan = scan_journal(tmp_path / "journal.jsonl")
        assert scan.compacted_through == 0
        assert scan.records == 0

    def test_header_only_journal_roundtrips(self, tmp_path):
        journal = make_journal(tmp_path, events=3)
        journal.compact(3)  # every record dropped: only the header remains
        journal.close()
        reopened = EventJournal(tmp_path / "journal.jsonl", sync=False)
        assert len(list(reopened.records())) == 1
        assert reopened.last_sequence == 3
        assert reopened.compacted_through == 3
        assert list(reopened.records_of("commit-received")) == []
        assert reopened.append("commit-received", {"sequence": 3}).sequence == 4

    def test_header_only_journal_scan(self, tmp_path):
        journal = make_journal(tmp_path, events=3)
        journal.compact(3)
        scan = scan_journal(journal.path)
        assert scan.records == 1
        assert scan.last_sequence == 3
        assert scan.compacted_through == 3
        assert scan.commit_sequences == ()
        assert not scan.corrupt_lines
        assert scan.torn_tail_bytes == 0


# ---------------------------------------------------------------------------
# The self-healing append (satellite bugfix)
# ---------------------------------------------------------------------------

class TestFailedAppendSelfHeals:
    def test_fsync_failure_then_successful_append_mints_no_duplicate(
        self, tmp_path
    ):
        journal = make_journal(tmp_path, events=1)
        rule = FaultRule(site="journal.fsync", action="raise", at=1)
        with injected_faults([rule]):
            with pytest.raises(Exception):
                journal.append("commit-received", {"sequence": 1})
        # The failed append healed eagerly: its (fully written, CRC-valid)
        # line was truncated away, so the retry reuses the sequence
        # instead of minting a duplicate line for sequence 2.
        record = journal.append("commit-received", {"sequence": 1})
        assert record.sequence == 2
        sequences = [r.sequence for r in journal.records()]
        assert sequences == [1, 2]
        assert len(sequences) == len(set(sequences))

    def test_heal_quarantines_the_failed_bytes(self, tmp_path):
        journal = make_journal(tmp_path, events=1)
        rule = FaultRule(site="journal.fsync", action="raise", at=1)
        with injected_faults([rule]):
            with pytest.raises(Exception):
                journal.append("commit-received", {"sequence": 1})
        sidecars = list(tmp_path.glob("journal.jsonl.torn-*.quarantined*"))
        assert len(sidecars) == 1
        assert sidecars[0].stat().st_size > 0
        assert reliability_events("journal-torn-tail")

    def test_reopen_after_failed_append_sees_a_clean_journal(self, tmp_path):
        journal = make_journal(tmp_path, events=2)
        rule = FaultRule(site="journal.fsync", action="raise", at=1)
        with injected_faults([rule]):
            with pytest.raises(Exception):
                journal.append("commit-received", {"sequence": 2})
        journal.close()
        reopened = EventJournal(tmp_path / "journal.jsonl", sync=False)
        assert reopened.last_sequence == 2
        scan = scan_journal(tmp_path / "journal.jsonl")
        assert not scan.corrupt_lines
        assert scan.torn_tail_bytes == 0


# ---------------------------------------------------------------------------
# fsck on compacted directories
# ---------------------------------------------------------------------------

def make_compacted_state_dir(tmp_path):
    """A real service run whose snapshots pruned and journal compacted."""
    script = make_script("full")
    testsets, baseline, models = make_world(script, commits=6)
    service = make_service(script, testsets, baseline)
    service.persist_to(
        tmp_path / "state", snapshot_every=2, keep_snapshots=2, sync=False
    )
    for model in models[:6]:
        service.repository.commit(model, message=model.name)
    return tmp_path / "state", service


class TestFsckOnCompactedDirs:
    def test_compacted_dir_is_restorable(self, tmp_path):
        state_dir, service = make_compacted_state_dir(tmp_path)
        assert service._state_store.journal.compacted_through > 0
        report = fsck_state_dir(state_dir)
        assert report.restorable
        assert report.journal.compacted_through > 0
        assert "compacted through seq" in report.describe()

    def test_fsck_is_read_only_on_compacted_dirs(self, tmp_path):
        state_dir, _service = make_compacted_state_dir(tmp_path)
        before = (state_dir / "journal.jsonl").read_bytes()
        fsck_state_dir(state_dir)
        assert (state_dir / "journal.jsonl").read_bytes() == before

    def test_journal_compacted_past_every_snapshot_is_unrestorable(
        self, tmp_path
    ):
        state_dir, service = make_compacted_state_dir(tmp_path)
        # Simulate the corruption fsck exists to catch: compact beyond the
        # newest snapshot's anchor, leaving an unreplayable gap.
        service._state_store.journal.compact(service._state_store.journal.last_sequence)
        anchor = service._state_store.snapshots.latest_info().journal_sequence
        assert service._state_store.journal.compacted_through > anchor
        report = fsck_state_dir(state_dir)
        assert not report.restorable

    def test_maintain_state_dir_offline_matches_fsck(self, tmp_path):
        # The fleet's cold-tenant reclamation path: prune + compact a dir
        # nobody has resident, then verify it still restores.
        script = make_script("full")
        testsets, baseline, models = make_world(script, commits=4)
        service = make_service(script, testsets, baseline)
        service.persist_to(
            tmp_path / "state", snapshot_every=1, keep_snapshots=None, sync=False
        )
        for model in models[:4]:
            service.repository.commit(model, message=model.name)
        service._state_store.journal.close()
        report = maintain_state_dir(tmp_path / "state", keep=2, sync=False)
        assert report.pruned_snapshots > 0
        assert report.dropped_records > 0
        assert report.bytes_after < report.bytes_before
        assert fsck_state_dir(tmp_path / "state").restorable


# ---------------------------------------------------------------------------
# Retention on the snapshot cadence (satellite: prune wired into persist_to)
# ---------------------------------------------------------------------------

class TestRetentionCadence:
    def test_keep_snapshots_bounds_generations_on_disk(self, tmp_path):
        script = make_script("full")
        testsets, baseline, models = make_world(script, commits=8)
        service = make_service(script, testsets, baseline)
        service.persist_to(
            tmp_path / "state", snapshot_every=1, keep_snapshots=3, sync=False
        )
        for model in models[:8]:
            service.repository.commit(model, message=model.name)
        on_disk = list((tmp_path / "state" / "snapshots").glob("snapshot-*.pkl"))
        assert len(on_disk) == 3
        assert service._state_store.journal.compacted_through > 0

    def test_prune_never_removes_the_newest_valid_snapshot(self, tmp_path):
        script = make_script("full")
        testsets, baseline, models = make_world(script, commits=3)
        service = make_service(script, testsets, baseline)
        service.persist_to(
            tmp_path / "state", snapshot_every=1, keep_snapshots=1, sync=False
        )
        for model in models[:3]:
            service.repository.commit(model, message=model.name)
        newest = service._state_store.snapshots.latest_info()
        assert newest is not None and newest.path.exists()
        restored = CIService.resume(tmp_path / "state", record=False)
        assert len(restored.repository) == 3

    def test_retention_off_keeps_every_generation(self, tmp_path):
        script = make_script("full")
        testsets, baseline, models = make_world(script, commits=4)
        service = make_service(script, testsets, baseline)
        service.persist_to(
            tmp_path / "state", snapshot_every=1, keep_snapshots=None, sync=False
        )
        for model in models[:4]:
            service.repository.commit(model, message=model.name)
        on_disk = list((tmp_path / "state" / "snapshots").glob("snapshot-*.pkl"))
        assert len(on_disk) == 5  # the initial snapshot plus one per commit
        assert service._state_store.journal.compacted_through == 0


# ---------------------------------------------------------------------------
# The acceptance gate: aggressive compaction + restart at every boundary
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("adaptivity", ADAPTIVITY_MODES)
def test_aggressive_compaction_restarts_restore_identically(
    adaptivity, tmp_path
):
    """snapshot_every=1, keep_snapshots=1, restart after *every* commit.

    Every snapshot prunes down to a single generation and compacts the
    journal through its anchor, and the service is abandoned and resumed
    from disk at every commit boundary — the harshest cadence the
    retention knobs allow.  Results must be element-wise identical to
    the uninterrupted, never-persisted run.
    """
    script = make_script(adaptivity)
    testsets, baseline, models = make_world(script)
    reference = run_reference(script, testsets, baseline, models)

    state_dir = tmp_path / "state"
    service = make_service(script, testsets, baseline)
    service.persist_to(
        state_dir, snapshot_every=1, keep_snapshots=1, sync=False
    )
    journal_sizes = []
    for model in models:
        service.repository.commit(model, message=model.name)
        journal_sizes.append((state_dir / "journal.jsonl").stat().st_size)
        service = CIService.resume(
            state_dir, snapshot_every=1, keep_snapshots=1
        )
    assert_parity(reference, service)
    # Aggressive retention keeps exactly one generation on disk, and the
    # compacted journal never grows with the commit count.
    on_disk = list((state_dir / "snapshots").glob("snapshot-*.pkl"))
    assert len(on_disk) == 1
    assert max(journal_sizes) <= 2 * min(journal_sizes)

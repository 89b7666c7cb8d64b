"""Corruption tolerance: checksums, quarantine, fallback, the doctor.

Snapshots and journal lines carry CRCs; damage is detected at read time,
the damaged generation is quarantined (renamed aside — never deleted),
and restore falls back to an older snapshot with a longer journal
replay.  ``fsck_state_dir`` classifies all of it without mutating a
byte.
"""

import os
import pickle

import pytest

from repro.ci.persistence import (
    EventJournal,
    SnapshotStore,
    scan_journal,
)
from repro.exceptions import PersistenceError, SnapshotCorruptError
from repro.reliability.events import reliability_events
from repro.reliability.faults import FaultRule, InjectedFault, injected_faults
from repro.reliability.fsck import fsck_state_dir


def truncate(path, keep=80):
    path.write_bytes(path.read_bytes()[:keep])


def dir_fingerprint(directory):
    """(name, size, mtime_ns) of every file under ``directory``."""
    entries = []
    for root, _, names in os.walk(directory):
        for name in sorted(names):
            path = os.path.join(root, name)
            stat = os.stat(path)
            entries.append(
                (os.path.relpath(path, directory), stat.st_size, stat.st_mtime_ns)
            )
    return sorted(entries)


class TestSnapshotChecksums:
    def test_truncated_snapshot_raises_corrupt(self, tmp_path):
        store = SnapshotStore(tmp_path)
        info = store.save({"state": 1})
        truncate(info.path)
        assert not store.verify(info.sequence)
        with pytest.raises(SnapshotCorruptError):
            store.load(info.sequence)

    def test_bit_rot_fails_the_checksum(self, tmp_path):
        # Flip one byte deep in the payload: the envelope still unpickles
        # (same length, same structure) but the CRC must catch it.
        store = SnapshotStore(tmp_path)
        info = store.save({"state": list(range(100))})
        raw = bytearray(info.path.read_bytes())
        raw[-40] ^= 0xFF
        info.path.write_bytes(bytes(raw))
        with pytest.raises(PersistenceError):
            store.load(info.sequence)

    def test_injected_tear_is_silent_at_write_time(self, tmp_path):
        # The tear lands at the final path and save() reports success —
        # exactly the failure a checksum exists to catch later.
        store = SnapshotStore(tmp_path)
        with injected_faults(
            [FaultRule(site="snapshot.write", action="tear", at=1, tear_at=60)]
        ):
            info = store.save({"state": 1})
        assert info.path.exists()
        assert not store.verify(info.sequence)

    def test_fsync_failure_leaves_no_final_file(self, tmp_path):
        store = SnapshotStore(tmp_path)
        with injected_faults(
            [FaultRule(site="snapshot.fsync", action="raise", at=1)]
        ):
            with pytest.raises(InjectedFault):
                store.save({"state": 1})
        assert store.latest_sequence == 0
        assert store.load_latest() is None


class TestQuarantineAndFallback:
    def make_store(self, tmp_path, generations=3):
        store = SnapshotStore(tmp_path)
        for number in range(1, generations + 1):
            store.save({"generation": number}, journal_sequence=number * 10)
        return store

    def test_load_latest_falls_back_past_corruption(self, tmp_path):
        store = self.make_store(tmp_path)
        truncate(tmp_path / "snapshot-000003.pkl")
        payload, info = store.load_latest()
        assert payload == {"generation": 2}
        assert info.journal_sequence == 20  # replay extends from here
        fallbacks = reliability_events("snapshot-fallback")
        assert fallbacks and fallbacks[-1].detail["skipped_snapshots"] == 1

    def test_corrupt_file_is_quarantined_not_deleted(self, tmp_path):
        store = self.make_store(tmp_path)
        damaged = tmp_path / "snapshot-000003.pkl"
        original_bytes = damaged.read_bytes()[:80]
        truncate(damaged)
        store.load_latest()
        assert not damaged.exists()
        quarantined = store.quarantined()
        assert [p.name for p in quarantined] == ["snapshot-000003.pkl.quarantined"]
        assert quarantined[0].read_bytes() == original_bytes
        assert reliability_events("snapshot-quarantined")

    def test_read_only_mode_skips_in_place(self, tmp_path):
        store = self.make_store(tmp_path)
        truncate(tmp_path / "snapshot-000003.pkl")
        before = dir_fingerprint(tmp_path)
        payload, _ = store.load_latest(quarantine=False)
        assert payload == {"generation": 2}
        assert dir_fingerprint(tmp_path) == before
        assert reliability_events("snapshot-skipped")
        assert not store.quarantined()

    def test_every_snapshot_corrupt_means_none(self, tmp_path):
        store = self.make_store(tmp_path, generations=2)
        truncate(tmp_path / "snapshot-000001.pkl")
        truncate(tmp_path / "snapshot-000002.pkl")
        assert store.load_latest() is None
        assert len(store.quarantined()) == 2

    def test_latest_info_skips_corrupt_generations(self, tmp_path):
        store = self.make_store(tmp_path)
        truncate(tmp_path / "snapshot-000003.pkl")
        fresh = SnapshotStore(tmp_path)  # cold metadata cache
        info = fresh.latest_info()
        assert info is not None and info.sequence == 2


class TestPruneSafety:
    def test_prune_never_removes_the_newest_valid_snapshot(self, tmp_path):
        store = SnapshotStore(tmp_path)
        for number in range(1, 4):
            store.save({"generation": number})
        truncate(tmp_path / "snapshot-000003.pkl")
        removed = store.prune(keep=1)
        # Generation 2 is the newest *valid* one: it must survive; the
        # corrupt newest file is not prune's to touch either.
        assert [p.name for p in removed] == ["snapshot-000001.pkl"]
        assert (tmp_path / "snapshot-000002.pkl").exists()
        assert (tmp_path / "snapshot-000003.pkl").exists()
        assert store.load_latest(quarantine=False)[0] == {"generation": 2}


class TestJournalIntegrity:
    def fill(self, tmp_path, events=4):
        journal = EventJournal(tmp_path / "journal.jsonl", sync=False)
        for number in range(events):
            journal.append("snapshot", {"snapshot_sequence": number})
        return journal

    def test_lines_carry_crcs(self, tmp_path):
        journal = self.fill(tmp_path)
        for line in journal.path.read_text().splitlines():
            assert '"crc":' in line

    def test_flipped_byte_in_middle_line_raises(self, tmp_path):
        journal = self.fill(tmp_path)
        lines = journal.path.read_text().splitlines()
        # Corrupt a digit inside line 2's payload without breaking JSON.
        lines[1] = lines[1].replace('"snapshot_sequence": 1', '"snapshot_sequence": 7')
        journal.path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(PersistenceError, match="corrupt"):
            list(EventJournal(journal.path, sync=False).records())

    def test_injected_tear_loses_only_the_in_flight_append(self, tmp_path):
        journal = self.fill(tmp_path, events=2)
        with injected_faults(
            [FaultRule(site="journal.append", action="tear", at=1, tear_at=25)]
        ):
            with pytest.raises(InjectedFault, match="torn"):
                journal.append("snapshot", {"snapshot_sequence": 99})
        assert journal.last_sequence == 2  # the torn append never happened
        reopened = EventJournal(journal.path, sync=False)
        assert reopened.last_sequence == 2
        assert len(list(reopened.records())) == 2
        sidecars = list(journal.path.parent.glob("*.torn-*.quarantined"))
        assert len(sidecars) == 1 and len(sidecars[0].read_bytes()) == 25
        assert reliability_events("journal-torn-tail")

    def test_injected_fsync_failure_raises(self, tmp_path):
        journal = self.fill(tmp_path, events=1)
        with injected_faults(
            [FaultRule(site="journal.fsync", action="raise", at=1)]
        ):
            with pytest.raises(InjectedFault):
                journal.append("snapshot", {})
        assert journal.last_sequence == 1

    def test_scan_journal_is_read_only(self, tmp_path):
        journal = self.fill(tmp_path)
        with open(journal.path, "ab") as handle:
            handle.write(b'{"torn')
        before = dir_fingerprint(tmp_path)
        scan = scan_journal(journal.path)
        assert dir_fingerprint(tmp_path) == before
        assert scan.records == 4
        assert scan.torn_tail_bytes == len(b'{"torn')
        assert scan.corrupt_lines == ()


class TestFsck:
    def make_state_dir(self, tmp_path):
        state = tmp_path / "state"
        store = SnapshotStore(state / "snapshots")
        journal = EventJournal(state / "journal.jsonl", sync=False)
        for number in range(1, 4):
            store.save(
                {"generation": number},
                journal_sequence=journal.last_sequence,
                repository_length=number - 1,
            )
            journal.append("snapshot", {"snapshot_sequence": number})
            journal.append(
                "commit-received", {"sequence": number - 1, "model_pickle": ""}
            )
        return state

    def test_missing_directory_reports_cleanly(self, tmp_path):
        report = fsck_state_dir(tmp_path / "nope")
        assert not report.exists and not report.restorable
        assert "does not exist" in report.describe()

    def test_healthy_directory(self, tmp_path):
        report = fsck_state_dir(self.make_state_dir(tmp_path))
        assert report.restorable and report.restore_sequence == 3
        assert [s.status for s in report.snapshots] == ["valid"] * 3
        # Snapshot 3 anchors at journal seq 4; one commit record follows.
        assert report.replay_commits == 1
        assert report.replay_events == 2

    def test_corrupt_snapshot_classified_and_replay_extends(self, tmp_path):
        state = self.make_state_dir(tmp_path)
        truncate(state / "snapshots" / "snapshot-000003.pkl")
        report = fsck_state_dir(state)
        assert [s.status for s in report.snapshots] == [
            "valid",
            "valid",
            "corrupt",
        ]
        assert report.restorable and report.restore_sequence == 2
        assert report.replay_commits == 2  # anchor moved one generation back
        assert "corrupt" in report.describe()

    def test_fsck_never_mutates(self, tmp_path):
        state = self.make_state_dir(tmp_path)
        truncate(state / "snapshots" / "snapshot-000003.pkl")
        with open(state / "journal.jsonl", "ab") as handle:
            handle.write(b'{"torn')
        before = dir_fingerprint(state)
        first = fsck_state_dir(state)
        second = fsck_state_dir(state)
        assert dir_fingerprint(state) == before
        assert first == second
        assert first.journal.torn_tail_bytes > 0

    def test_quarantined_files_are_reported(self, tmp_path):
        state = self.make_state_dir(tmp_path)
        truncate(state / "snapshots" / "snapshot-000003.pkl")
        SnapshotStore(state / "snapshots").load_latest()  # quarantines
        report = fsck_state_dir(state)
        assert [p.name for p in report.quarantined] == [
            "snapshot-000003.pkl.quarantined"
        ]
        assert "quarantined   : 1 file(s)" in report.describe()

    def test_nothing_restorable(self, tmp_path):
        state = self.make_state_dir(tmp_path)
        for path in (state / "snapshots").glob("*.pkl"):
            truncate(path)
        report = fsck_state_dir(state)
        assert not report.restorable
        assert report.replay_commits == 0 and report.replay_events == 0
        assert "IMPOSSIBLE" in report.describe()

    def test_unsupported_version_is_distinguished(self, tmp_path):
        state = self.make_state_dir(tmp_path)
        path = state / "snapshots" / "snapshot-000003.pkl"
        path.write_bytes(
            pickle.dumps({"format_version": 99, "sequence": 3, "payload_pickle": b""})
        )
        report = fsck_state_dir(state)
        assert report.snapshots[-1].status == "unsupported-version"
        assert report.restore_sequence == 2

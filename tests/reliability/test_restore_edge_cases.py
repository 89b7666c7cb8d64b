"""Restore edge cases: missing pieces, gaps, and inspecting damaged dirs.

The corners of the recovery matrix: a state directory missing its
snapshots, missing its journal, holding quarantined wreckage, or holding
a journal that no longer lines up with any snapshot — each must fail
loudly or restore exactly, never limp into a half-restored service.
"""

import json
import shutil
import sys

import pytest

sys.path.insert(0, "tests/ci")
from test_restart_parity import (  # noqa: E402
    assert_parity,
    finish_queue,
    make_script,
    make_service,
    make_world,
    run_persisted,
    run_reference,
)

from repro.ci.service import CIService  # noqa: E402
from repro.cli import main  # noqa: E402
from repro.exceptions import PersistenceError  # noqa: E402


@pytest.fixture(scope="module")
def world():
    script = make_script("full")
    testsets, baseline, models = make_world(script)
    return script, testsets, baseline, models


def persisted_state(world, tmp_path, **kwargs):
    script, testsets, baseline, models = world
    run_persisted(script, testsets, baseline, models, tmp_path / "state", **kwargs)
    return tmp_path / "state"


def truncate(path, keep=80):
    path.write_bytes(path.read_bytes()[:keep])


class TestMissingPieces:
    def test_missing_snapshot_dir_fails_loudly(self, world, tmp_path):
        state = persisted_state(world, tmp_path)
        shutil.rmtree(state / "snapshots")
        with pytest.raises(PersistenceError, match="no snapshot to restore"):
            CIService.resume(state)

    def test_snapshot_only_restore_without_a_journal(self, world, tmp_path):
        # A deleted journal is lost history, not an error: the service
        # restores to exactly the snapshot and continues from there.
        script, testsets, baseline, models = world
        state = persisted_state(world, tmp_path)
        reference = run_reference(script, testsets, baseline, models)
        (state / "journal.jsonl").unlink()
        restored = CIService.resume(state)
        assert len(restored.builds) == 0  # only the initial snapshot existed
        finish_queue(restored, models)
        assert_parity(reference, restored)

    def test_all_snapshots_corrupt_fails_loudly(self, world, tmp_path):
        state = persisted_state(world, tmp_path)
        for path in (state / "snapshots").glob("*.pkl"):
            truncate(path)
        with pytest.raises(PersistenceError, match="no snapshot to restore"):
            CIService.resume(state)


class TestJournalGapDetection:
    def test_missing_commit_record_is_reported_as_misalignment(
        self, world, tmp_path
    ):
        # Delete one mid-tail commit-received record: replay hits a hole
        # in the sequence run and must refuse with the gap message rather
        # than rebuild a history with a silently different lineage.
        state = persisted_state(world, tmp_path)
        journal = state / "journal.jsonl"
        lines = journal.read_text().splitlines()
        commit_lines = [
            number
            for number, line in enumerate(lines)
            if json.loads(line)["type"] == "commit-received"
        ]
        del lines[commit_lines[2]]
        journal.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(
            PersistenceError, match="journal does not line up with the snapshot"
        ):
            CIService.resume(state)

    def test_gap_detection_survives_a_snapshot_fallback(self, world, tmp_path):
        # Falling back past a corrupt snapshot extends the replay window;
        # a hole in that extended window must still be caught.
        state = persisted_state(world, tmp_path, snapshot_every=3)
        snapshots = sorted((state / "snapshots").glob("*.pkl"))
        assert len(snapshots) > 1
        truncate(snapshots[-1])
        journal = state / "journal.jsonl"
        lines = journal.read_text().splitlines()
        commit_lines = [
            number
            for number, line in enumerate(lines)
            if json.loads(line)["type"] == "commit-received"
        ]
        del lines[commit_lines[-2]]
        journal.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(
            PersistenceError, match="journal does not line up with the snapshot"
        ):
            CIService.resume(state)


class TestInspectingDamagedDirs:
    def test_repro_ops_on_a_quarantined_state_dir(self, world, tmp_path, capsys):
        # Corrupt the newest snapshot, let a real restore quarantine it,
        # then inspect: `repro ops` must restore from the fallback
        # generation and report the quarantined file — without renaming,
        # truncating or journaling anything further.
        script, testsets, baseline, models = world
        state = persisted_state(world, tmp_path, snapshot_every=3)
        snapshots = sorted((state / "snapshots").glob("*.pkl"))
        truncate(snapshots[-1])
        restored = CIService.resume(state)  # quarantines the damage
        finish_queue(restored, models)
        assert restored._state_store.snapshots.quarantined()

        listing = sorted(p.name for p in (state / "snapshots").iterdir())
        journal_bytes = (state / "journal.jsonl").read_bytes()
        code = main(["ops", str(state)])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 quarantined file(s)" in out
        assert sorted(p.name for p in (state / "snapshots").iterdir()) == listing
        assert (state / "journal.jsonl").read_bytes() == journal_bytes

    def test_repro_ops_fsck_reports_without_restoring(
        self, world, tmp_path, capsys
    ):
        state = persisted_state(world, tmp_path, snapshot_every=3)
        snapshots = sorted((state / "snapshots").glob("*.pkl"))
        truncate(snapshots[-1])
        listing = sorted(p.name for p in (state / "snapshots").iterdir())
        code = main(["ops", str(state), "--fsck"])
        out = capsys.readouterr().out
        assert code == 0
        assert "corrupt" in out and "restore       : snapshot #" in out
        # Read-only: the corrupt file is still in place, nothing renamed.
        assert sorted(p.name for p in (state / "snapshots").iterdir()) == listing

    def test_repro_ops_fsck_json(self, world, tmp_path, capsys):
        state = persisted_state(world, tmp_path)
        code = main(["ops", str(state), "--fsck", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["restorable"] is True
        assert report["journal"]["records"] > 0

    def test_repro_ops_fsck_unrestorable_exits_2(self, world, tmp_path, capsys):
        state = persisted_state(world, tmp_path)
        for path in (state / "snapshots").glob("*.pkl"):
            truncate(path)
        code = main(["ops", str(state), "--fsck"])
        assert code == 2
        assert "IMPOSSIBLE" in capsys.readouterr().out

"""``repro ops --fsck`` and restore agree, because they share one replay rule.

Both read :func:`repro.ci.persistence.replay_plan`: restore commits the
plan, fsck reports it.  The sweep damages a standalone state dir and a
fleet tenant dir one journal line at a time — each line deleted, or one
byte of it flipped — and checks that fsck calls the dir restorable
exactly when ``CIService.resume(record=False)`` succeeds, with the
replay depth restore actually ran.
"""

import json
import shutil
import sys
import tarfile
from pathlib import Path

import pytest

sys.path.insert(0, "tests/ci")
from test_restart_parity import make_script, make_service, make_world  # noqa: E402

from tests.fleet.conftest import register_tenant  # noqa: E402

from repro.ci.persistence import EventJournal  # noqa: E402
from repro.ci.service import CIService  # noqa: E402
from repro.cli import main  # noqa: E402
from repro.exceptions import PersistenceError  # noqa: E402
from repro.fleet import CIFleet  # noqa: E402
from repro.reliability.faults import FaultRule, InjectedFault, injected_faults  # noqa: E402
from repro.reliability.fsck import fsck_state_dir  # noqa: E402

LEGACY = Path(__file__).resolve().parent.parent / "fixtures" / "legacy_state.tar.gz"


def standalone_dir(root):
    """A ``persist_to`` dir with a snapshot every three builds."""
    script = make_script("full")
    testsets, baseline, models = make_world(script, commits=8, seed=3)
    service = make_service(script, testsets, baseline)
    directory = root / "standalone"
    service.persist_to(directory, snapshot_every=3, sync=False)
    for model in models:
        service.repository.commit(model, message=model.name)
    return directory


def tenant_dir(root):
    """A fleet tenant dir holding started, deferred-then-drained and
    enqueued submissions."""
    script = make_script("full")
    testsets, baseline, models = make_world(script, commits=6, seed=4)
    fleet = CIFleet(root / "fleet", snapshot_every=100, sync=False)
    register_tenant(fleet, "t", (script, testsets, baseline, models))
    fleet.submit("t", models[0], message="c0")
    with injected_faults([FaultRule(site="fleet.process", action="raise", at=1)]):
        with pytest.raises(InjectedFault):
            fleet.submit("t", models[1], message="c1")
    fleet.drain("t")
    fleet.submit("t", models[2], message="c2")
    fleet.enqueue("t", models[3], message="c3")
    fleet.drain("t")
    fleet.submit("t", models[4], message="c4")
    fleet.enqueue("t", models[5], message="c5")
    fleet.close()
    return fleet.tenant_dir("t")


def damaged_copies(pristine, scratch):
    """Copies of ``pristine``, each with one journal line deleted or with
    one byte of it flipped."""
    lines = (pristine / "journal.jsonl").read_bytes().splitlines(keepends=True)
    for index, line in enumerate(lines):
        flipped = bytearray(line)
        flipped[len(line) // 2] ^= 0x01
        for how, replacement in (("deleted", b""), ("flipped", bytes(flipped))):
            target = scratch / f"{how}-{index}"
            shutil.copytree(pristine, target)
            damaged = lines[:index] + [replacement] + lines[index + 1:]
            (target / "journal.jsonl").write_bytes(b"".join(damaged))
            yield f"{how} line {index + 1}", target


def resume_depth(directory, monkeypatch):
    """Commits ``resume(record=False)`` replays, or None when it refuses."""
    replayed = []
    replay = CIService._replay_journal

    def counted(self, *args):
        replayed.append(replay(self, *args))
        return replayed[-1]

    monkeypatch.setattr(CIService, "_replay_journal", counted)
    try:
        CIService.resume(directory, record=False)
    except PersistenceError:
        return None
    finally:
        monkeypatch.setattr(CIService, "_replay_journal", replay)
    return replayed[-1]


@pytest.mark.parametrize("build", [standalone_dir, tenant_dir], ids=["standalone", "tenant"])
def test_fsck_agrees_with_restore_on_every_damaged_line(build, tmp_path, monkeypatch):
    pristine = build(tmp_path)
    disagreements, refused = [], 0
    for label, directory in damaged_copies(pristine, tmp_path / "damaged"):
        report = fsck_state_dir(directory)
        depth = resume_depth(directory, monkeypatch)
        refused += depth is None
        if report.restorable != (depth is not None):
            disagreements.append(f"{label}: fsck {report.restorable}, resume {depth}")
        elif depth is not None and report.replay_commits != depth:
            disagreements.append(
                f"{label}: fsck replays {report.replay_commits}, resume {depth}"
            )
    assert disagreements == []
    assert refused  # the sweep reaches the refusals, not only healthy dirs


def post_anchor_commit(directory):
    """Index of a ``commit-received`` line past the newest snapshot record
    with a later ``commit-received`` after it (so deleting it is a gap)."""
    lines = (directory / "journal.jsonl").read_bytes().splitlines()
    types = [json.loads(line)["type"] for line in lines]
    anchor = max(i for i, kind in enumerate(types) if kind == "snapshot")
    commits = [i for i, kind in enumerate(types) if kind == "commit-received"]
    return next(i for i in commits if i > anchor and i < commits[-1])


def test_ops_fsck_exits_2_on_a_flipped_byte_and_on_a_replay_gap(tmp_path, capsys):
    pristine = standalone_dir(tmp_path)
    journal = pristine / "journal.jsonl"
    lines = journal.read_bytes().splitlines(keepends=True)

    flipped = tmp_path / "flipped"
    shutil.copytree(pristine, flipped)
    first = bytearray(lines[0])
    first[len(first) // 2] ^= 0x01
    (flipped / "journal.jsonl").write_bytes(bytes(first) + b"".join(lines[1:]))

    gap = tmp_path / "gap"
    shutil.copytree(pristine, gap)
    index = post_anchor_commit(pristine)
    (gap / "journal.jsonl").write_bytes(b"".join(lines[:index] + lines[index + 1:]))

    assert main(["ops", str(pristine), "--fsck"]) == 0
    capsys.readouterr()
    assert main(["ops", str(flipped), "--fsck"]) == 2
    assert "line 1 is corrupt" in capsys.readouterr().out
    assert main(["ops", str(gap), "--fsck"]) == 2
    assert "does not line up with the snapshot" in capsys.readouterr().out
    for directory in (flipped, gap):
        with pytest.raises(PersistenceError):
            CIService.resume(directory, record=False)


def test_an_anchor_below_the_compaction_boundary_refuses_restore(tmp_path):
    directory = standalone_dir(tmp_path)
    journal = EventJournal(directory / "journal.jsonl", sync=False)
    journal.compact(journal.last_sequence)  # past every snapshot's anchor
    report = fsck_state_dir(directory)
    assert not report.restorable
    assert "past the snapshot's anchor" in report.describe()
    with pytest.raises(PersistenceError, match="past the snapshot's anchor"):
        CIService.resume(directory, record=False)


def test_legacy_dirs_without_recorded_lengths_stay_restorable(tmp_path):
    # These envelopes carry no repository length: the gap check starts
    # at the first replayed commit, not at 0.
    with tarfile.open(LEGACY) as archive:
        archive.extractall(tmp_path, filter="data")
    dirs = [tmp_path / f"service-{index}" for index in range(3)]
    dirs += [tmp_path / "fleet" / "tenants" / f"t-{index}" for index in range(3)]
    for directory in dirs:
        report = fsck_state_dir(directory)
        assert report.restorable and report.replay_commits == 1, directory

"""Retention reads each snapshot envelope once per pass.

``SnapshotStore.retain`` prunes to the newest ``keep`` valid snapshots
and returns the oldest retained anchor in one verified pass.  It must
prune the same files and report the same anchor as the two-step path it
replaced — a verifying prune, then a second full read of every
remaining envelope for the anchor — including over corrupt snapshots.
"""

import shutil
import sys

import pytest

sys.path.insert(0, "tests/ci")
from test_restart_parity import make_script, make_service, make_world  # noqa: E402

from repro.ci.persistence import SnapshotStore  # noqa: E402
from repro.exceptions import PersistenceError  # noqa: E402
from repro.reliability.storage import maintain_state_dir  # noqa: E402


def two_step(store, keep):
    """The replaced path: prune over verify(), then re-read every envelope."""
    entries = store._entries()
    valid = [sequence for sequence, _ in entries if store.verify(sequence)]
    kept = set(valid[-keep:])
    pruned = []
    for sequence, path in entries:
        if sequence in valid and sequence not in kept:
            path.unlink()
            pruned.append(path.name)
    anchors = []
    for sequence, _ in store._entries():
        try:
            envelope, _ = store._read_envelope(sequence)
        except PersistenceError:
            continue
        anchors.append(int(envelope.get("journal_sequence", 0)))
    return pruned, min(anchors) if anchors else 0


def count_reads(monkeypatch, store):
    reads = []
    original = store._read_envelope

    def counted(sequence):
        reads.append(sequence)
        return original(sequence)

    monkeypatch.setattr(store, "_read_envelope", counted)
    return reads


def fill(directory, generations=5):
    store = SnapshotStore(directory)
    for number in range(1, generations + 1):
        store.save({"generation": number}, journal_sequence=10 * number)
    return store


def damage(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def test_one_pass_reads_each_envelope_once(tmp_path, monkeypatch):
    store = fill(tmp_path)
    reads = count_reads(monkeypatch, store)
    pruned, anchor = store.retain(3)
    assert sorted(reads) == [1, 2, 3, 4, 5]
    assert [path.name for path in pruned] == [
        "snapshot-000001.pkl",
        "snapshot-000002.pkl",
    ]
    assert anchor == 30


@pytest.mark.parametrize("keep", [1, 2, 3, 6])
@pytest.mark.parametrize("corrupt", [(5,), (4,), (5, 2), (1, 2, 3, 4, 5)])
def test_matches_the_two_step_path_over_corrupt_snapshots(tmp_path, keep, corrupt):
    fill(tmp_path / "one")
    for sequence in corrupt:
        damage(tmp_path / "one" / f"snapshot-{sequence:06d}.pkl")
    shutil.copytree(tmp_path / "one", tmp_path / "two")
    pruned, anchor = SnapshotStore(tmp_path / "one").retain(keep)
    assert ([path.name for path in pruned], anchor) == two_step(
        SnapshotStore(tmp_path / "two"), keep
    )
    assert sorted(p.name for p in (tmp_path / "one").iterdir()) == sorted(
        p.name for p in (tmp_path / "two").iterdir()
    )
    # Corrupt files are never pruned: they are load_latest's to quarantine.
    for sequence in corrupt:
        assert (tmp_path / "one" / f"snapshot-{sequence:06d}.pkl").exists()


def test_retain_validates_keep(tmp_path):
    with pytest.raises(PersistenceError, match="keep"):
        fill(tmp_path).retain(0)


def test_empty_store_retains_nothing(tmp_path):
    assert SnapshotStore(tmp_path / "missing").retain(3) == ([], 0)


def test_service_retention_reads_each_snapshot_once(tmp_path, monkeypatch):
    script = make_script("full")
    testsets, baseline, models = make_world(script, commits=6)
    service = make_service(script, testsets, baseline)
    service.persist_to(tmp_path / "state", snapshot_every=1, keep_snapshots=2)
    reads = count_reads(monkeypatch, service._state_store.snapshots)
    for model in models:
        before = service._state_store.snapshots.sequences()
        reads.clear()
        service.repository.commit(model, message=model.name)
        # The cadence snapshot adds one file; retention reads each once.
        assert sorted(reads) == before + [before[-1] + 1]
    assert len(service._state_store.snapshots.sequences()) == 2


def test_offline_maintenance_reads_each_snapshot_once(tmp_path, monkeypatch):
    store = fill(tmp_path / "state" / "snapshots")
    damage(store.directory / "snapshot-000005.pkl")
    reads = count_reads(monkeypatch, store)
    report = maintain_state_dir(tmp_path / "state", keep=2, store=store, sync=False)
    assert sorted(reads) == [1, 2, 3, 4, 5]
    assert report.pruned_snapshots == 2
    assert store.sequences() == [3, 4, 5]

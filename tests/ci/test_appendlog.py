"""The durable append log under the journal (and a tenant's intake queue).

Exhaustive over its two failure shapes (a file cut at any byte, any byte
flipped), byte-for-byte against the original two-dump renderer, and
precise about what group commit fsyncs and what the index parses.
"""

import json
import os
import random
import zlib

import numpy as np
import pytest

import repro.ci.appendlog as appendlog
from repro.ci.appendlog import _exact, _reserialized, render_line
from repro.ci.persistence import (
    BUILD_RECORDED,
    COMMIT_RECEIVED,
    PROMOTION,
    SNAPSHOT,
    DirectoryStateStore,
    EventJournal,
    JournalRecord,
    SnapshotStore,
    scan_journal,
)
from repro.exceptions import PersistenceError
from repro.fleet.intake import IntakeQueue, IntakeRecord
from repro.ml.models.base import FixedPredictionModel
from repro.reliability.events import clear_events, reliability_events
from repro.utils.serialization import to_jsonable


def reference_render(record):
    """The renderer the log replaced: dump, stamp the CRC, dump again."""
    rendered = to_jsonable(record)
    body = json.dumps(rendered, sort_keys=True).encode("utf-8")
    rendered["crc"] = zlib.crc32(body) & 0xFFFFFFFF
    return (json.dumps(rendered, sort_keys=True) + "\n").encode("utf-8")


def write_journal(path):
    """Six records: two fsynced commits, then an unsynced suffix."""
    journal = EventJournal(path, clock=lambda: _STAMP)
    journal.append(COMMIT_RECEIVED, {"sequence": 0, "message": "añadir"})
    journal.append(BUILD_RECORDED, {"build_number": 1, "ran": True})
    journal.append(COMMIT_RECEIVED, {"sequence": 1, "message": "二"})
    journal.append(PROMOTION, {"build_number": 2, "generation": 0})
    journal.append(BUILD_RECORDED, {"build_number": 2, "testset_uses": 2})
    journal.append(SNAPSHOT, {"snapshot_sequence": 1})
    journal.close()
    return path.read_bytes()


def write_intake(path):
    """A tenant journal's queue side: two submissions, the first acked."""
    queue = IntakeQueue(EventJournal(path, clock=lambda: _STAMP))
    for tag in "ab":
        queue.append(FixedPredictionModel(np.array([0, 1]), name=tag), message=tag)
    queue.ack(0)
    queue.close()
    return path.read_bytes()


class _Stamp:
    def isoformat(self):
        return "2026-01-01T00:00:00+00:00"


_STAMP = _Stamp()

LOGS = {
    "journal": (
        write_journal,
        lambda path: EventJournal(path, sync=False),
        lambda log: [r.sequence for r in log.records()],
    ),
    "intake": (
        write_intake,
        lambda path: IntakeQueue(EventJournal(path, sync=False)),
        lambda log: [r.sequence for r in log.records()],
    ),
}


def line_ends(data):
    ends, offset = [], 0
    for chunk in data.splitlines(keepends=True):
        offset += len(chunk)
        ends.append(offset)
    return ends


# ---------------------------------------------------------------------------
# Healing: every cut, every flipped byte.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", sorted(LOGS))
def test_every_cut_heals_to_the_longest_valid_prefix(kind, tmp_path):
    write, open_log, sequences = LOGS[kind]
    original = write(tmp_path / "original.jsonl")
    ends = [0] + line_ends(original)
    full = sequences(open_log(tmp_path / "original.jsonl"))
    path = tmp_path / "log.jsonl"
    for cut in range(len(original) + 1):
        for sidecar in tmp_path.glob("log.jsonl.torn-*"):
            sidecar.unlink()
        path.write_bytes(original[:cut])
        keep = max(end for end in ends if end <= cut)
        log = open_log(path)
        assert path.read_bytes() == original[:keep], cut
        sidecars = list(tmp_path.glob("log.jsonl.torn-*"))
        if keep < cut:
            assert [s.name for s in sidecars] == [f"log.jsonl.torn-{keep}.quarantined"]
            assert sidecars[0].read_bytes() == original[keep:cut]
        else:
            assert sidecars == []
        assert sequences(log) == full[: ends.index(keep)]


@pytest.mark.parametrize("kind", sorted(LOGS))
def test_every_flipped_byte_is_healed_or_refused(kind, tmp_path):
    write, open_log, sequences = LOGS[kind]
    original = write(tmp_path / "original.jsonl")
    ends = line_ends(original)
    full = sequences(open_log(tmp_path / "original.jsonl"))
    path = tmp_path / "log.jsonl"
    for offset in range(len(original)):
        for sidecar in tmp_path.glob("log.jsonl.torn-*"):
            sidecar.unlink()
        damaged = bytearray(original)
        damaged[offset] ^= 0xFF
        path.write_bytes(bytes(damaged))
        line = next(index for index, end in enumerate(ends) if offset < end)
        if kind == "journal" and 2 <= offset - (ends[line - 1] if line else 0) <= 4:
            # The "crc" key itself is renamed: the journal reads the line
            # as one written before checksums (legacy), as it always has.
            assert sequences(open_log(path)) == full
            continue
        # A flipped newline merges the line with the next one.
        last = line + (offset == ends[line] - 1)
        if last >= len(ends) - 1:
            keep = ends[line - 1] if line else 0
            log = open_log(path)
            assert path.read_bytes() == original[:keep], offset
            (sidecar,) = tmp_path.glob("log.jsonl.torn-*")
            assert sidecar.read_bytes() == bytes(damaged[keep:])
            assert sequences(log) == full[:line]
        else:
            log = open_log(path)  # corruption is left in place, never healed
            assert path.read_bytes() == bytes(damaged)
            assert list(tmp_path.glob("log.jsonl.torn-*")) == []
            with pytest.raises(PersistenceError, match="non-trailing"):
                sequences(log)


# ---------------------------------------------------------------------------
# Framing: the one-dump renderer and the byte CRC check.
# ---------------------------------------------------------------------------

def random_value(rng, depth=0):
    choice = rng.randrange(9 if depth < 3 else 6)
    if choice == 0:
        return rng.choice(
            ["", "ascii", "ñandú", "日本語", "emoji \U0001F600", 'q"\\\n']
        )
    if choice == 1:
        return rng.uniform(-1e9, 1e9) * rng.choice([1, 1e-12, 1e12])
    if choice == 2:
        return rng.randrange(-(2**40), 2**40)
    if choice == 3:
        return rng.choice([True, False, None])
    if choice == 4:
        return rng.choice(
            [np.float32(rng.random()), np.int64(rng.randrange(99)), np.bool_(1)]
        )
    if choice == 5:
        return np.arange(rng.randrange(4), dtype=np.float64) / 3
    if choice == 6:
        return [random_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {
        rng.choice(["k", "ключ", "z", "a b"]) + str(i): random_value(rng, depth + 1)
        for i in range(rng.randrange(4))
    }


def test_a_record_cut_before_its_newline_is_torn(tmp_path):
    # Regression: such a record used to be kept, the next O_APPEND write
    # merged into it, and the next open quarantined both records.
    path = tmp_path / "journal.jsonl"
    write_journal(path)
    path.write_bytes(path.read_bytes()[:-1])
    journal = EventJournal(path, sync=False)
    assert journal.last_sequence == 5
    journal.append(COMMIT_RECEIVED, {"sequence": 2})
    reopened = EventJournal(path, sync=False)
    assert [r.sequence for r in reopened.records()] == [1, 2, 3, 4, 5, 6]


def test_renderer_is_byte_identical_and_both_checks_agree():
    rng = random.Random(20261017)
    rejected = 0
    for index in range(400):
        payload = {f"p{i}": random_value(rng) for i in range(rng.randrange(5))}
        for record in (
            JournalRecord(index + 1, COMMIT_RECEIVED, "2026-01-01T00:00:00", payload),
            IntakeRecord(index + 1, "submission", index, "2026-01-01", payload),
        ):
            line = render_line(to_jsonable(record))
            assert line == reference_render(record)
            body = line.rstrip(b"\n")
            assert _exact(body)
            assert _reserialized(body.decode("utf-8"), legacy=False) is not None
            # A damaged line fails the byte check; the re-serialize
            # fallback alone decides, exactly as before (it still accepts
            # damage that parses to the same record, like ``\u00F1``).
            damaged = bytearray(body)
            damaged[rng.randrange(len(damaged))] ^= 1 << rng.randrange(8)
            assert not _exact(bytes(damaged))
            text = bytes(damaged).decode("utf-8", errors="replace")
            rejected += _reserialized(text, legacy=False) is None
    assert rejected > 750


@pytest.mark.parametrize("kind", sorted(LOGS))
def test_invalid_utf8_mid_file_is_a_persistence_error(kind, tmp_path):
    # Regression: a non-UTF-8 byte in a non-trailing line used to escape
    # records() as UnicodeDecodeError while the scan called it corrupt.
    write, open_log, sequences = LOGS[kind]
    path = tmp_path / "log.jsonl"
    data = bytearray(write(path))
    data[12] = 0xFF  # inside line 1
    path.write_bytes(bytes(data))
    scan = scan_journal(path)
    assert scan.corrupt_lines == (1,)
    with pytest.raises(PersistenceError, match="line 1 is corrupt"):
        sequences(open_log(path))


# ---------------------------------------------------------------------------
# The index: one parse per record, and other writers are noticed.
# ---------------------------------------------------------------------------

def test_open_parses_nothing_and_reads_parse_only_what_they_return(
    tmp_path, monkeypatch
):
    write_journal(tmp_path / "journal.jsonl")
    calls = []
    real_loads = json.loads
    monkeypatch.setattr(
        appendlog.json, "loads", lambda *a, **k: calls.append(1) or real_loads(*a, **k)
    )
    journal = EventJournal(tmp_path / "journal.jsonl", sync=False)
    assert (journal.last_sequence, len(journal), len(calls)) == (6, 6, 0)
    commits = list(journal.records_of(COMMIT_RECEIVED))
    assert [r.payload["sequence"] for r in commits] == [0, 1]
    assert len(calls) == 2
    assert journal.compact(2) == 2
    assert len(calls) == 2  # survivors are copied byte for byte


def test_a_second_writer_and_in_place_damage_are_noticed(tmp_path):
    path = tmp_path / "journal.jsonl"
    write_journal(path)
    reader = EventJournal(path, sync=False)
    EventJournal(path, sync=False).append(COMMIT_RECEIVED, {"sequence": 2})
    assert [r.payload["sequence"] for r in reader.records_of(COMMIT_RECEIVED)] == [
        0, 1, 2,
    ]
    data = bytearray(path.read_bytes())
    data[5] ^= 0xFF  # same size, first line
    path.write_bytes(bytes(data))
    with pytest.raises(PersistenceError, match="line 1 is corrupt"):
        list(reader.records_of(COMMIT_RECEIVED))


# ---------------------------------------------------------------------------
# Group commit: which appends fsync.
# ---------------------------------------------------------------------------

@pytest.fixture
def fsyncs(monkeypatch):
    """Every fsync as ``(file name, size)``."""
    calls = []
    real = os.fsync

    def fsync(fd):
        name = os.path.basename(os.readlink(f"/proc/self/fd/{fd}"))
        calls.append((name, os.fstat(fd).st_size))
        real(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    return calls


def test_only_commit_received_fsyncs_the_journal(tmp_path, fsyncs):
    journal = EventJournal(tmp_path / "journal.jsonl")
    journal.append(BUILD_RECORDED, {})
    journal.append(PROMOTION, {})
    assert len(fsyncs) == 0
    journal.append(COMMIT_RECEIVED, {"sequence": 0})
    assert len(fsyncs) == 1
    journal.sync()  # nothing written since that fsync
    assert len(fsyncs) == 1
    journal.append(BUILD_RECORDED, {})
    journal.sync()
    journal.sync()
    assert len(fsyncs) == 2


def test_snapshot_syncs_the_journal_before_anchoring(tmp_path, fsyncs):
    store = DirectoryStateStore(
        SnapshotStore(tmp_path / "snapshots"), EventJournal(tmp_path / "j.jsonl")
    )
    store.append_event(BUILD_RECORDED, {})
    info = store.save_snapshot({"state": 1})
    assert info.journal_sequence == 1
    assert [name for name, _ in fsyncs] == ["j.jsonl", "snapshot-000001.pkl.tmp"]


def test_intake_fsyncs_submissions_and_deferrals_not_acks(tmp_path, fsyncs):
    queue = IntakeQueue(EventJournal(tmp_path / "journal.jsonl"))
    journal = queue.journal
    queue.append(FixedPredictionModel(np.array([1]), name="m"))
    assert len(fsyncs) == 1
    journal.append(COMMIT_RECEIVED, {"sequence": 0})  # not started: fsynced
    assert len(fsyncs) == 2
    queue.ack(0)
    assert len(fsyncs) == 2
    queue.append(FixedPredictionModel(np.array([1]), name="m"), started=True)
    assert len(fsyncs) == 3
    queue.defer(1)
    assert len(fsyncs) == 4
    queue.append(FixedPredictionModel(np.array([1]), name="m"), started=True)
    journal.append(COMMIT_RECEIVED, {"sequence": 2})  # started: flushed only
    queue.ack(2)
    assert len(fsyncs) == 5
    assert {name for name, _ in fsyncs} == {"journal.jsonl"}


def test_failed_intake_append_heals_at_once(tmp_path):
    from repro.reliability.faults import FaultRule, InjectedFault, injected_faults

    clear_events()
    queue = IntakeQueue(EventJournal(tmp_path / "journal.jsonl", sync=False))
    queue.append(FixedPredictionModel(np.array([0]), name="first"))
    before = queue.path.read_bytes()
    rule = FaultRule(site="intake.append", action="tear", at=1, tear_at=9)
    with injected_faults([rule]):
        with pytest.raises(InjectedFault):
            queue.append(FixedPredictionModel(np.array([1]), name="m"))
    assert queue.path.read_bytes() == before
    assert queue.append(FixedPredictionModel(np.array([1]), name="m")).sequence == 2
    assert [e.kind for e in reliability_events()] == ["intake-torn-tail"]


def test_a_failed_truncation_is_retried_before_the_next_append(
    tmp_path, monkeypatch
):
    from repro.reliability.faults import FaultRule, InjectedFault, injected_faults

    journal = EventJournal(tmp_path / "journal.jsonl", sync=False)
    journal.append(BUILD_RECORDED, {"build_number": 1})
    before = journal.path.read_bytes()
    real_cut = appendlog.AppendLog._cut

    def broken_disk(self, start, sites=None):
        raise OSError(5, "Input/output error")

    monkeypatch.setattr(appendlog.AppendLog, "_cut", broken_disk)
    rule = FaultRule(site="journal.append", action="tear", at=1, tear_at=9)
    with injected_faults([rule]), pytest.raises(InjectedFault):
        journal.append(BUILD_RECORDED, {"build_number": 2})
    assert journal.path.read_bytes() != before  # the torn bytes stayed
    monkeypatch.setattr(appendlog.AppendLog, "_cut", real_cut)
    journal.append(BUILD_RECORDED, {"build_number": 2})
    reopened = EventJournal(journal.path, sync=False)
    assert [r.payload["build_number"] for r in reopened.records()] == [1, 2]


def test_a_compaction_drops_an_append_whose_cut_failed(tmp_path, monkeypatch):
    from repro.reliability.faults import FaultRule, InjectedFault, injected_faults

    journal = EventJournal(tmp_path / "journal.jsonl", sync=False)
    for number in (1, 2, 3):
        journal.append(BUILD_RECORDED, {"build_number": number})
    real_cut = appendlog.AppendLog._cut

    def broken_disk(self, start, sites=None):
        raise OSError(28, "No space left on device")

    # A complete line whose fsync failed stays on disk: the cut fails too.
    monkeypatch.setattr(appendlog.AppendLog, "_cut", broken_disk)
    rule = FaultRule(site="journal.fsync", action="raise", at=1)
    with injected_faults([rule]), pytest.raises(InjectedFault):
        journal.append(BUILD_RECORDED, {"build_number": 99})
    monkeypatch.setattr(appendlog.AppendLog, "_cut", real_cut)
    assert b'"build_number": 99' in journal.path.read_bytes()
    assert [r.payload["build_number"] for r in journal.records()] == [1, 2, 3]

    journal.compact(1)
    journal.append(BUILD_RECORDED, {"build_number": 4})
    reopened = EventJournal(journal.path, sync=False)
    assert [r.payload.get("build_number") for r in reopened.records()] == [
        None,  # the compacted-through header
        2,
        3,
        4,
    ]
    assert [r.sequence for r in reopened.records()] == [1, 2, 3, 4]

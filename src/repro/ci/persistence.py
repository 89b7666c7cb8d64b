"""Durable CI state: versioned snapshots plus an append-only event journal.

ease.ml/ci's statistical guarantees live in server-side state — the
per-testset evaluation budget ``H``, the adaptivity-mode accounting, the
pool of unreleased test-set generations.  Losing that state to a process
restart is not an inconvenience, it *forfeits budget accounting*: a
rebooted service that re-evaluates commits on a released testset replays
labels the math says are spent.  This module makes the state durable:

* :class:`SnapshotStore` — versioned, atomic (write-temp-then-rename)
  pickle snapshots of :meth:`CIService.export_state` /
  :meth:`CIEngine.export_state` mappings.  Every snapshot records the
  journal sequence it was taken at, so a restorer knows where replay
  begins.
* :class:`EventJournal` — the event log (commit received / build
  recorded / promotion / rotation / alarm / snapshot / restore), an
  :class:`~repro.ci.appendlog.AppendLog`.  A ``commit-received`` record
  is the commit's durable copy, written *before* the build runs, so a
  crash mid-build loses no commit: restore replays it deterministically.
  A fleet tenant's journal is also its intake queue
  (:mod:`repro.fleet.intake`): the same file holds each accepted
  submission (with its model), its deferral and its ack, under the one
  sequence.  A ``commit-received`` for a submission appended *started*
  carries no model — it names the submission by repository sequence —
  and is only flushed; every other one embeds its model and is fsynced.
* :func:`open_state_dir` — the one-directory layout convention
  (``<dir>/snapshots/`` + ``<dir>/journal.jsonl``) used by
  :meth:`CIService.persist_to` / :meth:`CIService.resume` and the
  ``repro ops`` CLI;
* :class:`DirectoryStateStore` — that pair behind the one object a
  :class:`CIService` writes through;
* :func:`compact_retained` — the one retention pass: keep the newest
  valid snapshots, compact the journal through the oldest one kept.

Crash model
-----------
Kill the process at any *journal boundary* (between two appends; each
append is flushed before returning) and restore: the service loads the
latest snapshot, then replays every commit it does not yet contain, in
repository order, deduplicated by sequence: each journaled
``commit-received`` past the snapshot's journal anchor, and each
*started* submission at or past the snapshot's repository length.
Because evaluation is a pure function of engine state and the committed
model, the replayed :class:`CommitResult`/:class:`BuildRecord` sequence
is element-wise identical to the uninterrupted run — in all three
adaptivity modes (the restart-parity suite asserts this).  An appended
record survives process death; it survives power loss once the next
fsync of the journal returns — every submission, deferral and fsynced
``commit-received``, and every snapshot, which syncs the journal first.
A power loss therefore drops only records after the last such fsync:
a started submission's ``commit-received`` among them, which is why the
started submission itself replays.

Compaction
----------
One bound governs the whole file: the oldest retained valid snapshot.
Journal records at or below its anchor go; a submission, deferral or
ack stays exactly when the repository sequence it names is at or past
that snapshot's repository length (a commit the snapshot does not hold).

Two-file tenant dirs
--------------------
Fleet tenant dirs written before the intake moved into the journal hold
a separate ``intake.jsonl`` (its ``commit-received`` records may name an
intake record by ``intake_sequence``).  A writable open merges it into
the journal once, idempotently, then deletes it; a read-only open
(``heal=False``) reads the merged log in memory and writes nothing.

Corruption model
----------------
Beyond clean crashes, the store tolerates *damaged files*.  Snapshot
envelopes carry a CRC-32 over the pickled payload and journal lines
carry a per-line CRC, so truncation and bit-rot are detected, not
deserialized (a damaged journal line followed by intact records raises
:class:`PersistenceError`).  A corrupt or truncated snapshot raises
:class:`~repro.exceptions.SnapshotCorruptError` from :meth:`SnapshotStore.load`;
:meth:`SnapshotStore.load_latest` instead *quarantines* it (renamed with
a ``.quarantined`` suffix — never deleted) and falls back to the next
older generation, which simply extends journal replay: the restored run
stays element-wise identical.  A torn trailing journal line is likewise
quarantined into a sidecar file before the self-healing truncation.
Every fallback/quarantine is recorded on the process-wide reliability
event log (:mod:`repro.reliability.events`) and reported by
``repro ops``; the read-only doctor behind ``repro ops --fsck``
(:mod:`repro.reliability.fsck`) classifies a state directory without
mutating it.

Side effects are recovered as state, not re-fired: notification
transports are runtime wiring, so replay suppresses the notifier — the
pre-crash process already delivered those messages, and at most the
single in-flight commit's notification can be lost.

Security note: snapshots, ``commit-received`` payloads and submissions
contain pickles (models are arbitrary objects).  State directories are
trusted, server-local data — never restore from an untrusted one.
"""

from __future__ import annotations

import base64
import os
import pickle
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple

from repro.ci.appendlog import (
    AppendLog,
    LogLine,
    LogSchema,
    crc32 as _crc32,
    quarantine_path,
    render_line,
    replace_atomically,
)
from repro.exceptions import PersistenceError, SnapshotCorruptError
from repro.reliability.events import record_event
from repro.reliability.faults import fault_point, torn_bytes
from repro.utils.serialization import to_jsonable

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "COMMIT_RECEIVED",
    "BUILD_RECORDED",
    "PROMOTION",
    "ROTATION",
    "ALARM",
    "SNAPSHOT",
    "RESTORE",
    "COMPACTION",
    "SUBMISSION",
    "DEFERRED",
    "ACK",
    "QUEUE_TYPES",
    "EVENT_TYPES",
    "JournalRecord",
    "EventJournal",
    "JournalScan",
    "scan_journal",
    "compact_retained",
    "SnapshotInfo",
    "Retention",
    "SnapshotStore",
    "open_state_dir",
    "DirectoryStateStore",
    "encode_model",
    "decode_model",
]

#: Version of the on-disk snapshot envelope; bumped on incompatible change.
#: Version 2 wraps the payload pickle in a checksummed envelope; version 1
#: (unchecksummed) envelopes are still read.
SNAPSHOT_FORMAT_VERSION = 2


# Journal event types.  The first is the one replay is driven by; the rest
# form the operational audit trail.  COMPACTION is the checkpoint-truncate
# header, declaring every journal record at or below its sequence
# dropped (already captured by a snapshot) — readers treat the missing
# prefix as compacted, not torn.  SUBMISSION, DEFERRED and ACK are a
# fleet tenant's intake queue (see :mod:`repro.fleet.intake`).
COMMIT_RECEIVED = "commit-received"
BUILD_RECORDED = "build-recorded"
PROMOTION = "promotion"
ROTATION = "rotation"
ALARM = "alarm"
SNAPSHOT = "snapshot"
RESTORE = "restore"
COMPACTION = "compacted-through"
SUBMISSION = "submission"
DEFERRED = "deferred"
ACK = "ack"

#: The intake queue's records: each names a submission by the repository
#: sequence it becomes (``payload["sequence"]``).
QUEUE_TYPES = frozenset({SUBMISSION, DEFERRED, ACK})

EVENT_TYPES = frozenset(
    {
        COMMIT_RECEIVED,
        BUILD_RECORDED,
        PROMOTION,
        ROTATION,
        ALARM,
        SNAPSHOT,
        RESTORE,
        COMPACTION,
    }
) | QUEUE_TYPES

_SNAPSHOT_NAME = re.compile(r"^snapshot-(\d{6})\.pkl$")


# ---------------------------------------------------------------------------
# Model payload encoding
# ---------------------------------------------------------------------------

def encode_model(model: Any) -> str:
    """Pickle ``model`` into a base64 string for a JSON journal payload."""
    return base64.b64encode(
        pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def decode_model(payload: str) -> Any:
    """Invert :func:`encode_model` (trusted, server-local data only)."""
    return pickle.loads(base64.b64decode(payload.encode("ascii")))


# ---------------------------------------------------------------------------
# The journal
# ---------------------------------------------------------------------------

_TAIL = re.compile(
    rb'"recorded_at": "[^"\\]*", "sequence": (\d+), "type": "([^"\\]*)"\}\Z'
)


def _journal_key(raw: dict[str, Any]) -> tuple[int, str]:
    raw["recorded_at"]
    return int(raw["sequence"]), raw["type"]


def _journal_fast_key(line: bytes) -> tuple[int, str] | None:
    tail = _TAIL.search(line, max(0, len(line) - 256))
    return None if tail is None else (int(tail[1]), tail[2].decode("ascii"))


#: The event types journals held before lines carried checksums.
_PRE_CHECKSUM_TYPES = frozenset(
    {COMMIT_RECEIVED, BUILD_RECORDED, PROMOTION, ROTATION, ALARM, SNAPSHOT, RESTORE}
)

#: The journal's log schema.  A line without a ``crc`` is read only if
#: its type predates checksums: every later record, a queue record
#: included, was always written with one, so its loss is damage.
_JOURNAL = LogSchema(
    noun="journal",
    sites="journal",
    source="ci.persistence",
    key=_journal_key,
    fast_key=_journal_fast_key,
    legacy=lambda raw: raw.get("type") in _PRE_CHECKSUM_TYPES,
)


@dataclass(frozen=True)
class JournalRecord:
    """One journal line.

    Attributes
    ----------
    sequence:
        Journal-wide 1-based append counter (monotonic; snapshots store
        the sequence they were taken at, and ``journal lag`` on the
        operations surface is the distance from it).
    type:
        One of the module's event-type constants.
    recorded_at:
        ISO-8601 UTC wall-clock stamp.  Operational metadata only — no
        result ever depends on it, preserving the library's determinism.
    payload:
        Event-specific JSON-compatible mapping.
    """

    sequence: int
    type: str
    recorded_at: str
    payload: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def _from_raw(cls, raw: dict[str, Any]) -> "JournalRecord":
        return cls(
            sequence=int(raw["sequence"]),
            type=str(raw["type"]),
            recorded_at=str(raw["recorded_at"]),
            payload=dict(raw.get("payload") or {}),
        )


class EventJournal:
    """The append-only event log: journal records over an :class:`AppendLog`.

    ``path`` is created with its parents on first append; opening heals a
    torn tail and indexes every record; ``heal=False`` leaves the file as
    it is, for read-only inspection that never appends.  ``sync=False``
    skips every fsync (tests and simulations, not deployments).
    ``clock`` stamps ``recorded_at`` (UTC now by default).

    The journal also keeps the intake queue's state, folded from its
    records at open and on every append: which repository sequences
    have a submission in the file (and which were started), the
    unacknowledged submissions themselves, and the repository sequence
    the next submission becomes.  Opening a two-file
    tenant dir's journal merges its ``intake.jsonl`` first (see the
    module doc).
    """

    def __init__(
        self,
        path: str | Path,
        *,
        sync: bool = True,
        clock: Callable[[], datetime] | None = None,
        heal: bool = True,
    ):
        path = Path(path)
        merged = _merge_intake(path, heal=heal)
        if merged is not None and heal:
            replace_atomically(path, merged, sync=sync)
            path.with_name(_LEGACY_INTAKE_NAME).unlink()
            merged = None
        self._log = (
            AppendLog(path, _JOURNAL, sync=sync, heal=heal)
            if merged is None
            else _MergedLog(path, merged)
        )
        self.path = self._log.path
        self._clock = clock or (lambda: datetime.now(timezone.utc))
        self._next_sequence = self._log.last_sequence + 1
        self._fold_queue()

    def _fold_queue(self) -> None:
        """Rebuild the intake-queue state from the file's records."""
        self._named: dict[int, int] = {}  # queue record sequence -> its key
        self._submitted: dict[int, int] = {}  # key -> submission sequence
        self._started: set[int] = set()
        self._pending: dict[int, JournalRecord] = {}
        self._next_repository = 0
        # The repository lengths snapshot records and compaction headers
        # carry, read on first use (a standalone journal never asks).
        self._snapshot_floor: int | None = None
        for raw in self._log.records(QUEUE_TYPES, strict=False):
            self._fold(JournalRecord._from_raw(raw))

    def _fold(self, record: JournalRecord) -> None:
        payload = record.payload
        if record.type == SNAPSHOT:
            if self._snapshot_floor is not None:
                floor = int(payload.get("repository_length", 0))
                self._snapshot_floor = max(self._snapshot_floor, floor)
            return
        key = int(payload["sequence"])
        self._named[record.sequence] = key
        if record.type == SUBMISSION:
            self._submitted[key] = record.sequence
            if payload.get("started"):
                self._started.add(key)
            self._pending[key] = record
        elif record.type == DEFERRED:
            self._started.discard(key)
        else:
            self._pending.pop(key, None)
        self._next_repository = max(self._next_repository, key + 1)

    @property
    def last_sequence(self) -> int:
        """Sequence of the newest record (0 for an empty journal)."""
        return self._next_sequence - 1

    @property
    def compacted_through(self) -> int:
        """Highest sequence a compaction has dropped through (0 = never).

        Every journal record at or below this sequence was captured by
        a snapshot before :meth:`compact` removed it; readers must not
        interpret the missing prefix as loss.  A ``compacted-through``
        header carries the boundary as its own sequence.
        """
        return _compacted_through(self._log.lines)

    def __len__(self) -> int:
        return sum(1 for _ in self._log.entries())

    def close(self) -> None:
        """Close the cached append handle (reopened lazily on next append)."""
        self._log.close()

    def sync(self) -> None:
        """Make every record appended so far survive power loss."""
        self._log.sync()

    # -- the intake queue's state ---------------------------------------------
    @property
    def next_repository_sequence(self) -> int:
        """The repository sequence the next submission becomes."""
        if self._snapshot_floor is None:
            records = self._log.records((SNAPSHOT, COMPACTION), strict=False)
            self._snapshot_floor = max(
                (int(raw["payload"].get("repository_length", 0)) for raw in records),
                default=0,
            )
        return max(self._next_repository, self._snapshot_floor)

    @property
    def pending(self) -> dict[int, JournalRecord]:
        """Unacknowledged submissions by repository sequence (do not mutate)."""
        return self._pending

    def is_started(self, key: int) -> bool:
        """Whether the submission at repository sequence ``key`` was
        appended started and not deferred since."""
        return key in self._started

    def started_at_or_past(self, key: int) -> list[int]:
        """Repository sequences of started submissions at or past ``key``."""
        return [started for started in self._started if started >= key]

    def submissions(self, keys: Collection[int]) -> dict[int, dict[str, Any]]:
        """Payloads of the submissions at these repository sequences.

        Read through the index: only their lines are read, verified and
        parsed.  A key without a submission in the file is absent.
        """
        wanted = {self._submitted[key] for key in keys if key in self._submitted}
        payloads = (
            _JOURNAL.parse(chunk)["payload"]
            for line, chunk in self._log.read(wanted)
            if line.kind == SUBMISSION  # a header may share a kept record's sequence
        )
        return {int(payload["sequence"]): payload for payload in payloads}

    # -- writing -------------------------------------------------------------
    def append(self, type: str, payload: dict[str, Any] | None = None) -> JournalRecord:
        """Append one event: flushed, and fsynced if it must precede an effect.

        The payload goes through
        :func:`repro.utils.serialization.to_jsonable` (datetimes, paths,
        enums and numpy values are fine).  A submission or deferral is
        fsynced before returning, and so is a ``commit-received`` —
        unless it is for a submission appended started, whose fsync
        already marked the processing start; any other record becomes
        power-loss durable at the next fsync of the file.  A failed
        append — tear, failing fsync, ``ENOSPC``/``EIO`` — is truncated
        away: the event never happened.  Fault-injection points
        ``<sites>.append``, ``<sites>.write`` and ``<sites>.fsync``,
        where ``<sites>`` is ``intake`` for the intake queue's records
        (a failure there is a submission the fleet never accepted, a
        deferral or an ack that never happened) and ``journal`` for
        every other record.
        """
        if type not in EVENT_TYPES:
            raise PersistenceError(
                f"unknown journal event type {type!r}; expected one of "
                f"{sorted(EVENT_TYPES)}"
            )
        record = JournalRecord(
            sequence=self._next_sequence,
            type=type,
            recorded_at=self._clock().isoformat(),
            payload=dict(payload or {}),
        )
        queued = type in QUEUE_TYPES
        durable = type in (SUBMISSION, DEFERRED) or (
            type == COMMIT_RECEIVED
            and record.payload.get("sequence") not in self._started
        )
        self._log.append(
            to_jsonable(record),
            durable=durable,
            sites="intake" if queued else "journal",
        )
        self._next_sequence += 1
        if queued or type == SNAPSHOT:
            self._fold(record)
        return record

    # -- compaction ----------------------------------------------------------
    def compact(self, through_sequence: int, repository_length: int = 0) -> int:
        """Checkpoint-truncate through one snapshot's anchor and length.

        The caller asserts — normally by pointing at the oldest retained
        *valid* snapshot's :attr:`~SnapshotInfo.journal_sequence` and
        :attr:`~SnapshotInfo.repository_length` — that every journal
        record at or below ``through_sequence`` and every commit below
        ``repository_length`` are captured durably elsewhere.  Journal
        records at or below the boundary go; an intake-queue record stays
        exactly when the repository sequence it names is at or past
        ``repository_length``.  The file is rewritten temp-then-rename:
        the kept queue records from below the boundary, a
        ``compacted-through`` header (carrying ``through_sequence`` as
        its own sequence, so the file stays monotonic and an all-dropped
        journal still resumes its counter correctly), then every later
        survivor's line, byte for byte.  A crash at any point leaves
        either the old or the new journal, both complete.

        Compacting to a boundary at or below a previous compaction's is
        a no-op; returns the number of records dropped this pass.

        Fault-injection point: ``journal.compact`` (``errno`` — the
        rewrite never starts; the original journal is untouched).
        """
        through = int(through_sequence)
        if through <= self.compacted_through:
            return 0
        if through > self.last_sequence:
            raise PersistenceError(
                f"cannot compact journal {self.path} through sequence "
                f"{through}: newest record is {self.last_sequence}"
            )
        kept: list[bytes] = []
        survivors: list[bytes] = []
        dropped = prior_dropped = 0
        for line, chunk in self._log.entries():
            if line.kind == COMPACTION:
                payload = _JOURNAL.parse(chunk).get("payload") or {}
                prior_dropped = int(payload.get("dropped", 0))
            if line.kind in QUEUE_TYPES:
                key = self._named.get(line.sequence)
                if key is None:  # appended by another writer since the fold
                    key = int(_JOURNAL.parse(chunk)["payload"]["sequence"])
                keep = key >= repository_length
            else:
                keep = line.sequence > through
            if not keep:
                dropped += 1
            else:
                (kept if line.sequence < through else survivors).append(chunk)
        fault_point("journal.compact")
        header = JournalRecord(
            sequence=through,
            type=COMPACTION,
            recorded_at=self._clock().isoformat(),
            payload={"compacted_through": through, "dropped": prior_dropped + dropped},
        )
        if repository_length:
            header.payload["repository_length"] = int(repository_length)
        bytes_before = self.path.stat().st_size if self.path.exists() else 0
        data = b"".join(kept) + render_line(to_jsonable(header)) + b"".join(survivors)
        self._log.rewrite(data)
        self._fold_queue()
        record_event(
            "journal-compacted",
            "ci.persistence",
            journal=str(self.path),
            compacted_through=through,
            dropped=dropped,
            bytes_before=bytes_before,
            bytes_after=len(data),
        )
        return dropped

    # -- reading -------------------------------------------------------------
    def records(self) -> Iterator[JournalRecord]:
        """Yield every intact record, oldest first.

        A damaged line with intact records after it raises
        :class:`PersistenceError`; a torn tail is dropped.
        """
        return map(JournalRecord._from_raw, self._log.records())

    def records_of(self, type: str, *, after: int = 0) -> Iterator[JournalRecord]:
        """Like :meth:`records`, parsing only the lines of one event type
        whose sequence exceeds ``after`` (found through the index)."""
        return map(
            JournalRecord._from_raw, self._log.records((type,), after=after)
        )


def _compacted_through(lines: Iterable[LogLine]) -> int:
    return max(
        (line.sequence for line in lines if line.kind == COMPACTION), default=0
    )


# ---------------------------------------------------------------------------
# Two-file tenant dirs
# ---------------------------------------------------------------------------

_LEGACY_INTAKE_NAME = "intake.jsonl"

#: The separate intake file of a two-file tenant dir (read, never written).
_LEGACY_INTAKE = LogSchema(
    noun="intake queue",
    sites="intake",
    source="fleet.intake",
    key=lambda raw: (int(raw["sequence"]), str(raw["kind"])),
    fast_key=lambda line: None,
)


class _MergedLog(AppendLog):
    """A two-file tenant dir's merged log, held in memory (read-only)."""

    def __init__(self, path: Path, data: bytes):
        self._data = data
        super().__init__(path, _JOURNAL, heal=False)

    def _bytes(self) -> bytes:
        return self._data

    def read(self, sequences: Collection[int]) -> list[tuple[LogLine, bytes]]:
        entries = self.entries(strict=False)
        return [(line, chunk) for line, chunk in entries if line.sequence in sequences]


def _merge_intake(path: Path, *, heal: bool) -> bytes | None:
    """The journal at ``path`` with a two-file dir's intake merged in.

    ``None`` when no ``intake.jsonl`` lies beside it.  The journal's lines
    stay byte for byte (snapshots anchor at their sequences); the
    intake's submissions, deferrals and acks follow under new sequences,
    in intake order.  Submissions below the intake's newest cursor gain
    the ack the cursor stood for, and the cursor's own last sequence is
    acked too, so the next submission's repository sequence survives.
    A journal that already holds queue records was merged before (a
    crash came before the intake's deletion): it is returned as it is.
    ``heal`` repairs torn tails and refuses a damaged intake; without it
    nothing is written and damage is skipped.
    """
    intake_path = path.with_name(_LEGACY_INTAKE_NAME)
    if not intake_path.exists():
        return None
    journal = AppendLog(path, _JOURNAL, sync=False, heal=heal)
    data = journal._bytes()
    data = data[: len(data) - journal.torn_tail_bytes]
    if any(line.kind in QUEUE_TYPES for line in journal.lines):
        return data
    intake = list(
        AppendLog(intake_path, _LEGACY_INTAKE, sync=False, heal=heal).records(
            strict=heal
        )
    )
    cursor = max(
        (int(raw["repo_sequence"]) for raw in intake if raw["kind"] == "cursor"),
        default=0,
    )
    lines, sequence = [], journal.last_sequence
    acked, named = set(), set()
    for raw in intake:
        if raw["kind"] == "cursor":
            continue
        key = int(raw["repo_sequence"])
        named.add(key)
        if raw["kind"] == ACK:
            acked.add(key)
        payload = {**(raw.get("payload") or {}), "sequence": key}
        sequence += 1
        stamp = str(raw.get("recorded_at", ""))
        record = JournalRecord(sequence, str(raw["kind"]), stamp, payload)
        lines.append(render_line(to_jsonable(record)))
    if cursor:
        named.add(cursor - 1)
    for key in sorted(named - acked):
        if key < cursor:
            sequence += 1
            record = JournalRecord(sequence, ACK, "", {"sequence": key})
            lines.append(render_line(to_jsonable(record)))
    return data + b"".join(lines)


@dataclass(frozen=True)
class JournalScan:
    """Read-only classification of a journal file (``repro ops --fsck``).

    Unlike opening an :class:`EventJournal`, which heals a torn tail,
    producing this report never touches the file.  ``records`` counts
    intact records, the newest being ``last_sequence`` (0 when none).
    ``corrupt_lines`` are 1-based numbers of damaged lines *followed by*
    intact records (real corruption; replay raises); ``torn_tail_bytes``
    is the invalid trailing region the next open would quarantine.
    ``commit_sequences`` are the repository sequences of the intact
    ``commit-received`` records in journal order (replay depth), and
    ``commit_journal_sequences`` their journal sequences (commits past a
    snapshot's anchor).  ``compacted_through`` is the highest
    ``compacted-through`` boundary (0 = never compacted): records at or
    below it were dropped on purpose, and a restore needs a snapshot
    anchored at or past it.  ``pending`` counts a fleet tenant's
    unacknowledged submissions, and ``started`` holds the repository
    sequences of its started, not deferred, submissions (what a restore
    replays past its snapshot's repository length).  ``missing_submissions``
    holds the ``(journal sequence, repository sequence)`` of each
    model-less ``commit-received`` whose submission the file does not
    hold: past a restore's anchor, replay cannot rebuild that commit.
    """

    path: Path
    exists: bool
    records: int
    last_sequence: int
    corrupt_lines: tuple[int, ...]
    torn_tail_bytes: int
    commit_sequences: tuple[int, ...]
    commit_journal_sequences: tuple[int, ...]
    compacted_through: int = 0
    pending: int = 0
    started: frozenset[int] = frozenset()
    missing_submissions: tuple[tuple[int, int], ...] = ()


def scan_journal(path: str | Path) -> JournalScan:
    """Classify a journal file without opening it for repair."""
    path = Path(path)
    journal = EventJournal(path, heal=False)
    log = journal._log
    commits, named = [], []
    for raw in log.records((COMMIT_RECEIVED,), strict=False):
        payload = raw.get("payload") or {}
        if "sequence" in payload:
            commits.append((int(payload["sequence"]), int(raw["sequence"])))
            if "model_pickle" not in payload:
                named.append(commits[-1])
    return JournalScan(
        path=path,
        exists=path.exists(),
        records=sum(line.sequence is not None for line in log.lines),
        last_sequence=log.last_sequence,
        corrupt_lines=log.corrupt_lines,
        torn_tail_bytes=log.torn_tail_bytes,
        commit_sequences=tuple(sequence for sequence, _ in commits),
        commit_journal_sequences=tuple(journal for _, journal in commits),
        compacted_through=_compacted_through(log.lines),
        pending=len(journal.pending),
        started=frozenset(journal._started),
        missing_submissions=tuple(
            (sequence, key)
            for key, sequence in named
            if key not in journal._submitted  # folded from verified lines
        ),
    )


# ---------------------------------------------------------------------------
# The snapshot store
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SnapshotInfo:
    """Metadata of one stored snapshot.

    Attributes
    ----------
    sequence:
        1-based snapshot counter within the store.
    journal_sequence:
        The journal's :attr:`~EventJournal.last_sequence` at save time —
        where replay begins for a restore from this snapshot.
    format_version:
        On-disk envelope version the snapshot was written with.
    path:
        The snapshot file.
    repository_length:
        Commits the snapshot's repository held (0 for envelopes written
        before it was recorded).
    """

    sequence: int
    journal_sequence: int
    format_version: int
    path: Path
    repository_length: int = 0


class Retention(NamedTuple):
    """What one :meth:`SnapshotStore.retain` pass did and found.

    ``anchor`` is the journal sequence of the *oldest retained valid*
    snapshot (0 for none): the safe journal-compaction boundary, since
    every snapshot still in the store anchors at or past it, so replay
    from any of them — including an older generation reached by
    corruption fallback — never lands in a compacted gap.
    """

    pruned: list[Path]
    anchor: int


def _info_of(envelope: Mapping[str, Any], path: Path) -> SnapshotInfo:
    return SnapshotInfo(
        sequence=int(envelope["sequence"]),
        journal_sequence=int(envelope.get("journal_sequence", 0)),
        format_version=int(envelope["format_version"]),
        path=path,
        repository_length=int(envelope.get("repository_length", 0)),
    )


class SnapshotStore:
    """Versioned, atomically-written snapshots of exported CI state.

    Each :meth:`save` pickles an envelope ``{format_version, sequence,
    journal_sequence, payload}`` to a temporary file in the store
    directory and :func:`os.replace`-renames it into place — a reader
    (or a crash) never observes a half-written snapshot.  Snapshots are
    numbered; :meth:`load_latest` restores from the newest one and older
    generations remain on disk as a fallback/audit trail (prune with
    :meth:`prune`).
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        # Metadata of snapshots this instance has saved or loaded, so the
        # operations surface (journal lag needs only 3 ints) does not
        # unpickle whole engine states from disk on every report.  Keyed
        # by sequence; a sequence minted by another process is simply not
        # cached yet and falls back to a disk read.
        self._info_cache: dict[int, SnapshotInfo] = {}

    # -- inspection ----------------------------------------------------------
    def _entries(self) -> list[tuple[int, Path]]:
        if not self.directory.is_dir():
            return []
        entries = []
        for child in self.directory.iterdir():
            match = _SNAPSHOT_NAME.match(child.name)
            if match:
                entries.append((int(match.group(1)), child))
        return sorted(entries)

    def sequences(self) -> list[int]:
        """Stored snapshot sequence numbers, oldest first."""
        return [sequence for sequence, _ in self._entries()]

    @property
    def latest_sequence(self) -> int:
        """Newest stored sequence (0 for an empty store)."""
        entries = self._entries()
        return entries[-1][0] if entries else 0

    def snapshots(self) -> list[SnapshotInfo]:
        """Metadata of every stored snapshot, oldest first (no payloads)."""
        return [self._info(sequence) for sequence in self.sequences()]

    def _info(self, sequence: int) -> SnapshotInfo:
        cached = self._info_cache.get(sequence)
        return cached if cached is not None else self.load(sequence)[1]

    # -- writing -------------------------------------------------------------
    def save(
        self, payload: Any, *, journal_sequence: int = 0, repository_length: int = 0
    ) -> SnapshotInfo:
        """Persist ``payload`` as the next snapshot generation, atomically.

        The payload pickle is wrapped in an envelope carrying its CRC-32,
        so a reader can tell truncation and bit-rot from valid state.

        Fault-injection points: ``snapshot.write`` (``tear`` writes a
        truncated envelope straight to the final path and *returns
        normally* — the silent-corruption case a checksum exists to
        catch), ``snapshot.fsync`` (``raise`` simulates a failing disk
        before the atomic rename; nothing is renamed into place) and
        ``snapshot.rename`` (``errno`` — ``ENOSPC``/``EIO`` at the
        rename itself; the temp file is removed and the previous
        generation stays the newest).
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        sequence = self.latest_sequence + 1
        payload_pickle = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        envelope = {
            "format_version": SNAPSHOT_FORMAT_VERSION,
            "sequence": sequence,
            "journal_sequence": int(journal_sequence),
            "repository_length": int(repository_length),
            "checksum": _crc32(payload_pickle),
            "payload_pickle": payload_pickle,
        }
        data = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
        path = self.directory / f"snapshot-{sequence:06d}.pkl"
        info = SnapshotInfo(
            sequence=sequence,
            journal_sequence=int(journal_sequence),
            format_version=SNAPSHOT_FORMAT_VERSION,
            path=path,
            repository_length=int(repository_length),
        )
        torn = torn_bytes(data, fault_point("snapshot.write"))
        if torn is not None:
            # Simulated bit-rot / non-atomic filesystem: the torn bytes
            # land at the final path and the writer believes it
            # succeeded.  load() detects this through the checksum.
            path.write_bytes(torn)
            self._info_cache[sequence] = info
            return info
        replace_atomically(
            path, data, fsync_site="snapshot.fsync", rename_site="snapshot.rename"
        )
        self._info_cache[sequence] = info
        return info

    def prune(self, keep: int = 1) -> list[Path]:
        """Delete old *valid* snapshots, keeping the newest ``keep`` of them.

        Returns the deleted paths; see :meth:`retain`.
        """
        return self.retain(keep).pruned

    def retain(self, keep: int) -> Retention:
        """Keep the newest ``keep`` valid snapshots; return what was pruned
        and the oldest retained anchor.

        One verified pass: each envelope is read and checksummed once
        (payloads are not unpickled).  Only snapshots that verify are
        ever deleted or anchor: pruning on sequence number alone could,
        after the latest snapshot was corrupted, remove the only
        restorable generation while keeping the damaged one.  Corrupt
        files are never deleted here — they are :meth:`load_latest`'s to
        quarantine and ``repro ops --fsck``'s to report.
        """
        pruned, retained = self._retain(keep)
        anchor = min((info.journal_sequence for info in retained), default=0)
        return Retention(pruned=pruned, anchor=anchor)

    def _retain(self, keep: int) -> tuple[list[Path], list[SnapshotInfo]]:
        """:meth:`retain`'s pass: the pruned paths and the retained infos."""
        if keep < 1:
            raise PersistenceError(f"keep must be >= 1, got {keep}")
        valid = []
        for sequence, path in self._entries():
            try:
                envelope, _ = self._read_envelope(sequence)
            except PersistenceError:
                continue
            valid.append(_info_of(envelope, path))
        pruned = []
        for info in valid[:-keep]:
            info.path.unlink()
            self._info_cache.pop(info.sequence, None)
            pruned.append(info.path)
        return pruned, valid[-keep:]

    # -- reading -------------------------------------------------------------
    def _read_envelope(self, sequence: int) -> tuple[dict[str, Any], Path]:
        """Read and integrity-check one envelope (payload not unpickled)."""
        path = self.directory / f"snapshot-{sequence:06d}.pkl"
        if not path.exists():
            raise PersistenceError(
                f"snapshot {sequence} not found in {self.directory}"
            )
        try:
            envelope = pickle.loads(path.read_bytes())
            if not isinstance(envelope, dict):
                raise ValueError(f"envelope is {type(envelope).__name__}, not dict")
        except PersistenceError:
            raise
        except Exception as exc:
            raise SnapshotCorruptError(
                f"snapshot {path} is unreadable (truncated or damaged): {exc}"
            ) from exc
        version = envelope.get("format_version")
        if version not in (1, SNAPSHOT_FORMAT_VERSION):
            raise PersistenceError(
                f"snapshot {path} has format version {version!r}; this build "
                f"reads version {SNAPSHOT_FORMAT_VERSION}"
            )
        if version != 1 and _crc32(envelope["payload_pickle"]) != envelope.get(
            "checksum"
        ):
            raise SnapshotCorruptError(
                f"snapshot {path} failed its checksum (bit-rot or torn write)"
            )
        return envelope, path

    def verify(self, sequence: int) -> bool:
        """Whether snapshot ``sequence`` exists and passes integrity checks."""
        try:
            self._read_envelope(sequence)
        except PersistenceError:
            return False
        return True

    def load(self, sequence: int) -> tuple[Any, SnapshotInfo]:
        """Load one snapshot generation; returns ``(payload, info)``.

        Raises :class:`~repro.exceptions.SnapshotCorruptError` (a
        :class:`PersistenceError`) when the file is truncated, fails its
        checksum, or does not unpickle.
        """
        envelope, path = self._read_envelope(sequence)
        version = int(envelope["format_version"])
        if version == 1:
            payload = envelope["payload"]
        else:
            try:
                payload = pickle.loads(envelope["payload_pickle"])
            except Exception as exc:
                raise SnapshotCorruptError(
                    f"snapshot {path} payload does not unpickle: {exc}"
                ) from exc
        info = _info_of(envelope, path)
        self._info_cache[info.sequence] = info
        return payload, info

    def quarantined(self) -> list[Path]:
        """Quarantined snapshot files in this store, oldest name first."""
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("*.quarantined*"))

    def _quarantine(self, sequence: int, path: Path, error: Exception) -> Path:
        """Move a corrupt snapshot aside (never delete) and log the event."""
        target = quarantine_path(path)
        os.replace(path, target)
        self._info_cache.pop(sequence, None)
        record_event(
            "snapshot-quarantined",
            "ci.persistence",
            snapshot=str(path),
            quarantined=str(target),
            error=str(error),
        )
        return target

    def load_latest(
        self, *, quarantine: bool = True
    ) -> tuple[Any, SnapshotInfo] | None:
        """Load the newest *restorable* snapshot, or ``None`` for none.

        A corrupt or truncated newest snapshot does not abort the
        restore: it is quarantined (renamed aside, never deleted) and
        the next older generation is tried, which simply extends the
        journal replay a restorer performs.  Each skip is recorded on
        the reliability event log.  With ``quarantine=False`` corrupt
        snapshots are skipped but left in place — the read-only
        inspection mode ``repro ops`` uses.
        """
        skipped = 0
        for sequence, path in reversed(self._entries()):
            try:
                payload, info = self.load(sequence)
            except SnapshotCorruptError as exc:
                if quarantine:
                    self._quarantine(sequence, path, exc)
                else:
                    record_event(
                        "snapshot-skipped",
                        "ci.persistence",
                        snapshot=str(path),
                        error=str(exc),
                    )
                skipped += 1
                continue
            if skipped:
                record_event(
                    "snapshot-fallback",
                    "ci.persistence",
                    restored_sequence=info.sequence,
                    skipped_snapshots=skipped,
                    journal_sequence=info.journal_sequence,
                )
            return payload, info
        return None

    def latest_info(self) -> SnapshotInfo | None:
        """Metadata of the newest *readable* snapshot (``None`` for none).

        Served from the instance's metadata cache when this process saved
        or loaded that snapshot — the operations surface calls this per
        report, and unpickling a full engine state to read three ints
        would make a cheap counters report cost a disk-sized load.
        Corrupt newer snapshots are skipped, mirroring what
        :meth:`load_latest` would restore from, so an operations report
        over a damaged store describes the restorable generation instead
        of raising.
        """
        for sequence, _ in reversed(self._entries()):
            cached = self._info_cache.get(sequence)
            if cached is not None:
                return cached
            try:
                return self.load(sequence)[1]
            except PersistenceError:
                continue
        return None


def compact_retained(
    snapshots: SnapshotStore, journal: EventJournal | None, keep: int
) -> tuple[list[Path], int]:
    """The one retention pass; returns the pruned paths and dropped records.

    Keeps the newest ``keep`` valid snapshots (:meth:`SnapshotStore.retain`'s
    single verified read per envelope), then compacts ``journal`` through
    the oldest retained one: its anchor and its repository length (see
    :meth:`EventJournal.compact`).  Every snapshot still on disk —
    including an older generation a corrupt-newest fallback restores
    from — then replays without a gap, and every submission a retained
    snapshot lacks stays.  A running service's cadence, the fleet's
    reclamation of a cold tenant and
    :func:`~repro.reliability.storage.maintain_state_dir` all reclaim
    through it.
    """
    pruned, retained = snapshots._retain(keep)
    if journal is None or not retained:
        return pruned, 0
    anchor = min(info.journal_sequence for info in retained)
    if anchor <= journal.compacted_through or anchor > journal.last_sequence:
        return pruned, 0
    length = min(info.repository_length for info in retained)
    return pruned, journal.compact(anchor, length)


# ---------------------------------------------------------------------------
# State-directory convention
# ---------------------------------------------------------------------------

def open_state_dir(
    path: str | Path, *, create: bool = True, sync: bool = True, heal: bool = True
) -> tuple[SnapshotStore, EventJournal]:
    """Open (or create) the one-directory layout the service and CLI share.

    ``<path>/snapshots/`` holds the :class:`SnapshotStore`;
    ``<path>/journal.jsonl`` is the :class:`EventJournal`.  With
    ``create=False`` a missing directory raises :class:`PersistenceError`
    (the ``repro ops`` CLI uses this so a typo'd path fails loudly
    instead of materializing an empty state dir); ``heal=False`` opens
    the journal without repairing or migrating it (read-only inspection).
    """
    directory = Path(path)
    if not directory.is_dir():
        if not create:
            raise PersistenceError(f"state directory {directory} does not exist")
        directory.mkdir(parents=True, exist_ok=True)
    return (
        SnapshotStore(directory / "snapshots"),
        EventJournal(directory / "journal.jsonl", sync=sync, heal=heal),
    )


class DirectoryStateStore:
    """A :func:`open_state_dir` layout: snapshots and journal as one object.

    Composes a :class:`SnapshotStore` and an (optional)
    :class:`EventJournal`; the pair stays reachable as :attr:`snapshots`
    / :attr:`journal` for the service's retention and operations code.
    A fleet tenant's journal is also its intake queue, and the fleet
    hands its open journal in, so a hydration neither reopens nor
    re-indexes the file.  The crash model is the module's: a snapshot is
    atomically whole or absent, and a snapshot never anchors past the
    journal's durable end.
    """

    def __init__(self, snapshots: SnapshotStore, journal: EventJournal | None = None):
        self.snapshots = snapshots
        self.journal = journal

    @classmethod
    def open(
        cls,
        path: str | Path,
        *,
        create: bool = True,
        sync: bool = True,
        heal: bool = True,
    ) -> "DirectoryStateStore":
        """Open (or create) a state directory; see :func:`open_state_dir`."""
        return cls(*open_state_dir(path, create=create, sync=sync, heal=heal))

    @property
    def location(self) -> str:
        return str(self.snapshots.directory)

    @property
    def journal_sequence(self) -> int | None:
        return None if self.journal is None else self.journal.last_sequence

    def save_snapshot(self, state: Mapping[str, Any]) -> SnapshotInfo:
        if self.journal is not None:
            # A snapshot must never anchor past the journal's durable end,
            # or a power loss could reuse sequences it already covers.
            self.journal.sync()
        sequence = self.journal_sequence
        repository = state.get("repository")
        return self.snapshots.save(
            dict(state),
            journal_sequence=0 if sequence is None else sequence,
            repository_length=0 if repository is None else len(repository),
        )

    def load_latest(
        self, *, quarantine: bool = True
    ) -> tuple[dict[str, Any], SnapshotInfo] | None:
        return self.snapshots.load_latest(quarantine=quarantine)

    def append_event(self, type: str, payload: Mapping[str, Any]) -> None:
        if self.journal is not None:
            self.journal.append(type, dict(payload))

    def records_of(self, type: str) -> Iterable[JournalRecord]:
        if self.journal is None:
            return ()
        return self.journal.records_of(type)

    def latest_info(self) -> SnapshotInfo | None:
        return self.snapshots.latest_info()

    def quarantined(self) -> list[Path]:
        return self.snapshots.quarantined()

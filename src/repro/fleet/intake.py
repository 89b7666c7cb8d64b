"""The durable intake queue: a webhook submission, once accepted, survives.

The fleet gateway's contract is *accept-then-never-lose*: a submission
that passes admission control is appended to the tenant's intake queue —
an append-only, CRC'd JSON-lines file, fsynced like the event journal —
before anything evaluates it.  A crash between acceptance and processing
therefore loses nothing: the next drain replays the queue, and replay is
idempotent *by sequence* because every submission records the repository
sequence it will become.

Record kinds
------------
``cursor``
    Every submission below its ``repo_sequence`` is processed.  Written
    at queue creation (the tenant repository's length at that moment, so
    every later repository sequence is derivable from the file alone),
    and by each compaction.
``submission``
    One accepted webhook submission: the pickled model (base64, like a
    standalone journal's ``commit-received`` records), message, author,
    and the ``repo_sequence`` this submission will occupy in the
    tenant's repository.  Submissions are processed strictly in order, so
    the mapping is fixed at append time.  A submission appended by
    :meth:`CIFleet.submit <repro.fleet.gateway.CIFleet.submit>` with
    nothing queued ahead of it is *started* (``"started": true`` in its
    payload): it is processed at once, so its fsync also serves as the
    durable processing-start record.
``deferred``
    The started submission at ``repo_sequence`` failed before its build
    began (no ``commit-received`` landed): it is an ordinary queued
    submission again.  Fsynced.
``ack``
    The submission at ``repo_sequence`` has been fully processed (its
    commit is journaled in the tenant's own event journal).  A crash
    *between* the commit landing in the tenant journal and the ack being
    appended is healed at the next drain: the entry's ``repo_sequence``
    is already below the repository length, so the drain re-acks it
    without re-running the build — never a duplicate.

The intake holds the only copy of a started submission's model
--------------------------------------------------------------
For a started submission the tenant journal's ``commit-received`` names
the intake record (``intake_sequence``) instead of embedding the model,
and is only flushed, not fsynced: each model is pickled, encoded,
checksummed and written once.  Restore reads the models back through
the log's byte-offset index (:meth:`IntakeQueue.started_since`), and
replays — notifier suppressed — every started submission at or past
the restored repository length, acknowledged or not, whether or not
power loss kept its ``commit-received``.  So compaction keeps a
processed started submission (below the cursor, its ack dropped) until
:attr:`IntakeQueue.covered` — the repository length of the oldest
retained valid snapshot, set by the service's retention pass, which
compacts the journal through that snapshot first — has passed it: no
journal record ever names an intake record that is gone.  A submission
that was only enqueued, or was deferred, keeps a fsynced,
model-carrying ``commit-received``, so a later drain that notifies is
never replayed into a second notification.

Crash model
-----------
The queue is an :class:`~repro.ci.appendlog.AppendLog`, like the event
journal: every append is flushed; cursors, submissions and deferrals are
fsynced before returning (a power loss never drops one), acks only
reach disk with the next fsync (a lost ack heals as above).
Fault-injection points ``intake.append`` (``tear``) and ``intake.write``
(``errno``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.ci.appendlog import AppendLog, LogSchema, render_line
from repro.ci.persistence import decode_model, encode_model
from repro.exceptions import PersistenceError
from repro.utils.serialization import to_jsonable

__all__ = ["IntakeRecord", "IntakeScan", "IntakeQueue", "scan_intake"]

_CURSOR = "cursor"
_SUBMISSION = "submission"
_DEFERRED = "deferred"
_ACK = "ack"
_KINDS = frozenset({_CURSOR, _SUBMISSION, _DEFERRED, _ACK})

_KIND = re.compile(rb'\{"crc": \d+, "kind": "([a-z]+)", ')
_SEQUENCE = re.compile(rb', "sequence": (\d+)\}\Z')


def _intake_key(raw: dict[str, Any]) -> tuple[int, str]:
    if raw["kind"] not in _KINDS:
        raise ValueError(f"unknown intake record kind {raw['kind']!r}")
    return int(raw["sequence"]), raw["kind"]


def _intake_fast_key(line: bytes) -> tuple[int, str] | None:
    kind = _KIND.match(line)
    sequence = _SEQUENCE.search(line, max(0, len(line) - 48))
    if kind is None or sequence is None or kind[1].decode() not in _KINDS:
        return None
    return int(sequence[1]), kind[1].decode()


#: The intake's log schema.  Everything but an ack is fsynced —
#: ``enqueue`` promises an accepted submission is never lost, and a
#: deferral must outlive the drain that later notifies — while an ack is
#: only flushed: a lost ack is healed by the next drain.
_INTAKE = LogSchema(
    noun="intake queue",
    sites="intake",
    source="fleet.intake",
    key=_intake_key,
    fast_key=_intake_fast_key,
    durable=lambda raw: raw["kind"] != _ACK,
)


@dataclass(frozen=True)
class IntakeRecord:
    """One intact intake-queue record.

    Attributes
    ----------
    sequence:
        File-wide 1-based append counter (monotonic across compactions).
    kind:
        ``"cursor"``, ``"submission"``, ``"deferred"`` or ``"ack"``.
    repo_sequence:
        For cursors: the repository sequence every processed submission
        lies below.  For submissions: the repository sequence the
        submission becomes.  For deferrals and acks: the submission's
        ``repo_sequence``.
    recorded_at:
        ISO-8601 UTC stamp (operational metadata, never load-bearing).
    payload:
        Submission content (``model_pickle``, ``message``, ``author``,
        and ``started`` when set).
    """

    sequence: int
    kind: str
    repo_sequence: int
    recorded_at: str
    payload: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def _from_raw(cls, raw: dict[str, Any]) -> "IntakeRecord":
        return cls(
            sequence=int(raw["sequence"]),
            kind=str(raw["kind"]),
            repo_sequence=int(raw["repo_sequence"]),
            recorded_at=str(raw.get("recorded_at", "")),
            payload=dict(raw.get("payload") or {}),
        )

    @property
    def started(self) -> bool:
        """Whether the submission was appended as started."""
        return bool(self.payload.get("started"))

    def model(self) -> Any:
        """Unpickle the submitted model (submission records only)."""
        return decode_model(self.payload["model_pickle"])


@dataclass(frozen=True)
class IntakeScan:
    """Read-only classification of an intake file (fleet fsck).

    ``records`` counts intact records of all kinds; ``pending`` are
    submissions at or past the newest cursor without an ack (what a
    drain would replay), ``acked`` those with one.  ``models`` are the
    intake sequences of every submission (what a journal may name).  ``corrupt_lines`` are 1-based numbers of damaged
    lines *followed by* intact records (reading raises);
    ``torn_tail_bytes`` the tolerated invalid trailing region.
    """

    path: Path
    exists: bool
    records: int
    pending: int
    acked: int
    corrupt_lines: tuple[int, ...]
    torn_tail_bytes: int
    models: frozenset[int] = frozenset()


class IntakeQueue:
    """One tenant's durable intake queue (``<tenant-dir>/intake.jsonl``).

    Made by :meth:`create`; opening heals a torn tail like the journal
    (``heal=False`` leaves the file as it is, for read-only inspection
    that never appends).  ``sync=False`` skips fsyncs, giving up
    accept-then-never-lose; ``clock`` stamps ``recorded_at``.  Pending
    submissions are held in memory; every other record that keeps a
    model is held as its index entry only and read back on demand.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        sync: bool = True,
        clock: Callable[[], datetime] | None = None,
        heal: bool = True,
    ):
        self.path = Path(path)
        if not self.path.exists():
            raise PersistenceError(
                f"intake queue {self.path} does not exist; create it with "
                "IntakeQueue.create()"
            )
        self._clock = clock or (lambda: datetime.now(timezone.utc))
        self._log = AppendLog(self.path, _INTAKE, sync=sync, heal=heal)
        self._next_sequence = 1
        self._next_repo_sequence = 0
        self._acked: set[int] = set()
        self._pending: dict[int, IntakeRecord] = {}
        # Every submission below this repository sequence is processed.
        self._through = 0
        # repo_sequence -> intake sequence of every started submission
        # still in the file (pending or processed), and -> the deferral
        # marker of every deferred one.
        self._started: dict[int, int] = {}
        self._deferred: dict[int, int] = {}
        #: Repository sequences below this are covered by the tenant's
        #: oldest retained valid snapshot (set by the service's retention
        #: pass; 0 until one runs in this process).
        self.covered = 0
        # Damage mid-file is left for records() to raise on, as before.
        for raw in self._log.records(strict=False):
            self._fold(IntakeRecord._from_raw(raw))

    @classmethod
    def create(
        cls,
        path: str | Path,
        *,
        base_repo_sequence: int = 0,
        sync: bool = True,
        clock: Callable[[], datetime] | None = None,
    ) -> "IntakeQueue":
        """Create a fresh queue anchored at ``base_repo_sequence``.

        The genesis cursor records the tenant repository's length at
        creation, so every later submission's ``repo_sequence`` is
        derivable from the file alone.  The file appears whole or not at
        all (temp-then-rename).
        """
        path = Path(path)
        if path.exists():
            raise PersistenceError(f"intake queue {path} already exists")
        path.parent.mkdir(parents=True, exist_ok=True)
        stamp = (clock or (lambda: datetime.now(timezone.utc)))()
        cursor = IntakeRecord(1, _CURSOR, int(base_repo_sequence), stamp.isoformat())
        AppendLog(path, _INTAKE, sync=sync).rewrite(render_line(to_jsonable(cursor)))
        return cls(path, sync=sync, clock=clock)

    def _fold(self, record: IntakeRecord) -> None:
        self._next_sequence = max(self._next_sequence, record.sequence + 1)
        key = record.repo_sequence
        if record.kind == _CURSOR:
            self._next_repo_sequence = max(self._next_repo_sequence, key)
            self._through = max(self._through, key)
            self._acked = {k for k in self._acked if k >= self._through}
        elif record.kind == _SUBMISSION:
            if key >= self._through:
                self._pending[key] = record
            if record.started:
                self._started[key] = record.sequence
            self._next_repo_sequence = max(self._next_repo_sequence, key + 1)
        elif record.kind == _DEFERRED:
            self._started.pop(key, None)
            self._deferred[key] = record.sequence
        elif record.kind == _ACK:
            self._acked.add(key)
            self._pending.pop(key, None)
            self._deferred.pop(key, None)

    # -- inspection ----------------------------------------------------------
    @property
    def next_repo_sequence(self) -> int:
        """The repository sequence the next accepted submission becomes."""
        return self._next_repo_sequence

    @property
    def pending_count(self) -> int:
        """Accepted-but-unacknowledged submissions (the queue's depth)."""
        return len(self._pending)

    @property
    def acked_count(self) -> int:
        """Submissions acknowledged since the last compaction."""
        return len(self._acked)

    def pending(self) -> list[IntakeRecord]:
        """Unacknowledged submissions, in repository-sequence order."""
        return [self._pending[key] for key in sorted(self._pending)]

    def is_started(self, repo_sequence: int) -> bool:
        """Whether the submission at ``repo_sequence`` is started, not deferred."""
        return repo_sequence in self._started

    def started_since(self, repo_sequence: int) -> list[IntakeRecord]:
        """Started submissions at or past ``repo_sequence``, acked or not.

        Read back through the log's byte-offset index (only their lines
        are read, verified and parsed), in repository-sequence order: what
        a restore replays from the intake.
        """
        wanted = {
            sequence
            for key, sequence in self._started.items()
            if key >= repo_sequence
        }
        if not wanted:
            return []
        records = [
            IntakeRecord._from_raw(_INTAKE.parse(chunk))
            for _, chunk in self._log.read(wanted)
        ]
        return sorted(records, key=lambda record: record.repo_sequence)

    def close(self) -> None:
        """Close the cached append handle (reopened lazily on next append)."""
        self._log.close()

    # -- writing -------------------------------------------------------------
    def _append_record(
        self, kind: str, repo_sequence: int, payload: dict[str, Any]
    ) -> IntakeRecord:
        record = IntakeRecord(
            sequence=self._next_sequence,
            kind=kind,
            repo_sequence=int(repo_sequence),
            recorded_at=self._clock().isoformat(),
            payload=payload,
        )
        self._log.append(to_jsonable(record))
        self._next_sequence += 1
        self._fold(record)
        return record

    def append(
        self,
        model: Any,
        *,
        message: str = "",
        author: str = "developer",
        started: bool = False,
    ) -> IntakeRecord:
        """Durably accept one submission; fsynced before returning.

        The returned record's ``repo_sequence`` is the submission's
        identity for acknowledgement and for locating its eventual build
        (``BuildRecord.commit.sequence`` equals it).  ``started`` marks
        a submission the caller processes at once (see the module doc).
        If the append fails (a ``tear`` at ``intake.append``, ``errno``
        at ``intake.write``) the submission was not accepted.
        """
        payload = {
            "model_pickle": encode_model(model),
            "message": str(message),
            "author": str(author),
        }
        if started:
            payload["started"] = True
        return self._append_record(_SUBMISSION, self._next_repo_sequence, payload)

    def defer(self, repo_sequence: int) -> IntakeRecord:
        """Mark the started submission at ``repo_sequence`` not begun (fsynced)."""
        return self._append_record(_DEFERRED, repo_sequence, {})

    def ack(self, repo_sequence: int) -> IntakeRecord:
        """Mark the submission at ``repo_sequence`` processed (not fsynced)."""
        return self._append_record(_ACK, repo_sequence, {})

    def compact(self) -> int:
        """Retire acknowledged submissions; return how many were dropped.

        A rewrite (temp, fsync, rename) keeps a fresh cursor at the
        oldest pending submission, every processed started submission
        :attr:`covered` has not passed (its ack dropped: the cursor says
        it is processed), and the pending entries with their deferrals,
        all under their original sequences.  When nothing can be dropped
        — every acknowledged submission is started and not yet covered —
        it appends that cursor instead (fsynced), so the acks it retires
        cost no rewrite.  The fleet runs it when a tenant's acknowledged
        entries reach its ``snapshot_every`` cadence and on storage
        reclamation.  A crash leaves the previous file intact.
        """
        through = min(self._pending, default=self._next_repo_sequence)
        processed = [key for key in self._started if key < through]
        kept = sorted(key for key in processed if key >= self.covered)
        if len(kept) == len(processed) and self._acked <= set(self._started):
            if self._acked:
                self._append_record(_CURSOR, through, {})
            return 0
        sequences = {self._started[key] for key in kept}
        sequences.update(record.sequence for record in self._pending.values())
        sequences.update(self._deferred.values())
        chunks = {line.sequence: chunk for line, chunk in self._log.read(sequences)}
        if len(chunks) < len(sequences):
            raise PersistenceError(
                f"intake queue {self.path} lost a record it must keep; "
                "compaction refused"
            )
        submissions = sum(line.kind == _SUBMISSION for line in self._log.lines)
        cursor = IntakeRecord(
            sequence=self._next_sequence,
            kind=_CURSOR,
            repo_sequence=through,
            recorded_at=self._clock().isoformat(),
        )
        lines = [render_line(to_jsonable(cursor))]
        lines += [chunks[self._started[key]] for key in kept]
        for key in sorted(self._pending):
            lines.append(chunks[self._pending[key].sequence])
            if key in self._deferred:
                lines.append(chunks[self._deferred[key]])
        self._log.rewrite(b"".join(lines))
        self._acked.clear()
        self._through = through
        self._started = {
            key: sequence
            for key, sequence in self._started.items()
            if key >= through or key in kept
        }
        self._next_sequence = cursor.sequence + 1
        return submissions - len(kept) - len(self._pending)

    # -- reading -------------------------------------------------------------
    def records(self) -> Iterator[IntakeRecord]:
        """Yield every intact record, oldest first (raising like the journal)."""
        return map(IntakeRecord._from_raw, self._log.records())


def scan_intake(path: str | Path) -> IntakeScan:
    """Classify an intake file without opening it for repair (read-only)."""
    path = Path(path)
    log = AppendLog(path, _INTAKE, heal=False)
    keys: dict[str, set[int]] = {_CURSOR: set(), _SUBMISSION: set(), _ACK: set()}
    for raw in log.records(tuple(keys), strict=False):
        keys[raw["kind"]].add(int(raw["repo_sequence"]))
    through = max(keys[_CURSOR], default=0)
    submissions = {key for key in keys[_SUBMISSION] if key >= through}
    return IntakeScan(
        path=path,
        exists=path.exists(),
        records=sum(line.sequence is not None for line in log.lines),
        pending=len(submissions - keys[_ACK]),
        acked=len(submissions & keys[_ACK]),
        corrupt_lines=log.corrupt_lines,
        torn_tail_bytes=log.torn_tail_bytes,
        models=frozenset(
            line.sequence for line in log.lines if line.kind == _SUBMISSION
        ),
    )

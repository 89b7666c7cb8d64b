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
    Written once at queue creation: the tenant repository's length at
    that moment.  Every later repository sequence is derived from it, so
    the queue is self-describing even when empty or freshly compacted.
``submission``
    One accepted webhook submission: the pickled model (base64, like the
    journal's ``commit-received`` records), message, author, and the
    ``repo_sequence`` this submission will occupy in the tenant's
    repository.  Submissions are processed strictly in order, so the
    mapping is fixed at append time.
``ack``
    The submission at ``repo_sequence`` has been fully processed (its
    commit is journaled in the tenant's own event journal).  A crash
    *between* the commit landing in the tenant journal and the ack being
    appended is healed at the next drain: the entry's ``repo_sequence``
    is already below the repository length, so the drain re-acks it
    without re-running the build — never a duplicate.

Crash model
-----------
The queue is an :class:`~repro.ci.appendlog.AppendLog`, like the event
journal: every append is flushed; cursors and submissions are fsynced
before returning, acks only reach disk with the next fsync (a lost ack
heals as above).  Fault-injection points ``intake.append`` (``tear``)
and ``intake.write`` (``errno``).
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
_ACK = "ack"
_KINDS = frozenset({_CURSOR, _SUBMISSION, _ACK})

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


#: The intake's log schema.  Submissions and cursors are fsynced —
#: ``enqueue`` promises an accepted submission is never lost — while an
#: ack is only flushed: a lost ack is healed by the next drain.
_INTAKE = LogSchema(
    noun="intake queue",
    sites="intake",
    source="fleet.intake",
    key=_intake_key,
    fast_key=_intake_fast_key,
    durable=frozenset({_CURSOR, _SUBMISSION}),
)


@dataclass(frozen=True)
class IntakeRecord:
    """One intact intake-queue record.

    Attributes
    ----------
    sequence:
        File-wide 1-based append counter (monotonic across compactions).
    kind:
        ``"cursor"``, ``"submission"`` or ``"ack"``.
    repo_sequence:
        For cursors: the repository length the queue starts from.  For
        submissions: the repository sequence this submission becomes.
        For acks: the acknowledged submission's ``repo_sequence``.
    recorded_at:
        ISO-8601 UTC stamp (operational metadata, never load-bearing).
    payload:
        Submission-only content (``model_pickle``, ``message``,
        ``author``).
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

    def model(self) -> Any:
        """Unpickle the submitted model (submission records only)."""
        return decode_model(self.payload["model_pickle"])


@dataclass(frozen=True)
class IntakeScan:
    """Read-only classification of an intake file (fleet fsck).

    ``records`` counts intact records of all kinds; ``pending`` are
    submissions without an ack (what a drain would replay), ``acked``
    those with one.  ``corrupt_lines`` are 1-based numbers of damaged
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


class IntakeQueue:
    """One tenant's durable intake queue (``<tenant-dir>/intake.jsonl``).

    Made by :meth:`create`; opening heals a torn tail like the journal.
    ``sync=False`` skips fsyncs, giving up accept-then-never-lose;
    ``clock`` stamps ``recorded_at``.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        sync: bool = True,
        clock: Callable[[], datetime] | None = None,
    ):
        self.path = Path(path)
        if not self.path.exists():
            raise PersistenceError(
                f"intake queue {self.path} does not exist; create it with "
                "IntakeQueue.create()"
            )
        self._clock = clock or (lambda: datetime.now(timezone.utc))
        self._log = AppendLog(self.path, _INTAKE, sync=sync)
        self._next_sequence = 1
        self._next_repo_sequence = 0
        self._acked: set[int] = set()
        self._pending: dict[int, IntakeRecord] = {}
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
        if record.kind == _CURSOR:
            self._next_repo_sequence = max(
                self._next_repo_sequence, record.repo_sequence
            )
        elif record.kind == _SUBMISSION:
            self._pending[record.repo_sequence] = record
            self._next_repo_sequence = max(
                self._next_repo_sequence, record.repo_sequence + 1
            )
        elif record.kind == _ACK:
            self._acked.add(record.repo_sequence)
            self._pending.pop(record.repo_sequence, None)

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
        self, model: Any, *, message: str = "", author: str = "developer"
    ) -> IntakeRecord:
        """Durably accept one submission; fsynced before returning.

        The returned record's ``repo_sequence`` is the submission's
        identity for acknowledgement and for locating its eventual build
        (``BuildRecord.commit.sequence`` equals it).  If the append fails
        (a ``tear`` at ``intake.append``, ``errno`` at ``intake.write``)
        the submission was not accepted.
        """
        return self._append_record(
            _SUBMISSION,
            self._next_repo_sequence,
            {
                "model_pickle": encode_model(model),
                "message": str(message),
                "author": str(author),
            },
        )

    def ack(self, repo_sequence: int) -> IntakeRecord:
        """Mark the submission at ``repo_sequence`` processed (not fsynced)."""
        return self._append_record(_ACK, repo_sequence, {})

    def compact(self) -> int:
        """Atomically rewrite the file without acknowledged submissions.

        Keeps a fresh cursor (anchored past every acknowledged
        submission) plus the pending entries, preserving their original
        sequences; returns the number of records dropped.  The fleet
        runs it when a tenant's acknowledged entries reach its
        ``snapshot_every`` cadence and on storage reclamation, bounding
        the file by pending depth plus one cadence.  Temp-then-rename:
        a crash leaves the previous file intact.
        """
        pending = self.pending()
        cursor = IntakeRecord(
            sequence=self._next_sequence,
            kind=_CURSOR,
            repo_sequence=self._next_repo_sequence - len(pending),
            recorded_at=self._clock().isoformat(),
        )
        self._log.rewrite(
            b"".join(render_line(to_jsonable(r)) for r in [cursor, *pending])
        )
        dropped = len(self._acked)
        self._acked.clear()
        self._next_sequence = cursor.sequence + 1
        return dropped

    # -- reading -------------------------------------------------------------
    def records(self) -> Iterator[IntakeRecord]:
        """Yield every intact record, oldest first (raising like the journal)."""
        return map(IntakeRecord._from_raw, self._log.records())


def scan_intake(path: str | Path) -> IntakeScan:
    """Classify an intake file without opening it for repair (read-only)."""
    path = Path(path)
    log = AppendLog(path, _INTAKE, heal=False)
    submissions: set[int] = set()
    acked: set[int] = set()
    for raw in log.records((_SUBMISSION, _ACK), strict=False):
        target = submissions if raw["kind"] == _SUBMISSION else acked
        target.add(int(raw["repo_sequence"]))
    return IntakeScan(
        path=path,
        exists=path.exists(),
        records=sum(line.sequence is not None for line in log.lines),
        pending=len(submissions - acked),
        acked=len(submissions & acked),
        corrupt_lines=log.corrupt_lines,
        torn_tail_bytes=log.torn_tail_bytes,
    )

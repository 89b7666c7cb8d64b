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
Identical to :class:`repro.ci.persistence.EventJournal`: every append is
flushed (and fsynced) before returning; a torn *trailing* line is a
crash artifact whose event never happened — it is quarantined into a
sidecar file and truncated at the next open; garbage followed by intact
records is real corruption and raises :class:`PersistenceError`.
The ``intake.append`` fault-injection point simulates the mid-append
crash (``tear``); ``intake.write`` simulates the disk filling or dying
(``errno`` → ``ENOSPC``/``EIO``) before any byte lands.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.ci.persistence import decode_model, encode_model
from repro.exceptions import PersistenceError
from repro.reliability.events import record_event
from repro.reliability.faults import InjectedFault, fault_point, torn_bytes

__all__ = ["IntakeRecord", "IntakeScan", "IntakeQueue", "scan_intake"]

_CURSOR = "cursor"
_SUBMISSION = "submission"
_ACK = "ack"
_KINDS = frozenset({_CURSOR, _SUBMISSION, _ACK})


def _crc32(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def _parse_intake_line(line: str) -> dict[str, Any] | None:
    """Parse one intake line, or ``None`` when it is not an intact record.

    ``None`` covers unparseable JSON, a missing/unknown ``kind``, a
    missing sequence, and a CRC mismatch against the canonical
    serialization of the rest of the line.
    """
    try:
        raw = json.loads(line)
        int(raw["sequence"])
        if raw["kind"] not in _KINDS:
            return None
    except (ValueError, KeyError, TypeError):
        return None
    if not isinstance(raw, dict):
        return None
    crc = raw.pop("crc", None)
    if crc is None:
        return None
    body = json.dumps(raw, sort_keys=True).encode("utf-8")
    if crc != _crc32(body):
        return None
    return raw


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
    payload:
        Submission-only content (``model_pickle``, ``message``,
        ``author``).
    recorded_at:
        ISO-8601 UTC stamp (operational metadata, never load-bearing).
    """

    sequence: int
    kind: str
    repo_sequence: int
    recorded_at: str
    payload: dict[str, Any] = field(default_factory=dict)

    def model(self) -> Any:
        """Unpickle the submitted model (submission records only)."""
        return decode_model(self.payload["model_pickle"])


@dataclass(frozen=True)
class IntakeScan:
    """Read-only classification of an intake file (fleet fsck).

    Attributes
    ----------
    path:
        The scanned intake file.
    exists:
        Whether the file exists at all.
    records:
        Count of intact records (all kinds).
    pending:
        Submissions with no ack — the replay a drain would perform.
    acked:
        Submissions already acknowledged.
    corrupt_lines:
        1-based numbers of damaged lines *followed by* intact records
        (real corruption; reading raises).
    torn_tail_bytes:
        Size of the invalid trailing region (tolerated crash artifact).
    """

    path: Path
    exists: bool
    records: int
    pending: int
    acked: int
    corrupt_lines: tuple[int, ...]
    torn_tail_bytes: int


class IntakeQueue:
    """One tenant's durable intake queue.

    Parameters
    ----------
    path:
        The intake file (``<tenant-dir>/intake.jsonl``).  Created — with
        its genesis cursor — by :meth:`create`; opening an existing file
        scans it once, healing a torn trailing line exactly like the
        event journal.
    sync:
        Fsync every append (default).  Turning it off trades the
        accept-then-never-lose guarantee for throughput.
    clock:
        Timestamp source for ``recorded_at``; injectable for tests.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        sync: bool = True,
        clock: Callable[[], datetime] | None = None,
    ):
        self.path = Path(path)
        self.sync = bool(sync)
        self._clock = clock or (lambda: datetime.now(timezone.utc))
        self._base = 0
        self._next_sequence = 1
        self._next_repo_sequence = 0
        self._acked: set[int] = set()
        self._pending: dict[int, IntakeRecord] = {}
        if self.path.exists():
            self._open_and_scan()
        else:
            raise PersistenceError(
                f"intake queue {self.path} does not exist; create it with "
                "IntakeQueue.create()"
            )

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
        derivable from the file alone.
        """
        path = Path(path)
        if path.exists():
            raise PersistenceError(f"intake queue {path} already exists")
        path.parent.mkdir(parents=True, exist_ok=True)
        stamp = (clock or (lambda: datetime.now(timezone.utc)))()
        record = {
            "sequence": 1,
            "kind": _CURSOR,
            "repo_sequence": int(base_repo_sequence),
            "recorded_at": stamp.isoformat(),
            "payload": {},
        }
        body = json.dumps(record, sort_keys=True).encode("utf-8")
        record["crc"] = _crc32(body)
        data = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        with open(path, "wb") as handle:
            handle.write(data)
            handle.flush()
            if sync:
                os.fsync(handle.fileno())
        return cls(path, sync=sync, clock=clock)

    # -- scanning ------------------------------------------------------------
    def _open_and_scan(self) -> None:
        """Fold every intact record into counters; heal a torn tail.

        Mirrors :meth:`EventJournal._repair_and_scan`: the torn trailing
        bytes are quarantined into a sidecar (forensics, never state) and
        truncated so the append-mode writer cannot merge into them.
        """
        raw = self.path.read_bytes()
        valid_end = offset = 0
        for chunk in raw.splitlines(keepends=True):
            offset += len(chunk)
            line = chunk.decode("utf-8", errors="replace").strip()
            if not line:
                valid_end = offset
                continue
            parsed = _parse_intake_line(line)
            if parsed is None:
                continue  # valid_end stays put; trailing garbage truncates
            self._fold(parsed)
            valid_end = offset
        if valid_end < len(raw):
            torn = raw[valid_end:]
            sidecar = self.path.with_name(
                f"{self.path.name}.torn-{valid_end}.quarantined"
            )
            sidecar.write_bytes(torn)
            record_event(
                "intake-torn-tail",
                "fleet.intake",
                intake=str(self.path),
                quarantined=str(sidecar),
                torn_bytes=len(torn),
            )
            with open(self.path, "r+b") as handle:
                handle.truncate(valid_end)

    def _fold(self, parsed: dict[str, Any]) -> None:
        record = IntakeRecord(
            sequence=int(parsed["sequence"]),
            kind=str(parsed["kind"]),
            repo_sequence=int(parsed["repo_sequence"]),
            recorded_at=str(parsed.get("recorded_at", "")),
            payload=dict(parsed.get("payload") or {}),
        )
        self._next_sequence = max(self._next_sequence, record.sequence + 1)
        if record.kind == _CURSOR:
            self._base = record.repo_sequence
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
        rendered = {
            "sequence": record.sequence,
            "kind": record.kind,
            "repo_sequence": record.repo_sequence,
            "recorded_at": record.recorded_at,
            "payload": dict(record.payload),
        }
        body = json.dumps(rendered, sort_keys=True).encode("utf-8")
        rendered["crc"] = _crc32(body)
        data = (json.dumps(rendered, sort_keys=True) + "\n").encode("utf-8")
        torn = torn_bytes(data, fault_point("intake.append"))
        fault_point("intake.write")  # errno: the disk fills before any byte lands
        with open(self.path, "ab") as handle:
            handle.write(data if torn is None else torn)
            handle.flush()
            if self.sync:
                os.fsync(handle.fileno())
            if torn is not None:
                raise InjectedFault(
                    "intake.append", f"write torn at byte {len(torn)}"
                )
        self._next_sequence += 1
        return record

    def append(
        self, model: Any, *, message: str = "", author: str = "developer"
    ) -> IntakeRecord:
        """Durably accept one submission; fsynced before returning.

        The returned record's ``repo_sequence`` is the submission's
        identity for acknowledgement and for locating its eventual build
        (``BuildRecord.commit.sequence`` equals it).

        Fault-injection point: ``intake.append`` (``tear`` writes a
        partial line then raises — the crash-mid-accept the next open
        self-heals; by the crash model the submission was *not*
        accepted).
        """
        record = self._append_record(
            _SUBMISSION,
            self._next_repo_sequence,
            {
                "model_pickle": encode_model(model),
                "message": str(message),
                "author": str(author),
            },
        )
        self._pending[record.repo_sequence] = record
        self._next_repo_sequence = record.repo_sequence + 1
        return record

    def ack(self, repo_sequence: int) -> IntakeRecord:
        """Durably mark the submission at ``repo_sequence`` processed."""
        record = self._append_record(_ACK, repo_sequence, {})
        self._acked.add(record.repo_sequence)
        self._pending.pop(record.repo_sequence, None)
        return record

    def compact(self) -> int:
        """Atomically rewrite the file without acknowledged submissions.

        Keeps a fresh cursor (anchored past every acknowledged
        submission) plus the pending entries, preserving their original
        sequences.  It is the only write an ordinary fleet eviction
        makes (see :meth:`repro.fleet.CIFleet._try_evict`), and it
        bounds the evicted tenant's intake file by its *pending* depth,
        not its lifetime traffic.
        Returns the number of records dropped.  Written
        temp-then-rename, so a crash mid-compaction leaves the previous
        file intact.
        """
        pending = self.pending()
        base = self._next_repo_sequence - len(pending)
        stamp = self._clock().isoformat()
        lines = []
        cursor = {
            "sequence": self._next_sequence,
            "kind": _CURSOR,
            "repo_sequence": base,
            "recorded_at": stamp,
            "payload": {},
        }
        records = [cursor] + [
            {
                "sequence": record.sequence,
                "kind": record.kind,
                "repo_sequence": record.repo_sequence,
                "recorded_at": record.recorded_at,
                "payload": dict(record.payload),
            }
            for record in pending
        ]
        for rendered in records:
            body = json.dumps(rendered, sort_keys=True).encode("utf-8")
            rendered["crc"] = _crc32(body)
            lines.append(json.dumps(rendered, sort_keys=True))
        data = ("\n".join(lines) + "\n").encode("utf-8")
        temp = self.path.with_name(self.path.name + ".tmp")
        with open(temp, "wb") as handle:
            handle.write(data)
            handle.flush()
            if self.sync:
                os.fsync(handle.fileno())
        os.replace(temp, self.path)
        dropped = len(self._acked)
        self._acked.clear()
        self._base = base
        self._next_sequence = cursor["sequence"] + 1
        return dropped

    # -- reading -------------------------------------------------------------
    def records(self) -> Iterator[IntakeRecord]:
        """Yield every intact record, oldest first.

        A damaged line followed by intact records raises
        :class:`PersistenceError` (mirroring the journal's corruption
        contract); a torn trailing line was already healed at open.
        """
        if not self.path.exists():
            return
        lines = self.path.read_text(encoding="utf-8").splitlines()
        pending_error: PersistenceError | None = None
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            parsed = _parse_intake_line(line)
            if parsed is None:
                pending_error = PersistenceError(
                    f"intake queue {self.path} line {number} is corrupt "
                    "(non-trailing): malformed or checksum mismatch"
                )
                continue
            if pending_error is not None:
                raise pending_error
            yield IntakeRecord(
                sequence=int(parsed["sequence"]),
                kind=str(parsed["kind"]),
                repo_sequence=int(parsed["repo_sequence"]),
                recorded_at=str(parsed.get("recorded_at", "")),
                payload=dict(parsed.get("payload") or {}),
            )


def scan_intake(path: str | Path) -> IntakeScan:
    """Classify an intake file without opening it for repair (read-only)."""
    path = Path(path)
    if not path.exists():
        return IntakeScan(
            path=path,
            exists=False,
            records=0,
            pending=0,
            acked=0,
            corrupt_lines=(),
            torn_tail_bytes=0,
        )
    raw = path.read_bytes()
    records = 0
    submissions: set[int] = set()
    acked: set[int] = set()
    invalid_offsets: list[tuple[int, int]] = []  # (line number, start offset)
    valid_end = offset = number = 0
    for chunk in raw.splitlines(keepends=True):
        start = offset
        offset += len(chunk)
        number += 1
        line = chunk.decode("utf-8", errors="replace").strip()
        if not line:
            valid_end = offset
            continue
        parsed = _parse_intake_line(line)
        if parsed is None:
            invalid_offsets.append((number, start))
            continue
        records += 1
        valid_end = offset
        if parsed["kind"] == _SUBMISSION:
            submissions.add(int(parsed["repo_sequence"]))
        elif parsed["kind"] == _ACK:
            acked.add(int(parsed["repo_sequence"]))
    return IntakeScan(
        path=path,
        exists=True,
        records=records,
        pending=len(submissions - acked),
        acked=len(submissions & acked),
        corrupt_lines=tuple(
            n for n, start in invalid_offsets if start < valid_end
        ),
        torn_tail_bytes=len(raw) - valid_end,
    )

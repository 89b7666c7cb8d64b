"""One durable append-only log: CRC-framed JSON lines with group commit.

The event journal (:class:`repro.ci.persistence.EventJournal`) is this
log; a fleet tenant's journal also holds its intake queue's records
(:class:`repro.fleet.intake.IntakeQueue`), so each tenant has one file.
A :class:`LogSchema` names the record keys.  The log owns:

* **Framing.**  A record is one sorted-key JSON line led by ``"crc"``,
  the CRC-32 of the line without that field.  The CRC is checked over
  the line's own bytes; only a line not in that exact form is parsed and
  re-serialized instead, so the accepted lines are unchanged.
* **Group commit.**  Every append is flushed, so it survives process
  death.  Only the appends the caller calls ``durable`` (the ones that
  precede an external effect) fsync, and each fsync makes every earlier
  append durable too; :meth:`AppendLog.sync` flushes the rest.  A power
  loss drops at most what was written since the file's last fsync.
* **Healing.**  A torn tail is moved to a
  ``<name>.torn-<offset>.quarantined`` sidecar (never deleted) and
  truncated, at open or at once after a failed append (retried before
  the next append if the truncation itself fails).  Damage followed by
  intact records is corruption: reading raises
  :class:`~repro.exceptions.PersistenceError`.
* **Compaction** (:meth:`AppendLog.rewrite`): temp file, fsync, rename.
* **The index.**  One scan at open records each line's byte range,
  sequence and kind, so reads parse only the records asked for.  A file
  whose size no longer matches (another writer) is rescanned, and every
  line handed out is re-verified first.

Fault-injection points ``<sites>.append`` (``tear``), ``<sites>.write``
(``errno``, before any byte lands) and ``<sites>.fsync`` (after the
write), under the schema's prefix or the one an append names.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Collection, Iterator, NamedTuple

from repro.exceptions import PersistenceError
from repro.reliability.events import record_event
from repro.reliability.faults import InjectedFault, fault_point, torn_bytes

__all__ = [
    "AppendLog",
    "LogLine",
    "LogSchema",
    "crc32",
    "quarantine_path",
    "render_line",
    "replace_atomically",
]

_HEAD = re.compile(rb'\{"crc": (0|[1-9][0-9]*), ')
_BRACE_CRC = zlib.crc32(b"{")
_BLANK = ()

Key = tuple[int, str]


def crc32(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def render_line(record: dict[str, Any]) -> bytes:
    """The canonical line of ``record`` (JSON-ready, every key after "crc").

    Byte-identical to ``json.dumps({**record, "crc": N}, sort_keys=True)``
    plus a newline, with ``N`` the CRC-32 of the record's own sorted-key
    serialization — one ``json.dumps`` instead of two.
    """
    body = json.dumps(record, sort_keys=True).encode("utf-8")
    return b'{"crc": %d, %s\n' % (crc32(body), body[1:])


def _exact(line: bytes) -> bool:
    """Whether ``line`` is canonical and its CRC matches its own bytes."""
    head = _HEAD.match(line)
    return head is not None and int(head[1]) == zlib.crc32(
        line[head.end():], _BRACE_CRC
    )


def _reserialized(
    text: str, legacy: Callable[[dict[str, Any]], bool] | None
) -> dict[str, Any] | None:
    """The re-serializing check: parse, drop ``crc``, dump, compare."""
    try:
        raw = json.loads(text)
    except ValueError:
        return None
    if not isinstance(raw, dict):
        return None
    crc = raw.pop("crc", None)
    if crc is None:
        return raw if legacy and legacy(raw) else None
    body = json.dumps(raw, sort_keys=True).encode("utf-8")
    return raw if crc == crc32(body) else None


@dataclass(frozen=True)
class LogSchema:
    """One kind of log: its names and record keys.

    ``noun`` names the log in errors; ``sites`` prefixes its fault sites
    and its ``<sites>-torn-tail`` event (from ``source``).  ``key`` gives
    a parsed record's ``(sequence, kind)`` or raises ``KeyError``,
    ``TypeError`` or ``ValueError``; ``fast_key`` reads them off a
    CRC-verified canonical line without parsing (``None``: use ``key``).
    ``legacy``, when given, accepts a line without a ``crc`` whose
    record it holds true for (records written before checksums).
    """

    noun: str
    sites: str
    source: str
    key: Callable[[dict[str, Any]], Key]
    fast_key: Callable[[bytes], Key | None]
    legacy: Callable[[dict[str, Any]], bool] | None = None

    def classify(self, chunk: bytes) -> Key | tuple[()] | None:
        """``(sequence, kind)`` of an intact line, ``()`` if blank, else None."""
        line = chunk.rstrip(b"\r\n")
        if _exact(line):
            key = self.fast_key(line)
            if key is not None:
                return key
        text = chunk.decode("utf-8", errors="replace").strip()
        if not text:
            return _BLANK
        raw = _reserialized(text, self.legacy)
        if raw is None:
            return None
        try:
            return self.key(raw)
        except (KeyError, TypeError, ValueError):
            return None

    def parse(self, chunk: bytes) -> dict[str, Any]:
        """The record on a line :meth:`classify` found intact (not re-checked)."""
        raw = json.loads(chunk.decode("utf-8", errors="replace"))
        raw.pop("crc", None)
        return raw


class LogLine(NamedTuple):
    """One line of a log: bytes ``[start, end)`` including its newline.

    ``sequence`` is ``None`` for a damaged line; ``number`` (1-based) is
    kept for damaged lines, which error messages and fsck name.
    """

    start: int
    end: int
    sequence: int | None
    kind: str | None
    number: int = 0


def replace_atomically(
    path: Path,
    data: bytes,
    *,
    sync: bool = True,
    fsync_site: str | None = None,
    rename_site: str | None = None,
) -> None:
    """Make ``path`` hold ``data`` whole or not at all: temp, fsync, rename.

    The optional fault sites are traversed before the fsync and before
    the rename; on any failure the temp file is removed.
    """
    temp = path.with_name(path.name + ".tmp")
    try:
        with open(temp, "wb") as handle:
            handle.write(data)
            handle.flush()
            if fsync_site:
                fault_point(fsync_site)
            if sync:
                os.fsync(handle.fileno())
        if rename_site:
            fault_point(rename_site)
        os.replace(temp, path)
    except BaseException:
        try:
            temp.unlink(missing_ok=True)
        except OSError:
            pass
        raise


def quarantine_path(path: Path, tag: str = "") -> Path:
    """``<path><tag>.quarantined``, numbered ``.1``, ``.2`` past existing ones."""
    target, suffix = path.with_name(f"{path.name}{tag}.quarantined"), 0
    while target.exists():
        suffix += 1
        target = path.with_name(f"{path.name}{tag}.quarantined.{suffix}")
    return target


def _scan(data: bytes, schema: LogSchema) -> tuple[list[LogLine], int]:
    """Every non-blank line of ``data``, plus the end of its valid prefix."""
    lines: list[LogLine] = []
    valid_end = offset = 0
    for number, chunk in enumerate(data.splitlines(keepends=True), start=1):
        start, offset = offset, offset + len(chunk)
        key = schema.classify(chunk)
        if key and not chunk.endswith(b"\n"):
            key = None  # cut before its newline: an append that never finished
        if key is None:
            lines.append(LogLine(start, offset, None, None, number))
            continue  # valid_end stays put: trailing damage is a torn tail
        if key:
            lines.append(LogLine(start, offset, *key))
        valid_end = offset
    return lines, valid_end


class AppendLog:
    """The durable append-only file behind the event journal.

    Opening heals a torn tail and indexes every line.  Appends go through
    one cached ``O_APPEND`` handle, opened lazily, released by :meth:`close`.
    """

    def __init__(
        self,
        path: str | Path,
        schema: LogSchema,
        *,
        sync: bool = True,
        heal: bool = True,
    ):
        self.path = Path(path)
        self.schema = schema
        self._fsync = bool(sync)
        self._handle = None
        self._unsynced = False
        # Where a failed append's truncation itself failed: reads stop
        # there, and the next append cuts there first.
        self._torn_at: int | None = None
        data = self._bytes()
        #: The index: every intact and damaged line up to ``_end``.
        self.lines, self._valid_end = _scan(data, schema)
        self._end = len(data)
        if heal and self._valid_end < len(data):
            # A torn tail must go before the first append: O_APPEND would
            # merge the next record into it, and one append more would
            # make the merged line non-trailing corruption.
            self._cut(self._valid_end)
            self.lines = [line for line in self.lines if line.start < self._valid_end]
            self._end = self._valid_end

    @property
    def torn_tail_bytes(self) -> int:
        """Size of the invalid trailing region at open (0 once healed)."""
        return self._end - self._valid_end

    @property
    def corrupt_lines(self) -> tuple[int, ...]:
        """1-based numbers of damaged lines with intact records after them."""
        return tuple(
            line.number
            for line in self.lines
            if line.sequence is None and line.start < self._valid_end
        )

    @property
    def last_sequence(self) -> int:
        """Sequence of the last intact line (0 when there is none)."""
        intact = (l.sequence for l in reversed(self.lines) if l.sequence is not None)
        return next(intact, 0)

    def _bytes(self) -> bytes:
        """The file's current bytes (empty when it does not exist), short
        of a failed append's bytes that could not be cut yet."""
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return b""
        return data if self._torn_at is None else data[: self._torn_at]

    # -- the append handle ---------------------------------------------------
    def _acquire(self):
        if self._handle is None or self._handle.closed:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "ab")
        return self._handle

    def close(self) -> None:
        """Close the cached append handle (reopened lazily on next append)."""
        handle, self._handle = self._handle, None
        if handle is not None and not handle.closed:
            try:
                handle.close()
            except OSError:
                pass

    def _cut(self, start: int, sites: str | None = None) -> None:
        """Move the bytes from ``start`` on to a sidecar, then truncate."""
        self.close()
        with open(self.path, "r+b") as handle:
            handle.seek(start)
            torn = handle.read()
            if not torn:
                return
            sidecar = quarantine_path(self.path, f".torn-{start}")
            sidecar.write_bytes(torn)  # forensic evidence, never deleted
            handle.truncate(start)
        sites = sites or self.schema.sites
        record_event(
            f"{sites}-torn-tail",
            self.schema.source,
            **{sites: str(self.path)},
            quarantined=str(sidecar),
            torn_bytes=len(torn),
        )

    # -- writing -------------------------------------------------------------
    def append(
        self, record: dict[str, Any], *, durable: bool = False, sites: str | None = None
    ) -> None:
        """Append one JSON-ready record; fsynced before returning if ``durable``.

        ``sites`` prefixes the ``.append``, ``.write`` and ``.fsync``
        fault sites and the torn-tail event (the schema's prefix by
        default).  On any failure the file is truncated back, so the
        record never happened and the next append simply reopens; if
        even the truncation fails, reads stop short of the failed bytes
        until the next append or :meth:`rewrite` removes them.
        """
        sequence, kind = self.schema.key(record)
        data = render_line(record)
        durable = self._fsync and durable
        prefix = sites or self.schema.sites
        if self._torn_at is not None:
            self._cut(self._torn_at)
            self._torn_at = None
        handle = self._acquire()
        start = os.fstat(handle.fileno()).st_size
        try:
            torn = torn_bytes(data, fault_point(f"{prefix}.append"))
            fault_point(f"{prefix}.write")
            handle.write(data if torn is None else torn)
            handle.flush()
            if torn is not None:
                if durable:
                    os.fsync(handle.fileno())
                raise InjectedFault(
                    f"{prefix}.append", f"write torn at byte {len(torn)}"
                )
            fault_point(f"{prefix}.fsync")
            if durable:
                os.fsync(handle.fileno())
        except BaseException:
            # Even a complete line whose fsync failed must go: it would
            # verify, yet the caller is told the record never happened.
            try:
                self._cut(start, prefix)
            except OSError:
                self._torn_at = start  # a disk too broken to truncate now
            raise
        self._unsynced = self._fsync and not durable
        if start == self._end == self._valid_end:
            self.lines.append(LogLine(start, start + len(data), sequence, kind))
            self._end = self._valid_end = start + len(data)
        else:
            self._end = -1  # another writer changed the file: rescan on read

    def sync(self) -> None:
        """Fsync every append since the file's last fsync (no-op if none)."""
        if self._unsynced:
            os.fsync(self._acquire().fileno())
            self._unsynced = False

    def rewrite(self, data: bytes) -> None:
        """Replace the whole file with ``data``: temp file, fsync, rename.

        A failed append's uncut bytes go with the old file.
        """
        self.close()  # the cached handle would point at the old inode
        replace_atomically(self.path, data, sync=self._fsync)
        self._torn_at = None
        self.lines, self._valid_end = _scan(data, self.schema)
        self._end = len(data)
        self._unsynced = False

    # -- reading -------------------------------------------------------------
    def _current(self, kinds: Collection[str] | None, after: int) -> bytes:
        """The file's bytes, with the index brought up to date for them."""
        data = self._bytes()
        if len(data) == self._end and all(
            self.schema.classify(data[line.start:line.end])
            == (line.sequence, line.kind)
            for line in self.lines
            if line.sequence is not None
            and line.sequence > after
            and (kinds is None or line.kind in kinds)
        ):
            return data
        self.lines, self._valid_end = _scan(data, self.schema)
        self._end = len(data)
        return data

    def entries(
        self,
        kinds: Collection[str] | None = None,
        *,
        strict: bool = True,
        after: int = 0,
    ) -> Iterator[tuple[LogLine, bytes]]:
        """Verified intact lines of ``kinds`` (all when ``None``) with bytes.

        Only lines whose sequence exceeds ``after`` are verified and
        yielded.  Reaching an intact record after a damaged line raises
        :class:`PersistenceError` unless ``strict`` is off; damage at the
        end of the file is a torn tail and is skipped.
        """
        data = self._current(kinds, after)
        pending_error: PersistenceError | None = None
        for line in tuple(self.lines):  # appends during the loop are not ours
            if line.sequence is None:
                if not strict:
                    continue
                pending_error = PersistenceError(
                    f"{self.schema.noun} {self.path} line {line.number} is "
                    "corrupt (non-trailing): malformed or checksum mismatch"
                )
                continue
            if pending_error is not None:
                raise pending_error
            if line.sequence > after and (kinds is None or line.kind in kinds):
                yield line, data[line.start:line.end]

    def read(self, sequences: Collection[int]) -> list[tuple[LogLine, bytes]]:
        """The verified intact lines with these sequences, in file order.

        Only those lines are read, by the byte ranges the index holds; a
        file that changed since it was indexed is rescanned instead.
        """
        wanted = [line for line in self.lines if line.sequence in sequences]
        try:
            with open(self.path, "rb") as handle:
                fresh = os.fstat(handle.fileno()).st_size == self._end
                chunks = [
                    os.pread(handle.fileno(), line.end - line.start, line.start)
                    for line in (wanted if fresh else ())
                ]
        except FileNotFoundError:
            fresh = False
        if fresh and all(
            self.schema.classify(chunk) == (line.sequence, line.kind)
            for line, chunk in zip(wanted, chunks)
        ):
            return list(zip(wanted, chunks))
        return [
            (line, chunk)
            for line, chunk in self.entries(strict=False)
            if line.sequence in sequences
        ]

    def records(
        self,
        kinds: Collection[str] | None = None,
        *,
        strict: bool = True,
        after: int = 0,
    ) -> Iterator[dict[str, Any]]:
        """Parsed records of ``kinds`` (all when ``None``), oldest first."""
        for _, chunk in self.entries(kinds, strict=strict, after=after):
            yield self.schema.parse(chunk)

"""A read-only doctor for CI state directories (``repro ops --fsck``).

After a crash — or worse, after silent disk damage — the first question
an operator asks is *"can this state directory still restore, and how
much journal replay will it take?"*.  :func:`fsck_state_dir` answers it
without mutating anything:

* every snapshot file is classified (``valid`` / ``corrupt`` /
  ``unsupported-version``) by reading its envelope and verifying the
  payload checksum — payloads are never unpickled;
* quarantined files (corrupt snapshots moved aside by a previous
  restore, torn journal tails saved by a previous open) are listed;
* the journal is classified with :func:`repro.ci.persistence.scan_journal`
  — which, unlike opening an :class:`~repro.ci.persistence.EventJournal`,
  never truncates a torn trailing line;
* the *replay depth* is computed: how many commits (and journal
  events) lie past the newest valid snapshot — journaled past its
  anchor, or started in a fleet tenant's intake — i.e. how much work
  :meth:`CIService.restore` would re-run;
* in a fleet tenant's dir, every journal record that names an intake
  record (a started submission's ``commit-received``) is checked
  against the intake file: a name whose record is gone is damage.

The whole report is JSON-compatible via
:func:`repro.utils.serialization.to_jsonable` and renders for terminals
through :meth:`FsckReport.describe`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.ci.persistence import JournalScan, SnapshotStore, scan_journal
from repro.exceptions import PersistenceError, SnapshotCorruptError

if TYPE_CHECKING:
    from repro.fleet.intake import IntakeScan

__all__ = ["SnapshotHealth", "FsckReport", "fsck_state_dir"]


@dataclass(frozen=True)
class SnapshotHealth:
    """Classification of one snapshot file.

    Attributes
    ----------
    sequence:
        The snapshot's generation number (from its file name).
    path:
        The snapshot file.
    status:
        ``"valid"`` (envelope reads, checksum matches),
        ``"corrupt"`` (truncated, bit-rotted, or torn), or
        ``"unsupported-version"`` (written by an incompatible build).
    journal_sequence:
        Replay anchor recorded in the envelope (``None`` unless valid).
    repository_length:
        Commits the snapshot's repository held (``None`` unless valid;
        0 for envelopes written before it was recorded).
    error:
        The integrity failure, for corrupt/unsupported files.
    """

    sequence: int
    path: Path
    status: str
    journal_sequence: int | None = None
    repository_length: int | None = None
    error: str | None = None


@dataclass(frozen=True)
class FsckReport:
    """Everything :func:`fsck_state_dir` learned, without mutating anything.

    Attributes
    ----------
    state_dir:
        The inspected directory.
    exists:
        Whether the directory exists at all (every other field is empty
        when it does not).
    snapshots:
        Per-file classification, oldest first.
    quarantined:
        Files a previous restore/open moved aside (corrupt snapshots,
        torn journal tails) — never deleted, always reported.
    journal:
        Read-only journal classification (torn tail *not* truncated).
    restorable:
        Whether at least one valid snapshot exists *and* its anchor
        covers the journal's compaction boundary — a journal compacted
        past every valid snapshot would leave a replay gap, which is
        unrestorable corruption, not a crash artifact.
    restore_sequence:
        The snapshot generation a restore would load (0 when none).
    replay_commits:
        Commits a restore from that snapshot re-runs: the journaled ones
        past its anchor and, in a fleet tenant dir, the started intake
        submissions at or past its repository length, each counted once.
    replay_events:
        Total journal records past the anchor (commits plus the audit
        trail).
    intake:
        Read-only classification of the dir's ``intake.jsonl`` (``None``
        when there is none and the journal names no intake record).
    dangling_references:
        Journal sequences of ``commit-received`` records that name an
        intake record the intake does not hold.  Past the restore
        snapshot's anchor one makes the dir unrestorable.
    """

    state_dir: Path
    exists: bool
    snapshots: tuple[SnapshotHealth, ...]
    quarantined: tuple[Path, ...]
    journal: JournalScan
    restorable: bool
    restore_sequence: int
    replay_commits: int
    replay_events: int
    intake: IntakeScan | None = None
    dangling_references: tuple[int, ...] = ()

    def describe(self) -> str:
        """A terminal-friendly rendering (what ``repro ops --fsck`` prints)."""
        if not self.exists:
            return f"fsck: state directory {str(self.state_dir)!r} does not exist"
        lines = [f"fsck report for state directory {str(self.state_dir)!r}:"]
        valid = sum(1 for s in self.snapshots if s.status == "valid")
        broken = [s for s in self.snapshots if s.status != "valid"]
        lines.append(
            f"  snapshots     : {len(self.snapshots)} on disk "
            f"({valid} valid, {len(broken)} damaged)"
        )
        for snapshot in broken:
            lines.append(
                f"    ! #{snapshot.sequence} {snapshot.path.name}: "
                f"{snapshot.status} ({snapshot.error})"
            )
        if self.quarantined:
            lines.append(f"  quarantined   : {len(self.quarantined)} file(s)")
            for path in self.quarantined:
                lines.append(f"    - {path.name}")
        else:
            lines.append("  quarantined   : 0 file(s)")
        if self.journal.exists:
            compacted = (
                f", compacted through seq {self.journal.compacted_through}"
                if self.journal.compacted_through
                else ""
            )
            lines.append(
                f"  journal       : {self.journal.records} intact record(s) "
                f"at seq {self.journal.last_sequence}, "
                f"{len(self.journal.corrupt_lines)} corrupt line(s), "
                f"torn tail {self.journal.torn_tail_bytes} byte(s)"
                f"{compacted}"
            )
        else:
            lines.append("  journal       : (no journal file)")
        if self.dangling_references:
            lines.append(
                f"  intake names  : {len(self.dangling_references)} journal "
                "record(s) name an intake record that is gone (seq "
                + ", ".join(map(str, self.dangling_references))
                + ")"
            )
        if self.restorable:
            lines.append(
                f"  restore       : snapshot #{self.restore_sequence}, "
                f"then replay {self.replay_commits} commit(s) "
                f"across {self.replay_events} journal event(s)"
            )
        else:
            lines.append(
                "  restore       : IMPOSSIBLE (no valid snapshot, or a "
                "replay gap)"
            )
        return "\n".join(lines)


def fsck_state_dir(state_dir: str | Path) -> FsckReport:
    """Inspect a :func:`~repro.ci.persistence.open_state_dir` layout, read-only.

    Nothing is quarantined, truncated, repaired or journaled — running
    the doctor twice yields byte-identical state directories and
    identical reports.  A missing directory yields an ``exists=False``
    report instead of raising, so the doctor is safe to point anywhere.
    """
    directory = Path(state_dir)
    journal_scan = scan_journal(directory / "journal.jsonl")
    if not directory.is_dir():
        return FsckReport(
            state_dir=directory,
            exists=False,
            snapshots=(),
            quarantined=(),
            journal=journal_scan,
            restorable=False,
            restore_sequence=0,
            replay_commits=0,
            replay_events=0,
        )
    store = SnapshotStore(directory / "snapshots")
    reports: list[SnapshotHealth] = []
    for sequence, path in store._entries():
        try:
            # The envelope reader checksums without unpickling payloads —
            # exactly the read-only probe the doctor needs.
            envelope, _ = store._read_envelope(sequence)
        except SnapshotCorruptError as exc:
            reports.append(
                SnapshotHealth(
                    sequence=sequence, path=path, status="corrupt", error=str(exc)
                )
            )
        except PersistenceError as exc:
            reports.append(
                SnapshotHealth(
                    sequence=sequence,
                    path=path,
                    status="unsupported-version",
                    error=str(exc),
                )
            )
        else:
            reports.append(
                SnapshotHealth(
                    sequence=sequence,
                    path=path,
                    status="valid",
                    journal_sequence=int(envelope.get("journal_sequence", 0)),
                    repository_length=int(envelope.get("repository_length", 0)),
                )
            )
    valid = [report for report in reports if report.status == "valid"]
    newest = valid[-1] if valid else None
    anchor = newest.journal_sequence if newest is not None else 0
    start = newest.repository_length if newest is not None else 0
    intake = None
    dangling: tuple[int, ...] = ()
    if (directory / "intake.jsonl").exists() or journal_scan.intake_references:
        from repro.fleet.intake import scan_intake  # fleet tenant dirs only

        intake = scan_intake(directory / "intake.jsonl")
        dangling = tuple(
            journal
            for journal, named in journal_scan.intake_references
            if named not in intake.models
        )
    # What CIService._replay_journal re-commits: the journaled commits
    # past the anchor and the started intake submissions, both from the
    # snapshot's repository length on, each repository sequence once.
    replayed = {
        sequence
        for sequence, journal in zip(
            journal_scan.commit_sequences, journal_scan.commit_journal_sequences
        )
        if journal > (anchor or 0) and sequence >= start
    }
    if intake is not None:
        replayed.update(key for key in intake.started if key >= start)
    replay_commits = len(replayed)
    replay_events = max(0, journal_scan.last_sequence - (anchor or 0))
    # A compacted journal only restores from a snapshot anchored at or
    # past the compaction boundary: anything older would need records
    # compaction deliberately dropped.
    restorable = (
        newest is not None
        and (anchor or 0) >= journal_scan.compacted_through
        and all(journal <= (anchor or 0) for journal in dangling)
    )
    return FsckReport(
        state_dir=directory,
        exists=True,
        snapshots=tuple(reports),
        quarantined=tuple(store.quarantined()),
        journal=journal_scan,
        restorable=restorable,
        restore_sequence=newest.sequence if newest is not None else 0,
        replay_commits=replay_commits if restorable else 0,
        replay_events=replay_events if restorable else 0,
        intake=intake,
        dangling_references=dangling,
    )

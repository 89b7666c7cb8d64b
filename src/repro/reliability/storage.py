"""Disk budgets and storage governance for durable CI state.

The paper's practicality argument (ease.ml/ci, Section 3) rests on the
CI loop running unattended for long stretches, which makes unbounded
state growth an operational failure mode in its own right: snapshots
accumulate one generation per cadence tick, and the event journal is
append-only.  This module supplies the two governance pieces:

* :class:`StorageGovernor` — meters bytes under a directory against
  *soft* and *hard* watermarks.  Soft means "reclaim now" (prune old
  snapshots, compact the journal); hard means "degrade to read-only"
  (reject new durable writes with a typed, retryable
  :class:`~repro.exceptions.StorageExhaustedError` while inspection and
  restore keep working).  The governor itself only *measures and
  classifies*; the service / fleet layers decide what to do at each
  level, so the same governor serves a single state dir and a whole
  fleet root.

* :func:`maintain_state_dir` — the offline reclamation primitive: the
  one retention pass (:func:`~repro.ci.persistence.compact_retained`)
  over a state directory — prune its snapshot store down to ``keep``
  valid generations, then checkpoint-truncate its journal through the
  *oldest retained valid* snapshot.  Compacting through the oldest
  retained snapshot (not the newest) means every snapshot the store
  still holds can fall back to journal replay without hitting a gap —
  corruption of the newest generation stays recoverable.

Nothing here writes new state: reclamation only deletes and rewrites
what snapshots already cover, so it is safe to run on a disk that is
already at its hard watermark.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import InvalidParameterError
from repro.reliability.events import record_event

__all__ = [
    "StorageStatus",
    "StorageGovernor",
    "MaintenanceReport",
    "directory_bytes",
    "maintain_state_dir",
]


def directory_bytes(path: str | Path) -> int:
    """Total bytes of regular files under ``path`` (0 if it is absent).

    Walks without following symlinks; files that vanish mid-walk (a
    concurrent prune) are skipped rather than raising.
    """
    root = Path(path)
    if not root.exists():
        return 0
    if root.is_file():
        return root.stat().st_size
    total = 0
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            try:
                total += os.stat(
                    os.path.join(dirpath, name), follow_symlinks=False
                ).st_size
            except OSError:
                continue
    return total


@dataclass(frozen=True)
class StorageStatus:
    """One measurement of a directory against its watermarks.

    Attributes
    ----------
    path:
        The measured directory.
    used_bytes:
        Bytes of regular files currently under it.
    soft_bytes / hard_bytes:
        The governor's watermarks (``None`` = unlimited).
    level:
        ``"ok"`` (under soft), ``"soft"`` (reclaim now) or ``"hard"``
        (degrade to read-only).
    retry_after_seconds:
        The measuring governor's backoff hint, carried so rejection
        layers (admission, the commit gate) can forward it.
    """

    path: Path
    used_bytes: int
    soft_bytes: int | None
    hard_bytes: int | None
    level: str
    retry_after_seconds: float = 1.0

    @property
    def read_only(self) -> bool:
        """True when durable writes must be refused (hard watermark)."""
        return self.level == "hard"

    def describe(self) -> str:
        limit = "unlimited" if self.hard_bytes is None else f"{self.hard_bytes}B"
        return (
            f"storage {self.level}: {self.used_bytes}B used of {limit}"
            f" at {self.path}"
        )


class StorageGovernor:
    """Meters a directory's bytes against soft/hard watermarks.

    Parameters
    ----------
    soft_bytes:
        Reclamation threshold — at or above this, callers should prune
        snapshots and compact journals.  ``None`` disables the soft
        level.
    hard_bytes:
        Read-only threshold — at or above this, durable writes must be
        refused with :class:`~repro.exceptions.StorageExhaustedError`.
        ``None`` disables the hard level.
    retry_after_seconds:
        Backoff hint carried by the typed rejection.

    The governor is stateless between calls: each :meth:`check` walks
    the directory fresh, so reclamation (or an operator's ``rm``) is
    observed on the very next measurement.
    """

    def __init__(
        self,
        soft_bytes: int | None = None,
        hard_bytes: int | None = None,
        *,
        retry_after_seconds: float = 1.0,
    ):
        if soft_bytes is not None and soft_bytes <= 0:
            raise InvalidParameterError(
                f"soft_bytes must be positive, got {soft_bytes}"
            )
        if hard_bytes is not None and hard_bytes <= 0:
            raise InvalidParameterError(
                f"hard_bytes must be positive, got {hard_bytes}"
            )
        if (
            soft_bytes is not None
            and hard_bytes is not None
            and soft_bytes > hard_bytes
        ):
            raise InvalidParameterError(
                f"soft watermark ({soft_bytes}) must not exceed the hard "
                f"watermark ({hard_bytes})"
            )
        self.soft_bytes = soft_bytes
        self.hard_bytes = hard_bytes
        self.retry_after_seconds = float(retry_after_seconds)

    def check(self, path: str | Path) -> StorageStatus:
        """Measure ``path`` and classify it against the watermarks."""
        used = directory_bytes(path)
        if self.hard_bytes is not None and used >= self.hard_bytes:
            level = "hard"
        elif self.soft_bytes is not None and used >= self.soft_bytes:
            level = "soft"
        else:
            level = "ok"
        return StorageStatus(
            path=Path(path),
            used_bytes=used,
            soft_bytes=self.soft_bytes,
            hard_bytes=self.hard_bytes,
            level=level,
            retry_after_seconds=self.retry_after_seconds,
        )


@dataclass(frozen=True)
class MaintenanceReport:
    """What one :func:`maintain_state_dir` pass reclaimed."""

    state_dir: Path
    pruned_snapshots: int
    dropped_records: int
    compacted_through: int
    bytes_before: int
    bytes_after: int


def maintain_state_dir(
    state_dir: str | Path,
    *,
    keep: int = 3,
    store=None,
    journal=None,
    sync: bool = True,
) -> MaintenanceReport:
    """Prune a state dir's snapshots and compact its journal, offline.

    Opens the directory's :class:`~repro.ci.persistence.SnapshotStore`
    and :class:`~repro.ci.persistence.EventJournal` (or uses the ones
    passed in, for callers that already hold them) and runs the one
    retention pass over them.  Purely reclamatory — nothing new is
    written beyond the journal rewrite, so this is the reclamation step
    a hard-watermark (read-only) state dir runs to dig itself out.
    """
    from repro.ci.persistence import EventJournal, SnapshotStore, compact_retained

    state_dir = Path(state_dir)
    bytes_before = directory_bytes(state_dir)
    if store is None:
        store = SnapshotStore(state_dir / "snapshots")
    if journal is None:
        journal = EventJournal(state_dir / "journal.jsonl", sync=sync)
    pruned, dropped = compact_retained(store, journal, keep)
    report = MaintenanceReport(
        state_dir=state_dir,
        pruned_snapshots=len(pruned),
        dropped_records=dropped,
        compacted_through=journal.compacted_through,
        bytes_before=bytes_before,
        bytes_after=directory_bytes(state_dir),
    )
    if report.pruned_snapshots or report.dropped_records:
        record_event(
            "storage-maintained",
            "reliability.storage",
            state_dir=str(state_dir),
            pruned_snapshots=report.pruned_snapshots,
            dropped_records=report.dropped_records,
            bytes_before=report.bytes_before,
            bytes_after=report.bytes_after,
        )
    return report

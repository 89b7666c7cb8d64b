"""The durable intake queue: a webhook submission, once accepted, survives.

The fleet gateway's contract is *accept-then-never-lose*: a submission
that passes admission control is appended to the tenant's log — the
tenant's own :class:`~repro.ci.persistence.EventJournal`, one CRC'd
JSON-lines file — and fsynced before anything evaluates it.  A crash
between acceptance and processing therefore loses nothing: the next
drain replays the queue, and replay is idempotent *by sequence* because
every submission records the repository sequence it will become.

Record types (in the tenant journal, beside its event records)
---------------------------------------------------------------
``submission``
    One accepted webhook submission: the pickled model (base64, like a
    standalone journal's ``commit-received`` records), message, author,
    and the repository ``sequence`` it will occupy.  Submissions are
    processed strictly in order, so the mapping is fixed at append
    time.  A submission appended by
    :meth:`CIFleet.submit <repro.fleet.gateway.CIFleet.submit>` with
    nothing queued ahead of it is *started* (``"started": true``): it is
    processed at once, so its fsync also serves as the durable
    processing-start record.
``deferred``
    The started submission failed before its build began (no
    ``commit-received`` landed): it is an ordinary queued submission
    again.  Fsynced.
``ack``
    The submission has been fully processed.  A crash *between* the
    commit landing and the ack being appended is healed at the next
    drain: the entry's sequence is already below the repository length,
    so the drain re-acks it without re-running the build — never a
    duplicate.

The submission is the commit's only copy of its model
-----------------------------------------------------
The ``commit-received`` the tenant's service journals for a started
submission names it by repository sequence instead of embedding the
model, and is only flushed, not fsynced: each model is pickled, encoded,
checksummed and written once, at one fsync.  Restore replays — notifier
suppressed — every started submission at or past the restored
repository length, acknowledged or not, whether or not power loss kept
its ``commit-received``.  A submission that was only enqueued, or was
deferred, gets a fsynced, model-carrying ``commit-received``, so a later
drain that notifies is never replayed into a second notification.  The
one compaction bound of the file (see :mod:`repro.ci.persistence`)
keeps every submission a retained snapshot lacks.

Crash model
-----------
Every append is flushed; submissions and deferrals are fsynced before
returning (a power loss never drops one), acks only reach disk with the
next fsync of the file (a lost ack heals as above).  Fault-injection
points ``intake.append`` (``tear``) and ``intake.write`` (``errno``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.ci.persistence import (
    ACK,
    DEFERRED,
    QUEUE_TYPES,
    SUBMISSION,
    EventJournal,
    JournalRecord,
    SnapshotStore,
    compact_retained,
    decode_model,
    encode_model,
)

__all__ = ["IntakeRecord", "IntakeQueue"]


@dataclass(frozen=True)
class IntakeRecord:
    """One intake-queue record of a tenant journal.

    Attributes
    ----------
    sequence:
        The record's journal sequence.
    kind:
        ``"submission"``, ``"deferred"`` or ``"ack"``.
    repo_sequence:
        The repository sequence of the submission the record is about.
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
    def of(cls, record: JournalRecord) -> "IntakeRecord":
        payload = dict(record.payload)
        key = int(payload.pop("sequence"))
        return cls(record.sequence, record.type, key, record.recorded_at, payload)

    def model(self) -> Any:
        """Unpickle the submitted model (submission records only)."""
        return decode_model(self.payload["model_pickle"])


class IntakeQueue:
    """One tenant's durable intake queue: the queue side of its journal.

    Holds no state of its own: the journal folds its records (see
    :class:`~repro.ci.persistence.EventJournal`).  The fleet keeps the
    queue — and with it the tenant journal — open across evictions and
    hands the journal to every hydrated service.
    """

    def __init__(self, journal: EventJournal):
        self.journal = journal

    @property
    def path(self) -> Path:
        return self.journal.path

    # -- inspection ----------------------------------------------------------
    @property
    def next_repo_sequence(self) -> int:
        """The repository sequence the next accepted submission becomes."""
        return self.journal.next_repository_sequence

    @property
    def pending_count(self) -> int:
        """Accepted-but-unacknowledged submissions (the queue's depth)."""
        return len(self.journal.pending)

    def pending(self) -> list[IntakeRecord]:
        """Unacknowledged submissions, in repository-sequence order."""
        pending = self.journal.pending
        return [IntakeRecord.of(pending[key]) for key in sorted(pending)]

    def is_started(self, repo_sequence: int) -> bool:
        """Whether the submission at ``repo_sequence`` is started, not deferred."""
        return self.journal.is_started(repo_sequence)

    def close(self) -> None:
        """Close the journal's append handle (reopened lazily on next append)."""
        self.journal.close()

    # -- writing -------------------------------------------------------------
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
            "sequence": self.journal.next_repository_sequence,
            "model_pickle": encode_model(model),
            "message": str(message),
            "author": str(author),
        }
        if started:
            payload["started"] = True
        return IntakeRecord.of(self.journal.append(SUBMISSION, payload))

    def defer(self, repo_sequence: int) -> IntakeRecord:
        """Mark the started submission at ``repo_sequence`` not begun (fsynced)."""
        return IntakeRecord.of(
            self.journal.append(DEFERRED, {"sequence": int(repo_sequence)})
        )

    def ack(self, repo_sequence: int) -> IntakeRecord:
        """Mark the submission at ``repo_sequence`` processed (not fsynced)."""
        return IntakeRecord.of(
            self.journal.append(ACK, {"sequence": int(repo_sequence)})
        )

    def compact(self, snapshots: SnapshotStore, keep: int) -> int:
        """Reclaim the tenant journal; return how many records were dropped.

        The one retention pass
        (:func:`~repro.ci.persistence.compact_retained`) over the tenant's
        ``snapshots``, keeping ``keep`` valid generations: acknowledged
        submissions the oldest retained snapshot holds go with the
        journal records it covers.  The fleet runs it to reclaim a
        tenant that is not resident.  A crash leaves the previous file
        intact.
        """
        return compact_retained(snapshots, self.journal, keep)[1]

    # -- reading -------------------------------------------------------------
    def records(self) -> Iterator[IntakeRecord]:
        """Yield every intact queue record, oldest first (raising like the journal)."""
        return (
            IntakeRecord.of(record)
            for record in self.journal.records()
            if record.type in QUEUE_TYPES
        )

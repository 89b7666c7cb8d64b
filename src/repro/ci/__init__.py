"""Travis-like CI substrate: repositories, commits, builds, notifications.

The paper positions ease.ml/ci as an extension of an existing CI engine
(Figure 1 shows the GitHub + ``.travis.yml`` workflow).  This package
supplies that surrounding machinery so the examples and experiments can
exercise the *whole* four-step loop — define script, provide testset,
commit models, receive signals — rather than calling the statistical core
directly:

* :mod:`commit` / :mod:`repository` — a minimal model-versioning store;
* :mod:`notifications` — pluggable message transports (in-memory email
  for tests, console for examples);
* :mod:`service` — :class:`~repro.ci.service.CIService`, which watches a
  repository, triggers a build per commit, runs the ease.ml/ci engine and
  routes signals/alarms to the right parties;
* :mod:`persistence` — durable state: atomic versioned snapshots plus an
  append-only event journal, giving the service restart-identical resume
  (:meth:`~repro.ci.service.CIService.persist_to` /
  :meth:`~repro.ci.service.CIService.resume`) and the ``repro ops``
  operations surface.
"""

from repro.ci.commit import Commit, CommitStatus
from repro.ci.repository import ModelRepository
from repro.ci.notifications import (
    EmailMessage,
    NotificationTransport,
    InMemoryEmailTransport,
    ConsoleTransport,
)
from repro.ci.persistence import (
    DirectoryStateStore,
    EventJournal,
    JournalRecord,
    SnapshotInfo,
    SnapshotStore,
    open_state_dir,
)
from repro.ci.service import BuildRecord, CIService, OperationsReport

__all__ = [
    "Commit",
    "CommitStatus",
    "ModelRepository",
    "EmailMessage",
    "NotificationTransport",
    "InMemoryEmailTransport",
    "ConsoleTransport",
    "DirectoryStateStore",
    "EventJournal",
    "JournalRecord",
    "SnapshotInfo",
    "SnapshotStore",
    "open_state_dir",
    "BuildRecord",
    "CIService",
    "OperationsReport",
]

"""A minimal model-versioning repository.

Stands in for the "GitHub repository" of Figure 1: developers commit
models (plus messages), the CI service observes new commits and runs
builds.  Observers are registered callables — the CI service subscribes
itself, mirroring a webhook.

Two webhook shapes exist: the classic per-commit observer and, for
subscribers that can evaluate a whole push at once (the batched CI
service), an optional batch companion registered alongside it via
:meth:`ModelRepository.on_commit`.  :meth:`ModelRepository.commit_many`
delivers each push exactly once per subscriber — through the batch
companion when one was registered, otherwise commit by commit — so plain
per-commit subscribers never miss commits that arrive via a push.

Commits carry the CI outcome back into the history: the service records a
status on every commit and, once a build ran, the testset generation that
served it (see :attr:`repro.ci.commit.Commit.generation`) — under a
pool-aware service a push may span several generations, and the
repository log is where that audit trail lives.
"""

from __future__ import annotations

import uuid
from typing import Any, Callable, Iterator, Sequence

from repro.ci.commit import Commit
from repro.exceptions import EngineStateError, InvalidParameterError

__all__ = ["ModelRepository"]


class ModelRepository:
    """An append-only sequence of model commits with observer hooks.

    Parameters
    ----------
    name:
        Repository identifier used in logs and notifications.
    nonce:
        Identity nonce mixed into every commit's
        :attr:`~repro.ci.commit.Commit.commit_id` (a fresh random hex
        string by default).  Two repositories therefore never mint
        colliding commit ids, while a repository restored from a snapshot
        keeps its nonce and reproduces its ids exactly.  Pass an explicit
        nonce for runs that must mint reproducible ids.

    Notes
    -----
    Commit history (and the nonce) is durable repository *state* and
    round-trips through pickling/snapshots; observers are runtime wiring
    and are dropped — the CI service re-subscribes itself on restore, and
    any extra observers must be re-registered.

    The repository also carries the *dead-letter log*: notifications the
    service's retrying transport could not deliver (see
    :class:`repro.ci.notifications.RetryingTransport`).  Dead letters
    are durable state — they survive snapshots and restores so an
    operator can re-send them once the transport recovers — and live
    here, next to the commit history they annotate, rather than on the
    (runtime-only, never-snapshotted) transport.
    """

    def __init__(self, name: str = "ml-repo", *, nonce: str | None = None):
        self.name = name
        self.nonce = uuid.uuid4().hex[:12] if nonce is None else str(nonce)
        self._commits: list[Commit] = []
        self._dead_letters: list[Any] = []
        self._dead_letter_version = 0
        self._observers: list[
            tuple[Callable[[Commit], None], Callable[[list[Commit]], None] | None]
        ] = []
        self._commit_gates: list[Callable[[int], None]] = []

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_observers"] = []  # runtime wiring, not repository state
        state["_commit_gates"] = []
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Snapshots written before the dead-letter log existed.
        self.__dict__.setdefault("_dead_letters", [])
        self.__dict__.setdefault("_dead_letter_version", 0)
        self.__dict__.setdefault("_commit_gates", [])

    # -- dead letters ----------------------------------------------------------
    def record_dead_letter(self, letter: Any) -> None:
        """Append one undeliverable notification to the durable log."""
        self._dead_letters.append(letter)
        self._dead_letter_version += 1

    @property
    def dead_letters(self) -> list[Any]:
        """Undeliverable notifications recorded by the service, in order."""
        return list(self._dead_letters)

    @property
    def dead_letter_version(self) -> int:
        """Counts the changes to the dead-letter log (records and drains).

        The log is not journaled, so replay cannot rebuild it; a holder
        of the repository compares this counter with its value at the
        last snapshot to tell whether the log changed since (see
        :attr:`repro.ci.service.CIService.unjournaled_changes`).
        """
        return self._dead_letter_version

    def drain_dead_letters(self) -> list[Any]:
        """Atomically return-and-clear the dead-letter log.

        The acknowledgement primitive redelivery tooling needs: reading
        :attr:`dead_letters` alone would hand the operator the same
        letters on every poll, so a redelivery loop could never tell
        "already re-sent" from "still stuck".  Draining transfers
        ownership — the returned letters are the caller's to re-send (or
        re-record on failure via :meth:`record_dead_letter`), and the
        repository's log is empty afterwards.  The drained state is
        durable like the log itself: a snapshot taken after a drain
        restores with an empty log, not with the acknowledged letters
        resurrected.
        """
        drained, self._dead_letters = self._dead_letters, []
        if drained:
            self._dead_letter_version += 1
        return drained

    # -- committing -----------------------------------------------------------
    def _mint(self, model: Any, message: str, author: str) -> Commit:
        """Build the next commit, chained to the current head."""
        return Commit(
            sequence=len(self._commits),
            model=model,
            message=message,
            author=author,
            repo_nonce=self.nonce,
            parent_sha=self._commits[-1].commit_id if self._commits else None,
        )

    def _check_gates(self, count: int) -> None:
        """Run every admission gate before any history is mutated.

        A gate that raises vetoes the whole commit (or push): nothing is
        appended and no observer fires, so the caller can retry the
        exact same commit later.  This is how a storage-degraded service
        refuses durable writes *before* they half-happen.
        """
        for gate in self._commit_gates:
            gate(count)

    def commit(self, model: Any, message: str = "", author: str = "developer") -> Commit:
        """Append a new model version and notify observers (webhook)."""
        self._check_gates(1)
        commit = self._mint(model, message, author)
        self._commits.append(commit)
        for observer, _ in self._observers:
            observer(commit)
        return commit

    def commit_many(
        self,
        models: Sequence[Any],
        messages: Sequence[str] | None = None,
        author: str = "developer",
    ) -> list[Commit]:
        """Append a push of model versions, notifying each subscriber once.

        Subscribers that registered a batch companion receive the whole
        commit list in one call (a batch-aware CI service evaluates the
        push through its vectorized pipeline); every other subscriber's
        per-commit observer fires for each commit in order, exactly as if
        the models had been committed one at a time.
        """
        if messages is not None and len(messages) != len(models):
            raise InvalidParameterError(
                f"got {len(messages)} messages for {len(models)} models"
            )
        self._check_gates(len(models))
        commits = []
        for i, model in enumerate(models):
            commits.append(
                self._mint(
                    model,
                    messages[i] if messages is not None else "",
                    author,
                )
            )
            self._commits.append(commits[-1])
        for observer, batch_observer in self._observers:
            if batch_observer is not None:
                batch_observer(list(commits))
            else:
                for commit in commits:
                    observer(commit)
        return commits

    def on_commit(
        self,
        observer: Callable[[Commit], None],
        *,
        batch_observer: Callable[[list[Commit]], None] | None = None,
    ) -> None:
        """Register a callable invoked for every future commit.

        ``batch_observer``, when given, replaces the per-commit calls for
        pushes delivered through :meth:`commit_many`: the subscriber gets
        the whole push in one call instead of one call per commit (never
        both).
        """
        self._observers.append((observer, batch_observer))

    def add_commit_gate(self, gate: Callable[[int], None]) -> None:
        """Register an admission gate run *before* any commit mutates history.

        The gate receives the number of commits about to land and vetoes
        by raising.  Like observers, gates are runtime wiring (dropped
        from snapshots) — a persistence-attached service installs its
        storage gate here on every attach/restore.
        """
        self._commit_gates.append(gate)

    # -- history ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._commits)

    def __iter__(self) -> Iterator[Commit]:
        return iter(self._commits)

    def __getitem__(self, index: int) -> Commit:
        return self._commits[index]

    @property
    def head(self) -> Commit:
        """The most recent commit."""
        if not self._commits:
            raise EngineStateError(f"repository {self.name!r} has no commits")
        return self._commits[-1]

    def log(self) -> str:
        """A short, newest-first commit log."""
        lines = []
        for commit in reversed(self._commits):
            lines.append(
                f"{commit.commit_id}  [{commit.status.value:^8}]  "
                f"{commit.author}: {commit.message or '(no message)'}"
            )
        return "\n".join(lines)

"""The CI service: repository webhooks → builds → signals (Figure 1).

:class:`CIService` is the outermost orchestration layer.  It subscribes to
a :class:`~repro.ci.repository.ModelRepository`, and for every commit:

1. triggers a *build* (numbered, recorded);
2. runs the ease.ml/ci engine's evaluation;
3. updates the commit status with what the developer is allowed to see;
4. routes third-party notifications and testset alarms through the
   configured transport.

The integration team interacts with the service to install fresh testsets
when alarms fire; the development team only sees commit statuses.

Planning cost under commit traffic: constructing a service (or rebuilding
one per repository/webhook worker) triggers a :class:`SampleSizePlan`
computation in the engine.  Plans are served from the process-wide plan
cache (:mod:`repro.stats.cache`), so every service after the first that
watches the same condition/reliability spec gets its plan in microseconds;
:meth:`CIService.planning_cache_info` exposes the hit statistics for
operational dashboards.

Evaluation cost under commit traffic: :meth:`CIService.process_batch` is
the high-throughput ingest path.  A whole push of commits is drained
through :meth:`CIEngine.submit_many`, which predicts each model once and
evaluates the condition for the entire queue with one vectorized batch
evaluation per comparison baseline — while producing build records,
commit statuses, promotions and alarms element-wise identical to the
per-commit webhook.  Commits that arrive after the testset's statistical
budget is exhausted are recorded as skipped builds, exactly as the
sequential webhook would record them.

Testset lifecycle under commit traffic:
:meth:`CIService.install_testset_pool` attaches a
:class:`~repro.core.testset.TestsetPool` of pre-labeled generations, after
which builds flow across generations without skipping — the engine
rotates on exhaustion (and on the retirement alarms that cause it),
rotation notices go out through the transport, and every build record and
commit is annotated with the generation that served it.  Skipped builds
then occur only when the pool is truly dry.

Durability: :meth:`CIService.persist_to` binds the service to a state
directory (:mod:`repro.ci.persistence`).  From then on every webhook
journals the commit *before* evaluating it and the build outcome after,
and :meth:`CIService.snapshot` (or the ``snapshot_every`` cadence)
captures the full exported state atomically.  After a crash,
:meth:`CIService.resume` loads the latest snapshot and replays the
journaled commits the snapshot predates — producing build records
element-wise identical to the uninterrupted run.
:meth:`CIService.operations` (and the ``repro ops`` CLI) reports pool
runway, generation budgets, cache statistics and journal lag.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.ci.commit import Commit, CommitStatus
from repro.ci.notifications import (
    DeadLetter,
    NotificationTransport,
    RetryingTransport,
)
from repro.ci.persistence import (
    ALARM,
    BUILD_RECORDED,
    COMMIT_RECEIVED,
    PROMOTION,
    RESTORE,
    ROTATION,
    SNAPSHOT,
    DirectoryStateStore,
    SnapshotInfo,
    compact_retained,
    decode_model,
    encode_model,
    replay_plan,
)
from repro.ci.repository import ModelRepository
from repro.core.engine import CIEngine, CommitResult
from repro.core.script.config import CIScript
from repro.core.testset import Testset, TestsetPool
from repro.exceptions import (
    PersistenceError,
    StorageExhaustedError,
    TestsetExhaustedError,
    TestsetSizeError,
)
from repro.reliability.events import record_event, reliability_events
from repro.reliability.faults import InjectedFault
from repro.reliability.storage import StorageGovernor

__all__ = ["BuildRecord", "CIService", "OperationsReport", "SERVICE_STATE_FORMAT"]

#: Version tag of the service's exported-state contract.
SERVICE_STATE_FORMAT = "repro.ci-service/v1"


@dataclass(frozen=True)
class BuildRecord:
    """One build triggered by one commit.

    Attributes
    ----------
    build_number:
        1-based build counter (matching CI-server conventions).
    commit:
        The commit that triggered the build.
    result:
        The engine's :class:`CommitResult`, or ``None`` when the build was
        skipped (testset exhausted and not yet replaced).
    skipped_reason:
        Why the build did not run, when applicable.
    """

    build_number: int
    commit: Commit
    result: CommitResult | None
    skipped_reason: str | None = None

    @property
    def generation(self) -> int | None:
        """1-based testset generation that served the build's evaluation
        (``None`` for skipped builds) — the audit trail that tells the
        integration team which released dev set a signal came from."""
        return self.result.generation if self.result is not None else None

    @property
    def ran(self) -> bool:
        """Whether the build executed an evaluation."""
        return self.result is not None


@dataclass(frozen=True)
class OperationsReport:
    """Point-in-time operational view of a CI service.

    Everything an on-call integration engineer asks of a running (or
    restored) service: build/commit counters, the active generation's
    budget, pool runway, planning/serving cache statistics, and how far
    the journal has run ahead of the last snapshot.  JSON-compatible via
    :func:`repro.utils.serialization.to_jsonable`; rendered for terminals
    by :meth:`describe`.
    """

    repository: str
    builds_total: int
    builds_ran: int
    builds_skipped: int
    commits_evaluated: int
    promotions: int
    alarms: int
    rotations: int
    active_generation: int
    generation_budget: int
    generation_uses: int
    generation_remaining: int
    generation_exhausted: bool
    pool_attached: bool
    pool_pending_generations: int
    pool_remaining_evaluations: int
    pool_low_watermark: int | None
    planning_cache: Mapping[str, Any]
    caches: Mapping[str, Mapping[str, Any]]
    persistence_attached: bool
    snapshot_sequence: int | None
    snapshot_journal_sequence: int | None
    journal_sequence: int | None
    journal_lag: int | None
    snapshot_fallbacks: int
    quarantined_files: int
    dead_letters: int
    # Storage governance (defaults keep older constructors working).
    storage_bytes: int | None = None
    storage_soft_bytes: int | None = None
    storage_hard_bytes: int | None = None
    storage_level: str | None = None
    storage_read_only: bool = False
    journal_compacted_through: int | None = None

    def describe(self) -> str:
        """A terminal-friendly rendering (what ``repro ops`` prints)."""
        lines = [
            f"operations report for repository {self.repository!r}:",
            f"  builds        : {self.builds_total} total, "
            f"{self.builds_ran} ran, {self.builds_skipped} skipped",
            f"  commits       : {self.commits_evaluated} evaluated, "
            f"{self.promotions} promoted",
            f"  alarms        : {self.alarms} fired, {self.rotations} rotations",
            f"  generation    : #{self.active_generation}, "
            f"budget {self.generation_uses}/{self.generation_budget} used "
            f"({self.generation_remaining} remaining"
            f"{', RETIRED' if self.generation_exhausted else ''})",
        ]
        if self.pool_attached:
            lines.append(
                f"  pool runway   : {self.pool_pending_generations} pending "
                f"generation(s), {self.pool_remaining_evaluations} "
                f"evaluation(s), low watermark {self.pool_low_watermark}"
            )
        else:
            lines.append("  pool runway   : (no pool attached)")
        plan = self.planning_cache
        lines.append(
            f"  plan cache    : {plan['hits']} hits / {plan['misses']} misses "
            f"({plan['currsize']} plans cached)"
        )
        warm = sum(1 for info in self.caches.values() if info["currsize"])
        lines.append(f"  caches        : {warm}/{len(self.caches)} warm")
        if self.persistence_attached:
            compacted = (
                f", compacted through seq {self.journal_compacted_through}"
                if self.journal_compacted_through
                else ""
            )
            lines.append(
                f"  durable state : snapshot #{self.snapshot_sequence or 0} "
                f"at journal seq {self.snapshot_journal_sequence or 0}, "
                f"journal at seq {self.journal_sequence or 0} "
                f"(lag {self.journal_lag} event(s){compacted})"
            )
        else:
            lines.append("  durable state : (persistence not attached)")
        if self.storage_level is not None:
            mode = "READ-ONLY" if self.storage_read_only else "writable"
            soft = "-" if self.storage_soft_bytes is None else str(self.storage_soft_bytes)
            hard = "-" if self.storage_hard_bytes is None else str(self.storage_hard_bytes)
            lines.append(
                f"  storage       : {self.storage_bytes}B used "
                f"(soft {soft}, hard {hard}) — "
                f"{self.storage_level}, {mode}"
            )
        lines.append(
            f"  reliability   : {self.snapshot_fallbacks} snapshot fallback(s), "
            f"{self.quarantined_files} quarantined file(s), "
            f"{self.dead_letters} dead letter(s)"
        )
        return "\n".join(lines)


class CIService:
    """Binds a repository to an ease.ml/ci engine.

    Parameters
    ----------
    script:
        The validated CI configuration.
    testset:
        Initial testset from the integration team.
    baseline_model:
        The deployed model new commits are compared against.
    repository:
        The watched repository (a fresh one is created when omitted).
    transport:
        Notification transport for third-party signals and alarms.
    engine_kwargs:
        Extra keyword arguments forwarded to :class:`CIEngine` (e.g.
        ``estimator`` or ``enforce_testset_size``).
    """

    def __init__(
        self,
        script: CIScript,
        testset: Testset,
        baseline_model: Any,
        *,
        repository: ModelRepository | None = None,
        transport: NotificationTransport | None = None,
        **engine_kwargs: Any,
    ):
        self.script = script
        self.repository = repository if repository is not None else ModelRepository()
        self.transport = transport
        self.delivery = self._wrap_transport(transport)
        notifier = self.delivery.send if self.delivery is not None else None
        self.engine = CIEngine(
            script,
            testset,
            baseline_model,
            notifier=notifier,
            **engine_kwargs,
        )
        self.repository.on_commit(self._on_commit, batch_observer=self._on_commit_batch)
        self._builds: list[BuildRecord] = []
        self._init_runtime_state()

    def _wrap_transport(
        self, transport: NotificationTransport | None
    ) -> RetryingTransport | None:
        """Wrap the user transport so delivery failures cannot reach webhooks.

        Every notification flows through a :class:`RetryingTransport`
        whose dead letters land in the repository's durable log — a flaky
        transport can delay a signal, never raise through ``submit`` or
        ``process_batch``, and never silently lose the message.  An
        already-retrying transport is used as-is (dead letters are still
        routed to the repository unless it routes them elsewhere).
        """
        if transport is None:
            return None
        if isinstance(transport, RetryingTransport):
            if transport.on_dead_letter is None:
                transport.on_dead_letter = self._record_dead_letter
            return transport
        return RetryingTransport(
            transport, on_dead_letter=self._record_dead_letter
        )

    def _record_dead_letter(self, letter: DeadLetter) -> None:
        self.repository.record_dead_letter(letter)

    def _init_runtime_state(self) -> None:
        """Persistence wiring defaults (shared by __init__ and restore)."""
        # All durable I/O routes through the attached state store.
        self._state_store: DirectoryStateStore | None = None
        self._snapshot_every: int | None = None
        self._builds_since_snapshot = 0
        self._replaying = False
        # _unjournaled_stamp() as of the last snapshot or restore; None
        # until the service has been saved or restored at all.
        self._saved_stamp: tuple[int, int, int] | None = None
        # Storage governance (attach_persistence wires these up).
        self._keep_snapshots: int | None = None
        self._storage: "StorageGovernor | None" = None
        self._state_dir: Path | None = None
        self._storage_read_only = False

    # -- inspection --------------------------------------------------------------
    @property
    def builds(self) -> list[BuildRecord]:
        """All builds, in order."""
        return list(self._builds)

    @property
    def last_build(self) -> BuildRecord | None:
        """The newest build (``None`` before the first), without copying."""
        return self._builds[-1] if self._builds else None

    @property
    def active_model(self) -> Any:
        """The currently deployed model (last truly passing commit)."""
        return self.engine.active_model

    @property
    def plan(self):
        """The engine's :class:`~repro.core.estimators.plans.SampleSizePlan`."""
        return self.engine.plan

    @property
    def unjournaled_changes(self) -> bool:
        """Whether the service holds state journal replay cannot rebuild.

        Replay re-runs journaled commits only.  Three kinds of change
        happen outside any commit, each counted where it is made: the
        dead-letter log (records and drains,
        :attr:`ModelRepository.dead_letter_version`), testset and pool
        installs on the engine (:attr:`CIEngine.installs`), and
        generations added to the pool (:attr:`TestsetPool.added` — e.g.
        by a low-watermark refill callback, which replay never runs).
        This is True when any of them moved since the last snapshot or
        restore, and for a service never saved or restored.  Such a
        change exists in memory alone until the next snapshot covers it
        — a caller about to drop the service (the fleet's eviction)
        snapshots first when this is set.
        """
        return self._unjournaled_stamp() != self._saved_stamp

    def _unjournaled_stamp(self) -> tuple[int, int, int]:
        pool = self.engine.pool
        return (
            self.repository.dead_letter_version,
            self.engine.installs,
            pool.added if pool is not None else 0,
        )

    @staticmethod
    def planning_cache_info():
        """Hit/miss statistics of the shared plan cache (operations view)."""
        from repro.core.estimators.api import SampleSizeEstimator

        return SampleSizeEstimator.plan_cache_info()

    def operations(self) -> OperationsReport:
        """The operations surface: runway, budgets, caches, journal lag.

        Safe to call at any lifecycle point, persisted or not; the
        ``repro ops`` CLI restores a service from its state directory and
        prints exactly this report.
        """
        from repro.stats.cache import all_cache_info

        manager = self.engine.manager
        pool = self.engine.pool
        store = self._state_store
        snapshot_info = store.latest_info() if store is not None else None
        journal_sequence = store.journal_sequence if store is not None else None
        journal_lag = None
        if journal_sequence is not None:
            anchored = snapshot_info.journal_sequence if snapshot_info else 0
            journal_lag = journal_sequence - anchored
        plan_info = self.planning_cache_info()
        events = reliability_events()
        quarantined = len(store.quarantined()) if store is not None else 0
        storage_status = None
        if self._storage is not None:
            storage_status = self._storage.check(self._state_dir)
        return OperationsReport(
            repository=self.repository.name,
            builds_total=len(self._builds),
            builds_ran=sum(1 for build in self._builds if build.ran),
            builds_skipped=sum(1 for build in self._builds if not build.ran),
            commits_evaluated=self.engine.commits_evaluated,
            promotions=sum(1 for r in self.engine.results if r.promoted),
            alarms=len(self.engine.alarm.events),
            rotations=len(self.engine.rotations),
            active_generation=manager.generation,
            generation_budget=manager.budget,
            generation_uses=manager.uses,
            generation_remaining=manager.remaining,
            generation_exhausted=manager.is_exhausted,
            pool_attached=pool is not None,
            pool_pending_generations=pool.pending if pool is not None else 0,
            pool_remaining_evaluations=(
                pool.remaining_evaluations() if pool is not None else 0
            ),
            pool_low_watermark=pool.low_watermark if pool is not None else None,
            planning_cache={
                "hits": plan_info.hits,
                "misses": plan_info.misses,
                "maxsize": plan_info.maxsize,
                "currsize": plan_info.currsize,
                "hit_rate": plan_info.hit_rate,
            },
            caches={
                name: {
                    "hits": info.hits,
                    "misses": info.misses,
                    "maxsize": info.maxsize,
                    "currsize": info.currsize,
                }
                for name, info in all_cache_info().items()
            },
            persistence_attached=self._state_store is not None,
            snapshot_sequence=snapshot_info.sequence if snapshot_info else None,
            snapshot_journal_sequence=(
                snapshot_info.journal_sequence if snapshot_info else None
            ),
            journal_sequence=journal_sequence,
            journal_lag=journal_lag,
            snapshot_fallbacks=sum(
                1 for e in events if e.kind == "snapshot-fallback"
            ),
            quarantined_files=quarantined,
            dead_letters=len(self.repository.dead_letters),
            storage_bytes=(
                storage_status.used_bytes if storage_status is not None else None
            ),
            storage_soft_bytes=(
                storage_status.soft_bytes if storage_status is not None else None
            ),
            storage_hard_bytes=(
                storage_status.hard_bytes if storage_status is not None else None
            ),
            storage_level=(
                storage_status.level if storage_status is not None else None
            ),
            storage_read_only=self._storage_read_only,
            journal_compacted_through=(
                store.journal.compacted_through if store is not None else None
            ),
        )

    # -- the webhook ---------------------------------------------------------------
    def _on_commit(self, commit: Commit) -> None:
        self._journal_commit_received(commit)
        rotations_before = len(self.engine.rotations)
        build_number = len(self._builds) + 1
        try:
            result = self.engine.submit(commit.model)
        except (TestsetExhaustedError, TestsetSizeError) as exc:
            # Exhausted (no replacement at all) or unable to rotate (the
            # pool's next generation is undersized): either way the build
            # is recorded as skipped rather than lost.
            commit.status = CommitStatus.SKIPPED
            build = BuildRecord(
                build_number=build_number,
                commit=commit,
                result=None,
                skipped_reason=str(exc),
            )
            self._builds.append(build)
            self._journal_build(build, rotations_before)
            self._maybe_auto_snapshot()
            return
        commit.status = self._status_for(result)
        commit.generation = result.generation
        build = BuildRecord(build_number=build_number, commit=commit, result=result)
        self._builds.append(build)
        self._journal_build(build, rotations_before)
        self._maybe_auto_snapshot()

    def _on_commit_batch(self, commits: list[Commit]) -> None:
        for commit in commits:
            self._journal_commit_received(commit)
        rotations_before = len(self.engine.rotations)
        before = self.engine.commits_evaluated
        skipped_reason: str | None = None
        try:
            results = self.engine.submit_many([commit.model for commit in commits])
        except (TestsetExhaustedError, TestsetSizeError) as exc:
            # The engine keeps every result it produced before the budget
            # ran out (or the rotation failed); the commits after become
            # skipped builds with the same reason the sequential webhook
            # reports — engine.results and service.builds stay in sync.
            results = self.engine.results[before:]
            skipped_reason = str(exc)
        self._journal_rotations(rotations_before)
        for commit, result in zip(commits, results):
            commit.status = self._status_for(result)
            commit.generation = result.generation
            build = BuildRecord(
                build_number=len(self._builds) + 1, commit=commit, result=result
            )
            self._builds.append(build)
            self._journal_build(build, rotations_before=None)
        for commit in commits[len(results):]:
            commit.status = CommitStatus.SKIPPED
            build = BuildRecord(
                build_number=len(self._builds) + 1,
                commit=commit,
                result=None,
                skipped_reason=skipped_reason,
            )
            self._builds.append(build)
            self._journal_build(build, rotations_before=None)
        self._maybe_auto_snapshot(builds=len(commits))

    # -- the batched ingest path ---------------------------------------------------
    def process_batch(
        self,
        models: Sequence[Any],
        messages: Sequence[str] | None = None,
        author: str = "developer",
    ) -> list[BuildRecord]:
        """Commit and evaluate a whole queue of models in one batched pass.

        The models are committed to the repository as one push and drained
        through :meth:`CIEngine.submit_many`; statuses, build records,
        promotions and alarms are element-wise identical to committing the
        models one at a time.  Returns the build records of this push.
        """
        commits = self.repository.commit_many(models, messages=messages, author=author)
        return self._builds[len(self._builds) - len(commits):]

    @staticmethod
    def _status_for(result: CommitResult) -> CommitStatus:
        if result.developer_signal is None:
            return CommitStatus.ACCEPTED
        return CommitStatus.PASSED if result.developer_signal else CommitStatus.FAILED

    # -- journaling ---------------------------------------------------------------
    def _journal_event(self, type: str, payload: dict[str, Any]) -> None:
        if self._state_store is not None and not self._replaying:
            self._state_store.append_event(type, payload)

    def _journal_commit_received(self, commit: Commit) -> None:
        """Journal a commit *before* its build runs.

        This is the record replay is driven by: it embeds the committed
        model, which makes the journal fsync it — unless the journal
        holds the commit's fleet submission appended *started*, which it
        then names by repository sequence — so a crash anywhere between
        this append and the build's completion loses nothing: restore
        re-runs the evaluation deterministically from the snapshot-exact
        engine state.
        """
        store = self._state_store
        if store is None or self._replaying:
            return
        payload = {
            "sequence": commit.sequence,
            "commit_id": commit.commit_id,
            "author": commit.author,
            "message": commit.message,
        }
        if not store.journal.is_started(commit.sequence):
            payload["model_pickle"] = encode_model(commit.model)
        store.append_event(COMMIT_RECEIVED, payload)

    def _journal_build(
        self, build: BuildRecord, rotations_before: int | None
    ) -> None:
        """Journal the outcome trail of one recorded build.

        ``rotations_before`` is the rotation count captured before the
        engine call for the per-commit webhook (``None`` when the caller
        already journaled the batch's rotations itself).
        """
        if self._state_store is None or self._replaying:
            return
        if rotations_before is not None:
            self._journal_rotations(rotations_before)
        result = build.result
        if result is not None and result.promoted:
            self._state_store.append_event(
                PROMOTION,
                {
                    "build_number": build.build_number,
                    "commit_sequence": build.commit.sequence,
                    "generation": result.generation,
                },
            )
        if result is not None and result.alarm_event is not None:
            event = result.alarm_event
            self._state_store.append_event(
                ALARM,
                {
                    "reason": event.reason,
                    "testset_name": event.testset_name,
                    "uses": event.uses,
                    "generation": event.generation,
                },
            )
        self._state_store.append_event(
            BUILD_RECORDED,
            {
                "build_number": build.build_number,
                "commit_sequence": build.commit.sequence,
                "commit_id": build.commit.commit_id,
                "status": build.commit.status,
                "ran": build.ran,
                "generation": build.generation,
                "skipped_reason": build.skipped_reason,
                "truly_passed": result.truly_passed if result else None,
                "promoted": result.promoted if result else None,
                "testset_uses": result.testset_uses if result else None,
            },
        )

    def _journal_rotations(self, rotations_before: int) -> None:
        if self._state_store is None or self._replaying:
            return
        for event in self.engine.rotations[rotations_before:]:
            self._state_store.append_event(
                ROTATION,
                {
                    "retired": event.retired_testset_name,
                    "installed": event.installed_testset_name,
                    "from_generation": event.from_generation,
                    "to_generation": event.to_generation,
                    "pending_generations": event.pending_generations,
                },
            )

    # -- durable state ------------------------------------------------------------
    def attach_persistence(
        self,
        store: DirectoryStateStore,
        *,
        snapshot_every: int | None = None,
        keep_snapshots: int | None = 3,
        storage: StorageGovernor | None = None,
    ) -> None:
        """Bind the service to a :class:`~repro.ci.persistence.DirectoryStateStore`.

        With a journal attached every
        webhook journals the commit before evaluating and the build
        trail after; ``snapshot_every=N`` also snapshots automatically
        after every ``N`` builds, bounding replay work (journal lag) at
        restore time.

        ``keep_snapshots=N`` (default 3) bounds the *disk*, the way
        ``snapshot_every`` bounds replay: every snapshot also prunes the
        store down to the newest ``N`` valid generations and compacts
        the journal through the oldest retained one's anchor — replay
        from any retained snapshot never hits a compacted gap.  Pass
        ``None`` to keep every generation (crash-forensics harnesses
        that reconstruct historical states need this).

        ``storage`` attaches a :class:`StorageGovernor`: every commit is
        gated on the state dir's byte budget *before* anything mutates —
        at the soft watermark the service reclaims (snapshot + prune +
        compact); at the hard watermark it degrades to read-only,
        rejecting commits with a retryable
        :class:`~repro.exceptions.StorageExhaustedError` until
        reclamation (or an operator) brings usage back under.
        """
        if snapshot_every is not None and snapshot_every < 1:
            raise PersistenceError(
                f"snapshot_every must be >= 1, got {snapshot_every}"
            )
        if keep_snapshots is not None and keep_snapshots < 1:
            raise PersistenceError(
                f"keep_snapshots must be >= 1, got {keep_snapshots}"
            )
        self._state_store = store
        self._snapshot_every = snapshot_every
        self._builds_since_snapshot = 0
        self._keep_snapshots = keep_snapshots
        self._storage = storage
        self._state_dir = store.snapshots.directory.parent
        self._storage_read_only = False
        if storage is not None:
            self.repository.add_commit_gate(self._storage_gate)

    def persist_to(
        self,
        state_dir: str | Path,
        *,
        snapshot_every: int | None = None,
        sync: bool = True,
        keep_snapshots: int | None = 3,
        storage: StorageGovernor | None = None,
    ) -> SnapshotInfo:
        """Bind to ``state_dir`` (creating it) and take the first snapshot.

        The initial snapshot makes the service restorable immediately —
        a crash before the first commit restores to this exact state.
        ``keep_snapshots`` and ``storage`` govern disk growth — see
        :meth:`attach_persistence`.
        """
        store = DirectoryStateStore.open(state_dir, create=True, sync=sync)
        self.attach_persistence(
            store,
            snapshot_every=snapshot_every,
            keep_snapshots=keep_snapshots,
            storage=storage,
        )
        return self.snapshot()

    def snapshot(self) -> SnapshotInfo:
        """Atomically persist the full exported state as a new snapshot.

        When a retention policy is attached (``keep_snapshots``), every
        snapshot also reclaims: old valid generations are pruned and the
        journal is checkpoint-truncated through the oldest retained
        anchor — the snapshot cadence is simultaneously the compaction
        cadence, so a long-running service's disk footprint is bounded
        by ``keep_snapshots`` generations plus one snapshot-interval of
        journal tail.
        """
        if self._state_store is None:
            raise PersistenceError(
                "no snapshot store attached; call persist_to()/attach_persistence()"
            )
        stamp = self._unjournaled_stamp()
        info = self._state_store.save_snapshot(self.export_state())
        self._builds_since_snapshot = 0
        self._saved_stamp = stamp
        self._journal_event(
            SNAPSHOT,
            {
                "snapshot_sequence": info.sequence,
                "path": info.path,
                "repository_length": info.repository_length,
            },
        )
        self._run_retention()
        return info

    def _run_retention(self) -> None:
        """Prune snapshots and compact the journal per ``keep_snapshots``.

        A no-op when retention is off; otherwise the one retention pass
        (:func:`~repro.ci.persistence.compact_retained`) through the
        *oldest retained valid* snapshot.
        """
        if self._keep_snapshots is None or self._state_store is None:
            return
        store = self._state_store
        compact_retained(store.snapshots, store.journal, self._keep_snapshots)

    def _storage_gate(self, count: int) -> None:
        """Commit-admission gate installed when a governor is attached.

        Runs *before* any commit mutates the repository.  Soft watermark
        → reclaim (snapshot advances the compaction anchor, then prune +
        compact) and proceed.  Hard watermark → reclaim without writing
        (retention only — a full disk cannot take a new snapshot), and
        if still over, degrade to read-only: the commit is refused with
        a retryable typed error, nothing durable is half-written, and
        the mode clears itself on the first gate pass back under the
        watermark.  Never gates replay — restore must work on a full
        disk.
        """
        if self._storage is None or self._replaying:
            return
        status = self._storage.check(self._state_dir)
        if status.level == "soft":
            record_event(
                "storage-soft-watermark",
                "ci.service",
                state_dir=str(self._state_dir),
                used_bytes=status.used_bytes,
                soft_bytes=status.soft_bytes,
            )
            try:
                self.snapshot()
            except (OSError, InjectedFault):
                self._run_retention()
            status = self._storage.check(self._state_dir)
        if status.level == "hard":
            self._run_retention()
            status = self._storage.check(self._state_dir)
        if status.read_only:
            if not self._storage_read_only:
                self._storage_read_only = True
                record_event(
                    "storage-degraded-read-only",
                    "ci.service",
                    state_dir=str(self._state_dir),
                    used_bytes=status.used_bytes,
                    hard_bytes=status.hard_bytes,
                )
            raise StorageExhaustedError(
                f"state dir {self._state_dir} is at its hard storage "
                f"watermark ({status.used_bytes}B >= {status.hard_bytes}B); "
                "service is degraded to read-only — reclaim or raise the "
                "budget, then retry",
                retry_after_seconds=self._storage.retry_after_seconds,
            )
        if self._storage_read_only:
            self._storage_read_only = False
            record_event(
                "storage-recovered",
                "ci.service",
                state_dir=str(self._state_dir),
                used_bytes=status.used_bytes,
            )

    def _maybe_auto_snapshot(self, builds: int = 1) -> None:
        self._builds_since_snapshot += builds
        if (
            self._snapshot_every is not None
            and self._state_store is not None
            and not self._replaying
            and self._builds_since_snapshot >= self._snapshot_every
        ):
            self.snapshot()

    def export_state(self) -> dict[str, Any]:
        """The service's durable state (format ``repro.ci-service/v1``).

        One mapping holding the engine's exported state, the repository
        (history + nonce; observers dropped) and the build records.  The
        transport — like the engine's notifier it feeds — is runtime
        wiring, re-supplied on restore.
        """
        return {
            "format": SERVICE_STATE_FORMAT,
            "engine": self.engine.export_state(),
            "repository": self.repository,
            "builds": list(self._builds),
        }

    @classmethod
    def from_state(
        cls,
        state: dict[str, Any],
        *,
        transport: NotificationTransport | None = None,
    ) -> "CIService":
        """Rebuild a service from :meth:`export_state` output.

        Rebuilds the engine (re-deriving the plan from the estimator config),
        rewires the repository webhook, and reattaches the runtime-only
        ``transport``.  Journal replay is :meth:`restore`'s job, not
        this method's.
        """
        fmt = state.get("format")
        if fmt != SERVICE_STATE_FORMAT:
            raise PersistenceError(
                f"unsupported service state format {fmt!r} "
                f"(this build reads {SERVICE_STATE_FORMAT!r})"
            )
        service = object.__new__(cls)
        service.repository = state["repository"]
        service.transport = transport
        service.delivery = service._wrap_transport(transport)
        notifier = service.delivery.send if service.delivery is not None else None
        service.engine = CIEngine.from_state(state["engine"], notifier=notifier)
        service.script = service.engine.script
        service.repository.on_commit(
            service._on_commit, batch_observer=service._on_commit_batch
        )
        service._builds = list(state["builds"])
        service._init_runtime_state()
        return service

    def __getstate__(self) -> dict[str, Any]:
        return self.export_state()

    def __setstate__(self, state: dict[str, Any]) -> None:
        restored = CIService.from_state(state)
        self.__dict__.update(restored.__dict__)
        # The unpickled copy, not `restored`, must be the webhook target.
        self.repository._observers = []
        self.repository.on_commit(
            self._on_commit, batch_observer=self._on_commit_batch
        )

    @classmethod
    def restore(
        cls,
        store: DirectoryStateStore,
        *,
        transport: NotificationTransport | None = None,
        snapshot_every: int | None = None,
        record: bool = True,
        keep_snapshots: int | None = 3,
        storage: StorageGovernor | None = None,
    ) -> "CIService":
        """Restore from the latest snapshot and replay the journal tail.

        Every journaled ``commit-received`` the snapshot predates is
        re-committed in sequence order (deduplicated by sequence, so
        restoring twice — or restoring a journal that already contains a
        previous restore's replay — never double-spends budget).  Replay
        recovers *state*, not side effects: the notifier is suppressed
        while replaying, since the pre-crash process already delivered
        those messages.  With ``record=True`` a ``restore`` event is
        journaled afterwards; ``repro ops`` passes ``record=False`` so
        inspection never mutates the journal.  What replays, and when a
        restore refuses with :class:`PersistenceError`, is
        :func:`~repro.ci.persistence.replay_plan`'s to say — the same
        verdict ``repro ops --fsck`` reports.

        Corrupt snapshots do not stop a restore:
        :meth:`SnapshotStore.load_latest` falls back to the newest
        *valid* snapshot, and the longer journal tail re-derives the
        missing builds.  Damaged files are quarantined (renamed, never
        deleted) only when ``record=True``; read-only inspection skips
        them in place.
        """
        loaded = store.load_latest(quarantine=record)
        if loaded is None:
            raise PersistenceError(
                f"no snapshot to restore from in {store.location}; "
                "persist_to() must have run at least once"
            )
        state, info = loaded
        service = cls.from_state(state, transport=transport)
        service.attach_persistence(
            store,
            snapshot_every=snapshot_every,
            keep_snapshots=keep_snapshots,
            storage=storage,
        )
        replayed = service._replay_journal(info.journal_sequence)
        if record:
            store.append_event(
                RESTORE,
                {"snapshot_sequence": info.sequence, "replayed_commits": replayed},
            )
        # Snapshot plus replay is exactly what the next restore rebuilds.
        service._saved_stamp = service._unjournaled_stamp()
        return service

    @classmethod
    def resume(
        cls,
        state_dir: str | Path,
        *,
        transport: NotificationTransport | None = None,
        snapshot_every: int | None = None,
        record: bool = True,
        keep_snapshots: int | None = 3,
        storage: StorageGovernor | None = None,
    ) -> "CIService":
        """:meth:`restore` from a persisted state directory.

        ``record=False`` opens the journal without healing or migrating
        it: inspection writes nothing.
        """
        store = DirectoryStateStore.open(state_dir, create=False, heal=record)
        return cls.restore(
            store,
            transport=transport,
            snapshot_every=snapshot_every,
            record=record,
            keep_snapshots=keep_snapshots,
            storage=storage,
        )

    def _replay_journal(self, anchor: int = 0) -> int:
        """Re-commit every journaled commit the snapshot predates.

        Commits the :func:`~repro.ci.persistence.replay_plan` from the
        snapshot's journal ``anchor`` and the restored repository length,
        or raises :class:`PersistenceError` with the plan's refusal.
        Returns the number of commits replayed.
        """
        assert self._state_store is not None
        plan = replay_plan(self._state_store.journal, anchor, len(self.repository))
        if plan.refusal is not None:
            raise PersistenceError(plan.refusal)
        engine_notifier = self.engine.notifier
        self._replaying = True
        self.engine.notifier = None  # replay recovers state, not side effects
        try:
            for payload in plan.commits:
                self.repository.commit(
                    decode_model(payload["model_pickle"]),
                    message=payload.get("message", ""),
                    author=payload.get("author", "developer"),
                )
        finally:
            self._replaying = False
            self.engine.notifier = engine_notifier
        return len(plan.commits)

    # -- integration-team operations --------------------------------------------------
    def install_testset(self, testset: Testset, baseline_model: Any | None = None) -> None:
        """Install a fresh testset after an alarm (delegates to the engine)."""
        self.engine.install_testset(testset, baseline_model)

    def install_testset_pool(self, pool: TestsetPool) -> None:
        """Attach a pool of pre-labeled testset generations to the engine.

        From then on builds rotate across generations instead of skipping
        on exhaustion; register a low-watermark callback on the pool to
        drive "label a new set now" workflows, and read each build's
        :attr:`BuildRecord.generation` for the serving audit trail.
        """
        self.engine.install_testset_pool(pool)

    def summary(self) -> str:
        """A per-build summary table for logs and examples."""
        lines = [f"builds for repository {self.repository.name!r}:"]
        for build in self._builds:
            if not build.ran:
                lines.append(
                    f"  #{build.build_number:<3} {build.commit.commit_id}  SKIPPED "
                    f"({build.skipped_reason})"
                )
                continue
            result = build.result
            assert result is not None
            signal = (
                "pass"
                if result.developer_signal
                else "fail"
                if result.developer_signal is not None
                else "(hidden)"
            )
            alarm = f"  ALARM: {result.alarm_event.reason.value}" if result.alarm_event else ""
            lines.append(
                f"  #{build.build_number:<3} {build.commit.commit_id}  "
                f"signal={signal:<8} promoted={str(result.promoted):<5} "
                f"uses={result.testset_uses}{alarm}"
            )
        return "\n".join(lines)

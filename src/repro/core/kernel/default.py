"""The stock kernel components, registered as backend ``"default"``.

Nothing here is new behavior — these classes adapt the implementations
the engine grew PR by PR (:class:`SampleSizeEstimator`,
:class:`ConditionEvaluator`, the PR-4 snapshot/journal pair) onto the
:mod:`repro.core.kernel.interfaces` protocols, so the refactored
:class:`~repro.core.engine.CIEngine` stays element-wise identical to the
pre-kernel engine on every input.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.core.estimators.api import SampleSizeEstimator
from repro.core.evaluation import ConditionEvaluator
from repro.core.kernel.registry import (
    register_backend,
    register_evaluator,
    register_planner,
    register_state_store,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ci.persistence import (
        EventJournal,
        JournalRecord,
        SnapshotInfo,
        SnapshotStore,
    )
    from repro.core.estimators.plans import SampleSizePlan
    from repro.core.script.config import CIScript

__all__ = ["DefaultPlanner", "DirectoryStateStore"]


class DefaultPlanner:
    """The stock :class:`Planner`: a thin seam over ``SampleSizeEstimator``.

    Plans are served from the estimator's process-wide LRU cache, so the
    rotation-time :meth:`replan_for` normally returns the *same object*
    the engine already evaluates with — the engine's prepacked evaluator
    survives the rotation.
    """

    def __init__(self, estimator: SampleSizeEstimator):
        self.estimator = estimator

    @classmethod
    def build(
        cls,
        *,
        estimator: SampleSizeEstimator | None = None,
        config: Mapping[str, Any] | None = None,
    ) -> "DefaultPlanner":
        """The registered planner factory (see the registry docstring).

        ``config`` rebuilds from a persisted ``export_config()`` mapping;
        a caller-supplied ``estimator`` is wrapped as is.
        """
        if config is not None:
            estimator = SampleSizeEstimator.from_config(config)
        elif estimator is None:
            estimator = SampleSizeEstimator()
        return cls(estimator)

    def plan_for(self, script: "CIScript") -> "SampleSizePlan":
        return self.estimator.plan(
            script.condition,
            delta=script.delta,
            adaptivity=script.adaptivity,
            steps=script.steps,
            known_variance_bound=script.variance_bound,
        )

    def replan_for(self, script: "CIScript") -> "SampleSizePlan":
        # Same derivation; the shared plan cache makes it a lookup.
        return self.plan_for(script)

    def export_config(self) -> dict[str, Any]:
        return self.estimator.export_config()

    def plan_requests(self, script: "CIScript") -> list[dict[str, Any]]:
        return [
            {
                "condition": script.condition_source,
                "delta": script.delta,
                "adaptivity": script.adaptivity.value,
                "steps": script.steps,
                "known_variance_bound": script.variance_bound,
                "estimator": self.estimator.export_config(),
            }
        ]


def _default_evaluator(
    plan: "SampleSizePlan", mode: Any, *, enforce_sample_size: bool = True
) -> ConditionEvaluator:
    """The registered evaluator factory: the stock ``ConditionEvaluator``."""

    return ConditionEvaluator(plan, mode, enforce_sample_size=enforce_sample_size)


class DirectoryStateStore:
    """The stock :class:`StateStore`: PR-4 snapshots + journal in one seam.

    Composes a :class:`~repro.ci.persistence.SnapshotStore` and an
    (optional) :class:`~repro.ci.persistence.EventJournal`; the
    underlying pair stays reachable as :attr:`snapshots` / :attr:`journal`
    for the service's retention and operations code.
    """

    def __init__(
        self, snapshots: "SnapshotStore", journal: "EventJournal | None" = None
    ):
        self.snapshots = snapshots
        self.journal = journal

    @classmethod
    def open(
        cls, path: Any, *, create: bool = True, sync: bool = True
    ) -> "DirectoryStateStore":
        """The registered state-store factory: a PR-4 state directory."""

        from repro.ci.persistence import open_state_dir

        snapshots, journal = open_state_dir(path, create=create, sync=sync)
        return cls(snapshots, journal)

    @property
    def location(self) -> str:
        return str(self.snapshots.directory)

    @property
    def journal_sequence(self) -> int | None:
        return None if self.journal is None else self.journal.last_sequence

    def save_snapshot(self, state: Mapping[str, Any]) -> "SnapshotInfo":
        if self.journal is not None:
            # A snapshot must never anchor past the journal's durable end,
            # or a power loss could reuse sequences it already covers.
            self.journal.sync()
        sequence = self.journal_sequence
        return self.snapshots.save(
            dict(state), journal_sequence=0 if sequence is None else sequence
        )

    def load_latest(
        self, *, quarantine: bool = True
    ) -> "tuple[dict[str, Any], SnapshotInfo] | None":
        return self.snapshots.load_latest(quarantine=quarantine)

    def append_event(self, type: str, payload: Mapping[str, Any]) -> None:
        if self.journal is not None:
            self.journal.append(type, dict(payload))

    def records_of(self, type: str) -> "Iterable[JournalRecord]":
        if self.journal is None:
            return ()
        return self.journal.records_of(type)

    def latest_info(self) -> "SnapshotInfo | None":
        return self.snapshots.latest_info()

    def quarantined(self) -> Sequence[Any]:
        return self.snapshots.quarantined()


register_planner("default", DefaultPlanner.build)
register_evaluator("default", _default_evaluator)
register_state_store("default", DirectoryStateStore.open)
register_backend("default")

"""The service-kernel protocols: ``Planner``, ``Evaluator``, ``StateStore``.

The guarantee chain of the paper — estimate the sample size, evaluate the
condition over confidence intervals, account for adaptivity — used to be
threaded through one concrete class per layer.  These three protocols are
the narrow seams the :class:`~repro.core.engine.CIEngine` and
:class:`~repro.ci.service.CIService` orchestrate over instead, so a new
planning tier (Bayesian posteriors), a new serving kernel (a jit'd
evaluator) or a new durability layer plugs in by *registration*
(:mod:`repro.core.kernel.registry`) — never by editing the engine.

What a backend must promise
---------------------------
The contracts are behavioral, and they are **parity-locked**: whatever an
implementation does internally, its observable outputs must be
element-wise identical to the stock backend's on the same inputs.  The
reusable conformance kit (``tests/conformance/``, run with
``pytest tests/conformance --engine-backend <name>``) certifies exactly
that — submit/submit_many parity in all three adaptivity modes, pool
rotation, restart parity through the backend's own state store, crash
replay, and the export/warm-manifest contracts.

* :class:`Planner` — pure planning: the plan for a script must be a
  deterministic function of (condition, reliability spec, planner
  config).  ``plan_for`` may cache; ``replan_for`` is the rotation-time
  call and may overlap serving, but must return a plan equal to
  ``plan_for``'s.  ``export_config()`` must round-trip through the
  backend's ``planner_from_config`` into a planner producing equal plans
  (this is what snapshots persist instead of plan objects).
* :class:`Evaluator` — the §3.5 interval semantics over one plan:
  ``evaluate_batch(batch)[i]`` must equal ``evaluate(batch.sample(i))``
  for every ``i``, and both must be pure functions of (plan, mode,
  sample).  ``prepack()`` is a warm-up hint — it may precompute derived
  state but must never change results.
* :class:`StateStore` — the PR-4 snapshot/journal export-restore
  contract behind one object: atomically durable snapshots of exported
  state mappings, an append-only event record, and replay-supporting
  reads.  ``load_latest`` after any crash-at-a-boundary must return a
  state from which journal replay reproduces the uninterrupted run.

Protocols are ``runtime_checkable`` so registries can sanity-check what
they are handed; structural typing means implementations need not import
anything from this module.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Iterable,
    Mapping,
    Protocol,
    Sequence,
    runtime_checkable,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ci.persistence import JournalRecord, SnapshotInfo
    from repro.core.estimators.plans import SampleSizePlan
    from repro.core.evaluation import EvaluationResult
    from repro.core.script.config import CIScript
    from repro.stats.estimation import PairedSample, PairedSampleBatch

__all__ = ["Planner", "Evaluator", "StateStore"]


@runtime_checkable
class Planner(Protocol):
    """Produces (and re-produces) the :class:`SampleSizePlan` for a script.

    The engine calls ``plan_for`` at construction and restore,
    ``replan_for`` on every pool rotation, ``export_config`` into
    snapshots, and ``plan_requests`` to build the warm manifest a
    restorer replays.  Plans must be deterministic in (script, config):
    two planners with equal configs must return equal plans, and a
    rotation re-plan that lands on an unchanged plan should return the
    *same object* when it can (the engine reuses the prepacked evaluator
    in that case — an equal-but-new object only costs a repack).
    """

    def plan_for(self, script: "CIScript") -> "SampleSizePlan":
        """The plan for ``script`` (construction / restore path)."""

    def replan_for(self, script: "CIScript") -> "SampleSizePlan":
        """The rotation-time re-plan; must equal :meth:`plan_for`'s result."""

    def export_config(self) -> dict[str, Any]:
        """Snapshot-persisted config; round-trips via ``planner_from_config``."""

    def plan_requests(self, script: "CIScript") -> list[dict[str, Any]]:
        """Warm-manifest entries a restorer replays to re-derive the plan."""


@runtime_checkable
class Evaluator(Protocol):
    """Evaluates one plan's formula against paired model predictions.

    Built per plan by the backend's evaluator factory; the engine holds
    one at a time and rebuilds it only when a rotation re-plan returns a
    genuinely different plan.
    """

    plan: "SampleSizePlan"
    enforce_sample_size: bool

    def evaluate(self, sample: "PairedSample") -> "EvaluationResult":
        """The scalar reference evaluation of one paired sample."""

    def evaluate_batch(
        self, batch: "PairedSampleBatch"
    ) -> tuple["EvaluationResult", ...]:
        """Element-wise equal to ``evaluate`` over ``batch.sample(i)``."""

    def prepack(self) -> None:
        """Precompute derived evaluation state; must never change results."""


@runtime_checkable
class StateStore(Protocol):
    """Durable snapshots plus an append-only event record, as one seam.

    The default implementation composes the PR-4
    :class:`~repro.ci.persistence.SnapshotStore` and
    :class:`~repro.ci.persistence.EventJournal`; any implementation must
    honor the same crash model — a snapshot is atomically whole or
    absent; an appended event survives process death, and survives
    power loss once the next durable append (``commit-received``) or
    snapshot returns, so a snapshot never anchors past the durable
    events; and ``records_of("commit-received")`` after a crash returns
    every commit whose append completed, in order.
    """

    @property
    def location(self) -> str:
        """Human-readable description of where the state lives."""

    @property
    def journal_sequence(self) -> int | None:
        """Newest durable event sequence (``None`` = no event record)."""

    def save_snapshot(self, state: Mapping[str, Any]) -> "SnapshotInfo":
        """Durably persist one exported-state mapping, atomically."""

    def load_latest(
        self, *, quarantine: bool = True
    ) -> tuple[dict[str, Any], "SnapshotInfo"] | None:
        """The newest restorable snapshot (``None`` for an empty store)."""

    def append_event(self, type: str, payload: Mapping[str, Any]) -> None:
        """Append one event (a no-op when no journal is attached)."""

    def records_of(self, type: str) -> Iterable["JournalRecord"]:
        """Every durable event of ``type``, in append order."""

    def latest_info(self) -> "SnapshotInfo | None":
        """Metadata of the newest restorable snapshot, without its payload."""

    def quarantined(self) -> Sequence[Any]:
        """Damage artifacts set aside by self-healing (empty when clean)."""

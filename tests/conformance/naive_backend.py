"""A deliberately-naive kernel backend, registered from test code.

This module is the proof behind the kit's headline claim: a complete
``Planner`` / ``Evaluator`` / ``StateStore`` triple plugs into
:class:`~repro.core.engine.CIEngine` and :class:`~repro.ci.service.CIService`
through :mod:`repro.core.kernel` registration alone — zero edits to
``core/engine.py`` (``test_contracts.py`` literally asserts the engine
source never mentions this backend).

Every component takes the slowest correct path on purpose:

* :class:`NaivePlanner` — a cache-disabled, strictly-serial
  ``SampleSizeEstimator``: every ``plan_for``/``replan_for`` is a cold
  derivation returning a *new* (structurally equal) plan object, so the
  engine's rotation path exercises its evaluator-rebuild branch.
* :class:`NaiveEvaluator` — no vectorization: ``evaluate_batch`` loops
  the scalar reference evaluation over ``batch.sample(i)``; ``prepack``
  is a no-op.
* :class:`NaiveStateStore` — whole-file pickles plus a rewrite-the-file
  JSON journal.  Valid under the conformance crash model (in-memory
  loss with intact files): snapshots land via write-temp-then-rename
  and the journal rewrite is a temp-file replace, so a durable write is
  atomically whole.

The conformance suite must pass for this backend exactly as it does for
``"default"`` — that equivalence is what certifies the protocol
contracts rather than one implementation's internals.
"""

from __future__ import annotations

import json
import pickle
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.ci.persistence import JournalRecord, SnapshotInfo
from repro.core.estimators.api import SampleSizeEstimator
from repro.core.evaluation import ConditionEvaluator, EvaluationResult
from repro.core.kernel import (
    register_backend,
    register_evaluator,
    register_planner,
    register_state_store,
)
from repro.exceptions import PersistenceError, TestsetSizeError
from repro.utils.serialization import to_jsonable

BACKEND_NAME = "naive"


class NaivePlanner:
    """Cold planning: correct and cache-less."""

    def __init__(self, estimator: SampleSizeEstimator):
        self.estimator = estimator

    @classmethod
    def build(cls, *, estimator=None, config=None) -> "NaivePlanner":
        if config is not None:
            base = dict(config)
        elif estimator is not None:
            base = estimator.export_config()
        else:
            base = {}
        # Whatever was asked for, plan cold — the naive tier has no
        # cache.  Plans are pure functions of the condition/spec/config,
        # so results still match the default backend's cached
        # derivations bit for bit.
        base["use_plan_cache"] = False
        self_estimator = SampleSizeEstimator.from_config(base)
        return cls(self_estimator)

    def _derive(self, script):
        return self.estimator.plan(
            script.condition,
            delta=script.delta,
            adaptivity=script.adaptivity,
            steps=script.steps,
            known_variance_bound=script.variance_bound,
        )

    def plan_for(self, script):
        return self._derive(script)

    def replan_for(self, script):
        return self._derive(script)

    def export_config(self) -> dict[str, Any]:
        return self.estimator.export_config()

    def plan_requests(self, script) -> list[dict[str, Any]]:
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


class NaiveEvaluator:
    """No vectorization: the scalar reference evaluation, element by element."""

    def __init__(self, plan, mode, *, enforce_sample_size: bool = True):
        self._scalar = ConditionEvaluator(
            plan, mode, enforce_sample_size=enforce_sample_size
        )

    @property
    def plan(self):
        return self._scalar.plan

    @property
    def mode(self):
        return self._scalar.mode

    @property
    def enforce_sample_size(self) -> bool:
        return self._scalar.enforce_sample_size

    def evaluate(self, sample) -> EvaluationResult:
        return self._scalar.evaluate(sample)

    def evaluate_batch(self, batch) -> tuple[EvaluationResult, ...]:
        if self.enforce_sample_size and len(batch) < self.plan.pool_size:
            raise TestsetSizeError(
                f"testset has {len(batch)} examples but the plan requires "
                f"{self.plan.pool_size}; the ({self.plan.delta:g})-guarantee "
                "would not hold"
            )
        return tuple(
            self._scalar.evaluate(batch.sample(i)) for i in range(batch.batch_size)
        )

    def prepack(self) -> None:
        pass  # nothing to prepack — the loop has no derived state


def _utc_stamp() -> str:
    return datetime.now(timezone.utc).isoformat()


class NaiveStateStore:
    """Whole-file pickles and a rewrite-everything JSON journal.

    Layout under one directory: ``naive-snap-<n>.pickle`` envelopes
    (sequence, journal sequence, state) and ``naive-journal.json`` — a
    single JSON array rewritten in full on every append via a temp-file
    replace.  O(journal) per event and proud of it; what matters for
    conformance is the contract: atomically-whole durable writes,
    1-based sequences, append-order reads.
    """

    def __init__(self, directory: str | Path, *, create: bool = True, sync: bool = True):
        self.directory = Path(directory)
        if create:
            self.directory.mkdir(parents=True, exist_ok=True)
        elif not self.directory.is_dir():
            raise PersistenceError(f"no naive state directory at {self.directory}")
        self._journal_path = self.directory / "naive-journal.json"

    @classmethod
    def open(cls, path, *, create: bool = True, sync: bool = True) -> "NaiveStateStore":
        return cls(path, create=create, sync=sync)

    # -- snapshots ---------------------------------------------------------
    def _snapshot_paths(self) -> list[tuple[int, Path]]:
        found = []
        for path in self.directory.glob("naive-snap-*.pickle"):
            try:
                found.append((int(path.stem.rsplit("-", 1)[1]), path))
            except ValueError:
                continue
        return sorted(found)

    def _info(self, sequence: int, envelope: Mapping[str, Any], path: Path) -> SnapshotInfo:
        return SnapshotInfo(
            sequence=sequence,
            journal_sequence=int(envelope["journal_sequence"]),
            format_version=1,
            path=path,
        )

    def save_snapshot(self, state: Mapping[str, Any]) -> SnapshotInfo:
        existing = self._snapshot_paths()
        sequence = existing[-1][0] + 1 if existing else 1
        envelope = {
            "sequence": sequence,
            "journal_sequence": self.journal_sequence,
            "state": dict(state),
        }
        path = self.directory / f"naive-snap-{sequence:06d}.pickle"
        temp = path.with_suffix(".tmp")
        temp.write_bytes(pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL))
        temp.replace(path)
        return self._info(sequence, envelope, path)

    def load_latest(self, *, quarantine: bool = True):
        existing = self._snapshot_paths()
        if not existing:
            return None
        sequence, path = existing[-1]
        envelope = pickle.loads(path.read_bytes())
        return dict(envelope["state"]), self._info(sequence, envelope, path)

    def latest_info(self) -> SnapshotInfo | None:
        existing = self._snapshot_paths()
        if not existing:
            return None
        sequence, path = existing[-1]
        envelope = pickle.loads(path.read_bytes())
        return self._info(sequence, envelope, path)

    def quarantined(self) -> list:
        return []

    # -- the event record --------------------------------------------------
    @property
    def location(self) -> str:
        return str(self.directory)

    def _read_journal(self) -> list[dict[str, Any]]:
        if not self._journal_path.exists():
            return []
        return json.loads(self._journal_path.read_text(encoding="utf-8"))

    @property
    def journal_sequence(self) -> int:
        return len(self._read_journal())

    def append_event(self, type: str, payload: Mapping[str, Any]) -> None:
        records = self._read_journal()
        records.append(
            to_jsonable(
                {
                    "sequence": len(records) + 1,
                    "type": type,
                    "recorded_at": _utc_stamp(),
                    "payload": dict(payload),
                }
            )
        )
        temp = self._journal_path.with_suffix(".tmp")
        temp.write_text(json.dumps(records), encoding="utf-8")
        temp.replace(self._journal_path)

    def records_of(self, type: str) -> Iterator[JournalRecord]:
        for record in self._read_journal():
            if record["type"] == type:
                yield JournalRecord(
                    sequence=int(record["sequence"]),
                    type=record["type"],
                    recorded_at=record["recorded_at"],
                    payload=record["payload"],
                )


def register() -> str:
    """Register the naive triple (idempotent; module import calls it)."""
    from repro.core.kernel import available_backends

    if BACKEND_NAME not in available_backends():
        register_planner(BACKEND_NAME, NaivePlanner.build)
        register_evaluator(BACKEND_NAME, NaiveEvaluator)
        register_state_store(BACKEND_NAME, NaiveStateStore.open)
        register_backend(
            BACKEND_NAME,
            planner=BACKEND_NAME,
            evaluator=BACKEND_NAME,
            state_store=BACKEND_NAME,
        )
    return BACKEND_NAME


register()

"""Restart parity: crash at any journal boundary, restore, finish the queue.

The headline invariant of the persistence subsystem (mirroring the
pool-parity methodology of ``tests/core/test_engine_pool.py``): a service
killed at *any* journal boundary and restored from its state directory
finishes the commit queue with a ``CommitResult``/``BuildRecord``
sequence element-wise identical to the uninterrupted run — results,
statuses, generations, alarm events, rotation log and budget accounting
— in all three adaptivity modes.

The crash is simulated faithfully rather than in-process: the persisted
run's state directory is copied *as a crash at journal sequence ``j``
would have left it* — only snapshots taken at or before ``j``, and the
journal truncated to its first ``j`` records — and a fresh service is
restored from the copy.  Because the copy is built from on-disk artifacts
only, the restored service shares no Python state with the crashed one.
"""

import shutil

import numpy as np
import pytest

from repro.ci.repository import ModelRepository
from repro.ci.service import CIService
from repro.core.estimators.api import SampleSizeEstimator
from repro.core.script.config import CIScript
from repro.core.testset import Testset, TestsetPool
from repro.ci.persistence import SnapshotStore
from repro.ml.models.base import FixedPredictionModel
from repro.ml.models.simulated import (
    ModelPairSpec,
    evolve_predictions,
    simulate_model_pair,
)

CONDITION = "d < 0.25 +/- 0.1 /\\ n - o > 0.05 +/- 0.1"
ADAPTIVITY_MODES = ["full", "none -> third-party@example.com", "firstChange"]


def make_script(adaptivity, steps=4):
    return CIScript.from_dict(
        {
            "script": "./test_model.py",
            "condition": CONDITION,
            "reliability": 0.999,
            "mode": "fp-free",
            "adaptivity": adaptivity,
            "steps": steps,
        }
    )


def make_world(script, commits=10, promote_at=(2, 6), generations=3, seed=0):
    """Commit queue plus ``generations`` equally-sized testsets."""
    plan = SampleSizeEstimator().plan(
        script.condition,
        delta=script.delta,
        adaptivity=script.adaptivity,
        steps=script.steps,
        known_variance_bound=script.variance_bound,
    )
    pair = simulate_model_pair(
        ModelPairSpec(old_accuracy=0.80, new_accuracy=0.80, difference=0.0),
        n_examples=plan.pool_size,
        seed=seed,
    )
    labels = pair.labels
    models, current = [], pair.old_model.predictions
    for i in range(commits):
        target = 0.88 if i in promote_at else 0.81
        predictions = evolve_predictions(
            current, labels, target_accuracy=target, difference=0.12, seed=100 + i
        )
        models.append(FixedPredictionModel(predictions, name=f"m{i}"))
        if i in promote_at:
            current = predictions
    rng = np.random.default_rng(seed + 1)
    testsets = [Testset(labels=labels, name="gen-0")]
    for g in range(1, generations):
        testsets.append(
            Testset(labels=rng.integers(0, 2, size=plan.pool_size), name=f"gen-{g}")
        )
    return testsets, pair.old_model, models


def make_service(script, testsets, baseline):
    # A fixed repository nonce so the uninterrupted reference and every
    # restored run mint byte-identical commit ids.
    service = CIService(
        script,
        testsets[0],
        baseline,
        repository=ModelRepository(nonce="parity-nonce"),
    )
    service.install_testset_pool(TestsetPool(testsets[1:]))
    return service


def crash_copy(state_dir, crash_dir, boundary):
    """Reconstruct the state dir as a crash at journal seq ``boundary`` left it.

    Journal record sequences are 1-based line numbers, so the first
    ``boundary`` lines are exactly the records appended at or before the
    boundary; a snapshot file exists iff it was taken at or before it.
    """
    source = SnapshotStore(state_dir / "snapshots")
    (crash_dir / "snapshots").mkdir(parents=True)
    for sequence in source.sequences():
        _, info = source.load(sequence)
        if info.journal_sequence <= boundary:
            shutil.copy2(info.path, crash_dir / "snapshots" / info.path.name)
    lines = (state_dir / "journal.jsonl").read_text(encoding="utf-8").splitlines()
    (crash_dir / "journal.jsonl").write_text(
        "".join(line + "\n" for line in lines[:boundary]), encoding="utf-8"
    )


def assert_parity(reference, restored):
    """Element-wise build/engine/budget equality of two finished services."""
    ref, got = reference.builds, restored.builds
    assert len(got) == len(ref)
    assert [b.build_number for b in got] == [b.build_number for b in ref]
    assert [b.result for b in got] == [b.result for b in ref]
    assert [b.commit.status for b in got] == [b.commit.status for b in ref]
    assert [b.commit.commit_id for b in got] == [b.commit.commit_id for b in ref]
    assert [b.generation for b in got] == [b.generation for b in ref]
    assert [b.skipped_reason for b in got] == [b.skipped_reason for b in ref]
    assert restored.engine.results == reference.engine.results
    assert restored.engine.alarm.events == reference.engine.alarm.events
    assert restored.engine.rotations == reference.engine.rotations
    assert restored.engine.manager.generation == reference.engine.manager.generation
    assert restored.engine.manager.uses == reference.engine.manager.uses
    assert restored.engine.manager.remaining == reference.engine.manager.remaining
    assert restored.engine.pool.pending == reference.engine.pool.pending
    assert getattr(restored.engine.active_model, "name", None) == getattr(
        reference.engine.active_model, "name", None
    )


def run_reference(script, testsets, baseline, models):
    service = make_service(script, testsets, baseline)
    for model in models:
        service.repository.commit(model, message=model.name)
    return service


def run_persisted(script, testsets, baseline, models, state_dir, **persist_kwargs):
    service = make_service(script, testsets, baseline)
    # Retention off: crash_copy reconstructs historical crash states from
    # the final directory, so every snapshot generation must survive.
    persist_kwargs.setdefault("keep_snapshots", None)
    service.persist_to(state_dir, **persist_kwargs)
    for model in models:
        service.repository.commit(model, message=model.name)
    return service


def finish_queue(restored, models):
    """Feed every model the restored repository does not already hold."""
    for model in models[len(restored.repository):]:
        restored.repository.commit(model, message=model.name)
    return restored


@pytest.mark.parametrize("adaptivity", ADAPTIVITY_MODES)
def test_every_journal_boundary_restores_identically(adaptivity, tmp_path):
    script = make_script(adaptivity)
    testsets, baseline, models = make_world(script)
    reference = run_reference(script, testsets, baseline, models)
    persisted = run_persisted(
        script, testsets, baseline, models, tmp_path / "state"
    )
    assert_parity(reference, persisted)  # journaling itself changes nothing

    total = persisted._state_store.journal.last_sequence
    assert total > len(models)  # commit-received + build trail per commit
    for boundary in range(total + 1):
        crash_dir = tmp_path / f"crash-{boundary:03d}"
        crash_copy(tmp_path / "state", crash_dir, boundary)
        restored = CIService.resume(crash_dir)
        finish_queue(restored, models)
        assert_parity(reference, restored)


@pytest.mark.parametrize("adaptivity", ADAPTIVITY_MODES)
def test_snapshot_cadence_boundaries_restore_identically(adaptivity, tmp_path):
    # With snapshot_every=3 some crash points restore from a mid-run
    # snapshot and replay a short journal tail; results must not care.
    script = make_script(adaptivity)
    testsets, baseline, models = make_world(script)
    reference = run_reference(script, testsets, baseline, models)
    persisted = run_persisted(
        script, testsets, baseline, models, tmp_path / "state", snapshot_every=3
    )
    assert persisted._state_store.snapshots.latest_sequence > 1  # cadence actually snapshotted

    total = persisted._state_store.journal.last_sequence
    for boundary in range(total + 1):
        crash_dir = tmp_path / f"crash-{boundary:03d}"
        crash_copy(tmp_path / "state", crash_dir, boundary)
        restored = CIService.resume(crash_dir)
        finish_queue(restored, models)
        assert_parity(reference, restored)


def test_batch_ingest_crash_boundaries_restore_identically(tmp_path):
    # process_batch journals every commit-received up front; a crash after
    # any prefix of those records replays that prefix sequentially, and
    # the remainder is re-ingested as a batch.  Sequential-vs-batch parity
    # (PR 2) plus replay determinism keep the outcome identical.
    script = make_script("full")
    testsets, baseline, models = make_world(script)
    reference = make_service(script, testsets, baseline)
    reference.process_batch(models)

    persisted = make_service(script, testsets, baseline)
    persisted.persist_to(tmp_path / "state", keep_snapshots=None)
    persisted.process_batch(models)
    assert_parity(reference, persisted)

    total = persisted._state_store.journal.last_sequence
    for boundary in range(total + 1):
        crash_dir = tmp_path / f"crash-{boundary:03d}"
        crash_copy(tmp_path / "state", crash_dir, boundary)
        restored = CIService.resume(crash_dir)
        remainder = models[len(restored.repository):]
        if remainder:
            restored.process_batch(remainder)
        assert_parity(reference, restored)

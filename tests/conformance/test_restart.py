"""Restart parity through the state directory.

The crash model matches ``tests/ci/test_restart_parity.py``: the process
loses all in-memory state but the files a durable write completed are
intact.  The ``DirectoryStateStore`` must let ``CIService.resume`` pick
up from *any* commit boundary and converge — element for element — on
the uninterrupted reference run.
"""

import pytest

from repro.ci.service import CIService

from tests.ci.test_restart_parity import assert_parity, finish_queue
from tests.conformance.conftest import ADAPTIVITY_MODES


def _persisted_prefix(service_factory, world_tuple, state_dir, k, **persist_kwargs):
    """Run a persisted service for the first ``k`` commits, then 'crash'."""
    script, testsets, baseline, models = world_tuple
    service = service_factory(script, testsets, baseline)
    service.persist_to(state_dir, **persist_kwargs)
    for model in models[:k]:
        service.repository.commit(model, message=model.name)
    # The crash: drop every in-memory object; only state_dir survives.
    return None


@pytest.mark.parametrize("adaptivity", ADAPTIVITY_MODES)
def test_every_commit_boundary_resumes_identically(
    adaptivity, tmp_path, world, service_factory, reference_service_factory
):
    world_tuple = world(adaptivity)
    script, testsets, baseline, models = world_tuple
    reference = reference_service_factory(script, testsets, baseline)
    for model in models:
        reference.repository.commit(model, message=model.name)

    for k in range(len(models) + 1):
        state_dir = tmp_path / f"prefix-{k:02d}"
        _persisted_prefix(service_factory, world_tuple, state_dir, k)
        restored = CIService.resume(state_dir)
        finish_queue(restored, models)
        assert_parity(reference, restored)


@pytest.mark.parametrize("adaptivity", ADAPTIVITY_MODES)
def test_snapshot_cadence_resumes_identically(
    adaptivity, tmp_path, world, service_factory, reference_service_factory
):
    world_tuple = world(adaptivity)
    script, testsets, baseline, models = world_tuple
    reference = reference_service_factory(script, testsets, baseline)
    for model in models:
        reference.repository.commit(model, message=model.name)

    for k in (4, 7, len(models)):
        state_dir = tmp_path / f"cadence-{k:02d}"
        _persisted_prefix(service_factory, world_tuple, state_dir, k, snapshot_every=3)
        store = CIService.resume(state_dir)
        finish_queue(store, models)
        assert_parity(reference, store)


def test_double_resume_is_idempotent(
    tmp_path, world, service_factory, reference_service_factory
):
    """Resuming the same directory twice never double-spends budget.

    First variant: two resumes from the same partial state, both finish
    the queue independently.  Second variant: the first resumed service
    journals its remaining commits back into the directory, and a
    subsequent resume replays them to the already-finished state.
    """
    world_tuple = world("full")
    script, testsets, baseline, models = world_tuple
    reference = reference_service_factory(script, testsets, baseline)
    for model in models:
        reference.repository.commit(model, message=model.name)

    state_dir = tmp_path / "twice"
    _persisted_prefix(service_factory, world_tuple, state_dir, 6)

    first = CIService.resume(state_dir)
    finish_queue(first, models)
    assert_parity(reference, first)

    second = CIService.resume(state_dir)
    # ``first`` journaled commits 7..N into the directory, so the replay
    # alone must reach the finished state; finish_queue is then a no-op.
    finish_queue(second, models)
    assert_parity(reference, second)


def test_resume_reports_backend_store_operations(
    tmp_path, world, service_factory
):
    world_tuple = world("full")
    script, testsets, baseline, models = world_tuple
    _persisted_prefix(service_factory, world_tuple, tmp_path / "ops", 3)
    restored = CIService.resume(tmp_path / "ops")
    ops = restored.operations()
    assert ops.persistence_attached is True
    assert ops.journal_sequence is not None and ops.journal_sequence >= 3
    assert restored.engine.estimator.use_plan_cache is False

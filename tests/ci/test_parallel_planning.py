"""Parallel-planned services: worker count never changes CI outcomes.

Satellite of the parallel-planning PR: a service configured with
``workers="auto"`` produces build records element-wise identical to the
serial service, and — the restart-parity angle — snapshots taken under
``workers="auto"`` restore element-wise identical on a serial-configured
process (plans are re-derived through the restore warmer, which always
derives serially, never through a pool).
"""

import pytest

from repro.ci.repository import ModelRepository
from repro.ci.service import CIService
from repro.core.testset import TestsetPool
from repro.stats.cache import clear_all_caches
from repro.stats.parallel import WORKERS_ENV

from tests.ci.test_restart_parity import (
    ADAPTIVITY_MODES,
    assert_parity,
    crash_copy,
    finish_queue,
    make_script,
    make_service,
    make_world,
)


def make_parallel_service(script, testsets, baseline):
    service = CIService(
        script,
        testsets[0],
        baseline,
        repository=ModelRepository(nonce="parity-nonce"),
        workers="auto",
    )
    service.install_testset_pool(TestsetPool(testsets[1:]))
    return service


@pytest.mark.parametrize("adaptivity", ADAPTIVITY_MODES)
def test_parallel_service_matches_serial(adaptivity):
    script = make_script(adaptivity)
    testsets, baseline, models = make_world(script)
    serial = make_service(script, testsets, baseline)
    parallel = make_parallel_service(script, testsets, baseline)
    for model in models:
        serial.repository.commit(model, message=model.name)
        parallel.repository.commit(model, message=model.name)
    assert_parity(serial, parallel)
    assert parallel.engine.planner.estimator.workers == "auto"


def test_cold_two_worker_service_matches_serial():
    # "auto" degrades to serial on single-CPU hosts, so force a real
    # pool: the service's construction-time plan is derived cold in a
    # worker process and must still match the serial service exactly.
    script = make_script("full")
    testsets, baseline, models = make_world(script)
    serial = make_service(script, testsets, baseline)
    clear_all_caches()
    parallel = CIService(
        script,
        testsets[0],
        baseline,
        repository=ModelRepository(nonce="parity-nonce"),
        workers=2,
    )
    parallel.install_testset_pool(TestsetPool(testsets[1:]))
    for model in models:
        serial.repository.commit(model, message=model.name)
        parallel.repository.commit(model, message=model.name)
    assert_parity(serial, parallel)


def test_auto_snapshot_restores_identically_on_a_serial_process(
    tmp_path, monkeypatch
):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    script = make_script("full")
    testsets, baseline, models = make_world(script)
    reference = make_service(script, testsets, baseline)  # serial, uninterrupted
    for model in models:
        reference.repository.commit(model, message=model.name)

    persisted = make_parallel_service(script, testsets, baseline)
    persisted.persist_to(tmp_path / "state")
    for model in models:
        persisted.repository.commit(model, message=model.name)
    assert_parity(reference, persisted)

    total = persisted._journal.last_sequence
    for boundary in sorted({0, 1, total // 2, total - 1, total}):
        crash_dir = tmp_path / f"crash-{boundary:03d}"
        crash_copy(tmp_path / "state", crash_dir, boundary)
        # The restoring process is serial-configured: cold caches, no
        # workers env.  The restore warmer re-derives the plan serially
        # even though the snapshotted estimator carried workers="auto".
        clear_all_caches()
        restored = CIService.resume(crash_dir)
        finish_queue(restored, models)
        assert_parity(reference, restored)

"""The chaos parity gate: kill workers, corrupt snapshots — same results.

Acceptance criterion of the fault-tolerance PR, in the style of the
restart-parity suite: a run whose planning workers are killed mid-sweep
AND whose latest snapshot is corrupted on disk must, after a resume,
finish the commit queue with build records element-wise identical to the
uninterrupted serial run — in all three adaptivity modes.  Fault
tolerance is allowed to cost retries, respawns, degraded-mode planning
and a longer journal replay; it is never allowed to change a result.

``test_seeded_chaos_parity`` is the CI chaos leg's entry point: it reads
``REPRO_FAULT_SEED`` (default 0, so the test is deterministic locally
too) and schedules probabilistic faults from it.
"""

import sys

import numpy as np
import pytest

sys.path.insert(0, "tests/ci")
from test_restart_parity import (  # noqa: E402
    ADAPTIVITY_MODES,
    assert_parity,
    finish_queue,
    make_script,
    make_service,
    make_world,
    run_reference,
)

from repro.ci.repository import ModelRepository  # noqa: E402
from repro.ci.service import CIService  # noqa: E402
from repro.core.testset import TestsetPool  # noqa: E402
from repro.reliability.events import reliability_events  # noqa: E402
from repro.reliability.faults import (  # noqa: E402
    FaultRule,
    injected_faults,
    seed_from_env,
)
from repro.stats.cache import clear_all_caches  # noqa: E402
from repro.stats.parallel import PlanningExecutor, shutdown_executors  # noqa: E402

KILL_EVERY_WORKER = FaultRule(
    site="executor.task", action="kill", at=1, times=None
)


def make_chaos_service(script, testsets, baseline):
    """A parallel-planning service built while workers are being killed.

    Caches and shared executors are cleared first so construction really
    performs the cold sharded planning pass (epsilon sweep + plan
    derivation) in worker processes — which the active kill rule then
    takes down, driving the full supervision ladder before the plan
    comes back bit-identical from the serial fallback.
    """
    clear_all_caches()
    shutdown_executors()
    service = CIService(
        script,
        testsets[0],
        baseline,
        repository=ModelRepository(nonce="parity-nonce"),
        workers=2,
    )
    service.install_testset_pool(TestsetPool(testsets[1:]))
    return service


def truncate(path, keep=80):
    path.write_bytes(path.read_bytes()[:keep])


@pytest.mark.parametrize("adaptivity", ADAPTIVITY_MODES)
def test_killed_workers_plus_corrupt_snapshot_restore_identically(
    adaptivity, tmp_path
):
    script = make_script(adaptivity)
    testsets, baseline, models = make_world(script)
    reference = run_reference(script, testsets, baseline, models)

    # -- chaos run: every planning worker dies on its first task ----------
    with injected_faults([KILL_EVERY_WORKER]):
        service = make_chaos_service(script, testsets, baseline)
        service.persist_to(tmp_path / "state", snapshot_every=3)
        for model in models[:6]:
            service.repository.commit(model, message=model.name)
    assert reliability_events("planning-degraded")  # the ladder was walked
    assert_parity_prefix(reference, service, 6)

    # -- then the newest snapshot rots on disk ----------------------------
    snapshots = sorted((tmp_path / "state" / "snapshots").glob("*.pkl"))
    assert len(snapshots) > 1  # cadence produced a fallback generation
    truncate(snapshots[-1])

    # -- resume in a "new process": cold caches, fresh executors ----------
    clear_all_caches()
    shutdown_executors()
    restored = CIService.resume(tmp_path / "state")
    assert restored._store.quarantined()  # the damage was moved aside
    assert reliability_events("snapshot-fallback")
    finish_queue(restored, models)
    assert_parity(reference, restored)


def assert_parity_prefix(reference, service, count):
    ref, got = reference.builds[:count], service.builds
    assert len(got) == count
    assert [b.result for b in got] == [b.result for b in ref]
    assert [b.commit.status for b in got] == [b.commit.status for b in ref]
    assert [b.commit.commit_id for b in got] == [b.commit.commit_id for b in ref]


def test_seeded_chaos_parity(tmp_path):
    """The CI chaos leg: probabilistic faults from ``REPRO_FAULT_SEED``.

    Whatever schedule the seed draws — flaky worker tasks raising at
    random traversals — the sharded epsilon sweep and the cold plan
    derivations must return exactly the serial answers (retried or
    degraded to serial; never different).
    """
    seed = seed_from_env(default=0)
    sizes = np.unique(np.linspace(300, 1600, 8).astype(int))
    specs = [(0.05, 1e-3), (0.04, 1e-3), (0.06, 1e-2), (0.05, 1e-2)]

    clear_all_caches()
    with PlanningExecutor(workers=1) as serial:
        expected_eps = serial.tight_epsilon_many(sizes, 1e-2, tol=1e-5)
    expected_ns = [serial.tight_sample_size(e, d) for e, d in specs]

    rules = [
        FaultRule(
            site="executor.task",
            action="raise",
            probability=0.25,
            times=None,
        ),
    ]
    clear_all_caches()
    with injected_faults(rules, seed=seed):
        with PlanningExecutor(
            workers=2, max_retries=2, backoff=0.0, sleep=lambda _: None
        ) as executor:
            got_eps = executor.tight_epsilon_many(sizes, 1e-2, tol=1e-5)
            got_ns = executor.tight_sample_size_many(specs)
    np.testing.assert_array_equal(got_eps, expected_eps)
    assert got_ns == expected_ns

"""The chaos parity gate: torn writes, corrupt snapshots — same results.

Acceptance criterion of the fault-tolerance work, in the style of the
restart-parity suite: a run whose snapshots and journal appends are torn
on disk, whose notifications fail, and whose newest snapshot rots must,
after a resume, finish the commit queue with build records element-wise
identical to the uninterrupted run — in all three adaptivity modes.
Fault tolerance is allowed to cost retries, quarantined files and a
longer journal replay; it is never allowed to change a result.

``test_seeded_chaos_parity`` is the CI chaos leg's entry point: it reads
``REPRO_FAULT_SEED`` (default 0, so the test is deterministic locally
too) and schedules probabilistic faults from it.
"""

import sys

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

from repro.ci.notifications import (  # noqa: E402
    InMemoryEmailTransport,
    RetryingTransport,
)
from repro.ci.repository import ModelRepository  # noqa: E402
from repro.ci.service import CIService  # noqa: E402
from repro.core.testset import TestsetPool  # noqa: E402
from repro.reliability.events import reliability_events  # noqa: E402
from repro.reliability.faults import (  # noqa: E402
    FaultRule,
    InjectedFault,
    injected_faults,
    seed_from_env,
)
from repro.reliability.fsck import fsck_state_dir  # noqa: E402
from repro.stats.cache import clear_all_caches  # noqa: E402

#: The seeded schedule: silent snapshot tears (found only at the next
#: restore), journal appends torn mid-line (a crash mid-append), and a
#: flaky notification transport (retried, at worst dead-lettered).
SEEDED_RULES = [
    FaultRule(
        site="snapshot.write", action="tear", probability=0.3, tear_at=64,
        times=None,
    ),
    FaultRule(
        site="journal.append", action="tear", probability=0.08, tear_at=20,
        times=None,
    ),
    FaultRule(
        site="notification.send", action="raise", probability=0.3, times=None
    ),
]
PERSIST = dict(snapshot_every=3, sync=False)


def truncate(path, keep=80):
    path.write_bytes(path.read_bytes()[:keep])


def _transport():
    return RetryingTransport(InMemoryEmailTransport(), sleep=lambda _: None)


def _recovering_resume(state_dir, attempts=10):
    """Resume from disk, retrying when a fault strikes the resume itself."""
    for _ in range(attempts):
        report = fsck_state_dir(state_dir)
        assert report.restorable, report.describe()
        try:
            return CIService.resume(
                state_dir, transport=_transport(), snapshot_every=3
            )
        except InjectedFault:
            continue
    raise AssertionError("resume kept failing under injected faults")


def run_with_chaos(script, testsets, baseline, models, state_dir, seed):
    """Drive the commit queue to completion under :data:`SEEDED_RULES`.

    The first snapshot is written fault-free (with every generation torn
    nothing is restorable — fsck's own case).  From then on every
    :class:`InjectedFault` escaping a commit is handled like a crashed
    process: the service that saw it is discarded, and a fresh one
    resumes from disk and retries from the repository's durable length.
    Returns ``(service, firings)``.
    """
    service = CIService(
        script,
        testsets[0],
        baseline,
        repository=ModelRepository(nonce="parity-nonce"),
        transport=_transport(),
    )
    service.install_testset_pool(TestsetPool(testsets[1:]))
    service.persist_to(state_dir, **PERSIST)
    with injected_faults(SEEDED_RULES, seed=seed) as injector:
        while len(service.repository) < len(models):
            index = len(service.repository)
            try:
                service.repository.commit(
                    models[index], message=models[index].name
                )
            except InjectedFault:
                service = _recovering_resume(state_dir)
        # One more cold restore: it meets whatever the last snapshots
        # left on disk, torn or not.
        service = _recovering_resume(state_dir)
        firings = injector.fired
    return service, firings


def test_seeded_chaos_parity(tmp_path):
    """The CI chaos leg: probabilistic faults from ``REPRO_FAULT_SEED``.

    Whatever schedule the seed draws, every resume is fsck-restorable
    and the resumed run finishes element-wise identical to the
    uninterrupted one, in all three adaptivity modes (each mode draws
    its own schedule from the seed).
    """
    seed = seed_from_env(default=0)
    fired_sites = set()
    for index, adaptivity in enumerate(ADAPTIVITY_MODES):
        script = make_script(adaptivity)
        testsets, baseline, models = make_world(script)
        reference = run_reference(script, testsets, baseline, models)
        service, firings = run_with_chaos(
            script,
            testsets,
            baseline,
            models,
            tmp_path / f"state-{index}",
            seed * len(ADAPTIVITY_MODES) + index,
        )
        assert_parity(reference, service)
        fired_sites.update(fault.site for fault in firings)
    assert fired_sites, f"seed {seed} drew no fault at all"


@pytest.mark.parametrize("adaptivity", ADAPTIVITY_MODES)
def test_corrupt_snapshot_restores_identically(adaptivity, tmp_path):
    script = make_script(adaptivity)
    testsets, baseline, models = make_world(script)
    reference = run_reference(script, testsets, baseline, models)

    service = make_service(script, testsets, baseline)
    service.persist_to(tmp_path / "state", snapshot_every=3)
    for model in models[:6]:
        service.repository.commit(model, message=model.name)
    assert_parity_prefix(reference, service, 6)

    # -- then the newest snapshot rots on disk ----------------------------
    snapshots = sorted((tmp_path / "state" / "snapshots").glob("*.pkl"))
    assert len(snapshots) > 1  # cadence produced a fallback generation
    truncate(snapshots[-1])

    # -- resume in a "new process": cold caches ---------------------------
    clear_all_caches()
    restored = CIService.resume(tmp_path / "state")
    assert restored._state_store.snapshots.quarantined()  # the damage was moved aside
    assert reliability_events("snapshot-fallback")
    finish_queue(restored, models)
    assert_parity(reference, restored)


def assert_parity_prefix(reference, service, count):
    ref, got = reference.builds[:count], service.builds
    assert len(got) == count
    assert [b.result for b in got] == [b.result for b in ref]
    assert [b.commit.status for b in got] == [b.commit.status for b in ref]
    assert [b.commit.commit_id for b in got] == [b.commit.commit_id for b in ref]

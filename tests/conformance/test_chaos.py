"""Chaos leg: crash injection at every durable-write boundary.

A proxy store delegates to a real ``DirectoryStateStore`` and raises
a :class:`SimulatedCrash` at the Nth ``append_event`` — either *before*
delegating (the event is lost with the process) or *after* (the event is
durable, the acknowledgment is lost).  Sweeping N over every append of a
full run proves that whichever write the crash interrupts, a restore
from the surviving files converges on the uninterrupted reference.
"""

import pytest

from repro.ci.persistence import DirectoryStateStore
from repro.ci.service import CIService

from tests.ci.test_restart_parity import assert_parity, finish_queue


class SimulatedCrash(RuntimeError):
    """Raised by the proxy store in place of a process crash."""


class CrashingStateStore:
    """A state store proxy that dies at the Nth event append.

    ``crash_at=None`` never crashes (used to count a run's appends).
    ``before=True`` crashes before the write reaches the inner store —
    the event is lost; ``before=False`` crashes after — the event is
    durable but the caller never hears back.
    """

    def __init__(self, inner, crash_at=None, *, before=True):
        self._inner = inner
        self._crash_at = crash_at
        self._before = before
        self.appends = 0

    @property
    def snapshots(self):
        return self._inner.snapshots

    @property
    def journal(self):
        return self._inner.journal

    @property
    def location(self):
        return self._inner.location

    @property
    def journal_sequence(self):
        return self._inner.journal_sequence

    def save_snapshot(self, state):
        return self._inner.save_snapshot(state)

    def load_latest(self, *, quarantine=True):
        return self._inner.load_latest(quarantine=quarantine)

    def append_event(self, type, payload):
        self.appends += 1
        if self._before and self.appends == self._crash_at:
            raise SimulatedCrash(f"lost append #{self.appends} ({type})")
        self._inner.append_event(type, payload)
        if not self._before and self.appends == self._crash_at:
            raise SimulatedCrash(f"unacknowledged append #{self.appends} ({type})")

    def records_of(self, type):
        return self._inner.records_of(type)

    def latest_info(self):
        return self._inner.latest_info()

    def quarantined(self):
        return self._inner.quarantined()


def _run_with_proxy(
    service_factory, world_tuple, state_dir, crash_at=None, *, before=True
):
    """Drive a full run through a crash proxy; report whether it crashed."""
    script, testsets, baseline, models = world_tuple
    service = service_factory(script, testsets, baseline)
    inner = DirectoryStateStore.open(state_dir, create=True)
    proxy = CrashingStateStore(inner, crash_at, before=before)
    service.attach_persistence(proxy)
    crashed = False
    try:
        service.snapshot()
        for model in models:
            service.repository.commit(model, message=model.name)
    except SimulatedCrash:
        crashed = True
    return proxy, crashed


@pytest.mark.parametrize("before", [True, False], ids=["lost-write", "unacked-write"])
def test_crash_at_every_append_restores_identically(
    before, tmp_path, world, service_factory, reference_service_factory
):
    world_tuple = world("full")
    script, testsets, baseline, models = world_tuple

    reference = reference_service_factory(script, testsets, baseline)
    for model in models:
        reference.repository.commit(model, message=model.name)

    # Calibration run: how many appends does an uninterrupted run make?
    calibration, crashed = _run_with_proxy(
        service_factory, world_tuple, tmp_path / "calibration"
    )
    assert not crashed
    total_appends = calibration.appends
    assert total_appends >= len(models)  # at least one event per commit

    for n in range(1, total_appends + 1):
        state_dir = tmp_path / f"{'lost' if before else 'unacked'}-{n:03d}"
        proxy, crashed = _run_with_proxy(
            service_factory, world_tuple, state_dir, n, before=before
        )
        assert crashed, f"append #{n} should have crashed"
        # The process is gone; reopen the directory and restore from
        # whatever writes completed.
        survivor = DirectoryStateStore.open(state_dir, create=False)
        restored = CIService.restore(survivor)
        finish_queue(restored, models)
        assert_parity(reference, restored)


def test_crash_during_restore_replay_leaves_directory_restorable(
    tmp_path, world, service_factory, reference_service_factory
):
    """A crash while the *restore* itself journals must also be survivable."""
    world_tuple = world("full")
    script, testsets, baseline, models = world_tuple

    reference = reference_service_factory(script, testsets, baseline)
    for model in models:
        reference.repository.commit(model, message=model.name)

    state_dir = tmp_path / "restore-crash"
    service = service_factory(script, testsets, baseline)
    service.attach_persistence(DirectoryStateStore.open(state_dir, create=True))
    service.snapshot()
    for model in models[:5]:
        service.repository.commit(model, message=model.name)
    del service  # crash one

    # Second incarnation crashes on its very first durable write.
    proxy = CrashingStateStore(
        DirectoryStateStore.open(state_dir, create=False), 1, before=True
    )
    with pytest.raises(SimulatedCrash):
        CIService.restore(proxy)

    # Third incarnation restores cleanly and converges.
    restored = CIService.restore(DirectoryStateStore.open(state_dir, create=False))
    finish_queue(restored, models)
    assert_parity(reference, restored)

"""Storage governance: watermarks, reclamation, degrade-to-read-only.

The governor itself only measures and classifies; these tests pin the
three layers that act on it — the repository's commit gates (veto before
any mutation), the service's storage gate (soft → reclaim and proceed,
hard → typed retryable read-only, recovery on the first pass back
under), and the operations surface that makes all of it visible to
``repro ops``.
"""

import pickle
import sys

import pytest

sys.path.insert(0, "tests/ci")
from test_restart_parity import (  # noqa: E402
    make_script,
    make_service,
    make_world,
)

from repro.ci.repository import ModelRepository  # noqa: E402
from repro.ci.service import CIService  # noqa: E402
from repro.exceptions import InvalidParameterError, StorageExhaustedError  # noqa: E402
from repro.reliability.events import reliability_events  # noqa: E402
from repro.reliability.storage import (  # noqa: E402
    StorageGovernor,
    directory_bytes,
)


class TestGovernorUnits:
    def test_watermark_validation(self):
        with pytest.raises(InvalidParameterError, match="soft_bytes"):
            StorageGovernor(soft_bytes=0)
        with pytest.raises(InvalidParameterError, match="hard_bytes"):
            StorageGovernor(hard_bytes=-1)
        with pytest.raises(InvalidParameterError, match="must not exceed"):
            StorageGovernor(soft_bytes=100, hard_bytes=50)

    def test_level_classification(self, tmp_path):
        (tmp_path / "data.bin").write_bytes(b"x" * 100)
        governor = StorageGovernor(soft_bytes=150, hard_bytes=300)
        status = governor.check(tmp_path)
        assert (status.level, status.read_only, status.used_bytes) == ("ok", False, 100)
        (tmp_path / "more.bin").write_bytes(b"x" * 100)
        status = governor.check(tmp_path)
        assert (status.level, status.read_only) == ("soft", False)
        (tmp_path / "evenmore.bin").write_bytes(b"x" * 200)
        status = governor.check(tmp_path)
        assert (status.level, status.read_only) == ("hard", True)
        assert "storage hard" in status.describe()

    def test_unlimited_watermarks(self, tmp_path):
        (tmp_path / "data.bin").write_bytes(b"x" * 10_000)
        assert StorageGovernor().check(tmp_path).level == "ok"
        # Only a hard limit: never "soft", straight to read-only.
        governor = StorageGovernor(hard_bytes=5_000)
        assert governor.check(tmp_path).level == "hard"
        assert StorageGovernor(hard_bytes=50_000).check(tmp_path).level == "ok"

    def test_directory_bytes(self, tmp_path):
        assert directory_bytes(tmp_path / "absent") == 0
        (tmp_path / "a.bin").write_bytes(b"x" * 10)
        (tmp_path / "nested").mkdir()
        (tmp_path / "nested" / "b.bin").write_bytes(b"x" * 32)
        assert directory_bytes(tmp_path) == 42
        assert directory_bytes(tmp_path / "a.bin") == 10


class TestCommitGateMechanics:
    def test_gate_veto_leaves_repository_unmutated(self):
        repo = ModelRepository()
        calls = []

        def gate(count):
            calls.append(count)
            raise RuntimeError("vetoed")

        repo.add_commit_gate(gate)
        with pytest.raises(RuntimeError, match="vetoed"):
            repo.commit(object(), message="m")
        assert len(repo) == 0
        with pytest.raises(RuntimeError, match="vetoed"):
            repo.commit_many([object(), object(), object()])
        assert len(repo) == 0
        # The batch gate sees the push size, not 1.
        assert calls == [1, 3]

    def test_gates_are_runtime_wiring_not_state(self):
        repo = ModelRepository()
        repo.add_commit_gate(lambda count: None)
        clone = pickle.loads(pickle.dumps(repo))
        assert clone._commit_gates == []


def _persisted_service(tmp_path, storage, commits=4):
    script = make_script("full")
    testsets, baseline, models = make_world(script, commits=commits)
    service = make_service(script, testsets, baseline)
    service.persist_to(
        tmp_path / "state",
        snapshot_every=2,
        keep_snapshots=1,
        sync=False,
        storage=storage,
    )
    return service, models, tmp_path / "state"


def _events(kind):
    return [event for event in reliability_events() if event.kind == kind]


class TestServiceDegrade:
    def test_soft_watermark_reclaims_and_proceeds(self, tmp_path):
        # soft_bytes=1 keeps every commit at the soft level: the gate
        # must reclaim (snapshot + prune + compact) and proceed — soft
        # pressure never rejects work.
        governor = StorageGovernor(soft_bytes=1, hard_bytes=10**12)
        service, models, _state_dir = _persisted_service(tmp_path, governor)
        for model in models:
            service.repository.commit(model, message=model.name)
        assert len(service.repository) == len(models)
        assert _events("storage-soft-watermark")
        # Reclamation really ran: a single retained generation and a
        # checkpoint-truncated journal.
        assert len(list(service._state_store.snapshots.sequences())) == 1
        assert service._state_store.journal.compacted_through > 0
        assert service.operations().storage_level == "soft"

    def test_hard_watermark_degrades_and_recovers(self, tmp_path):
        governor = StorageGovernor(
            soft_bytes=10**12 - 1, hard_bytes=10**12, retry_after_seconds=3.0
        )
        service, models, state_dir = _persisted_service(tmp_path, governor)
        service.repository.commit(models[0], message=models[0].name)

        # Runaway growth the reclamation pass cannot touch.
        base = directory_bytes(state_dir)
        governor.soft_bytes = 10 * base
        governor.hard_bytes = 20 * base
        filler = state_dir / "runaway.bin"
        filler.write_bytes(b"\0" * (25 * base))

        journal_before = service._state_store.journal.last_sequence
        builds_before = len(service.builds)
        for attempt in range(2):
            with pytest.raises(StorageExhaustedError) as excinfo:
                service.repository.commit(models[1], message=models[1].name)
            assert excinfo.value.retry_after_seconds == 3.0
        # Vetoed before anything mutated, and the degradation event is
        # recorded once (on the transition), not per rejected commit.
        assert len(service.repository) == 1
        assert len(service.builds) == builds_before
        assert service._state_store.journal.last_sequence == journal_before
        assert len(_events("storage-degraded-read-only")) == 1

        report = service.operations()
        assert report.storage_read_only
        assert report.storage_level == "hard"
        assert report.storage_bytes >= governor.hard_bytes
        assert "READ-ONLY" in report.describe()

        # Restore must work on a full disk: read-only degradation gates
        # commits, never recovery.
        resumed = CIService.resume(
            state_dir, keep_snapshots=1, storage=governor, record=False
        )
        assert len(resumed.repository) == 1

        # Reclaiming the runaway bytes clears the mode on the very next
        # gate pass; the refused commit retries successfully.
        filler.unlink()
        service.repository.commit(models[1], message=models[1].name)
        assert len(service.repository) == 2
        assert _events("storage-recovered")
        report = service.operations()
        assert not report.storage_read_only
        assert report.storage_level == "ok"

    def test_operations_without_governor_reports_no_storage(self, tmp_path):
        service, models, _state_dir = _persisted_service(tmp_path, storage=None)
        service.repository.commit(models[0], message=models[0].name)
        report = service.operations()
        assert report.storage_level is None
        assert report.storage_bytes is None
        assert not report.storage_read_only
        assert "READ-ONLY" not in report.describe()

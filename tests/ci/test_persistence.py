"""Unit and integration tests for the snapshot/journal persistence layer."""

import datetime
import json
import pickle

import numpy as np
import pytest

from repro.ci.notifications import InMemoryEmailTransport
from repro.ci.persistence import (
    BUILD_RECORDED,
    COMMIT_RECEIVED,
    RESTORE,
    SNAPSHOT,
    SNAPSHOT_FORMAT_VERSION,
    DirectoryStateStore,
    EventJournal,
    SnapshotStore,
    decode_model,
    encode_model,
    open_state_dir,
)
from repro.ci.repository import ModelRepository
from repro.ci.service import CIService
from repro.core.estimators.api import SampleSizeEstimator
from repro.core.script.config import CIScript
from repro.core.testset import Testset
from repro.exceptions import PersistenceError
from repro.ml.models.base import FixedPredictionModel
from repro.ml.models.simulated import (
    ModelPairSpec,
    evolve_predictions,
    simulate_model_pair,
)

CONDITION = "d < 0.25 +/- 0.1 /\\ n - o > 0.05 +/- 0.1"


def make_script(adaptivity="full", steps=4, mode="fp-free"):
    return CIScript.from_dict(
        {
            "script": "./test_model.py",
            "condition": CONDITION,
            "reliability": 0.999,
            "mode": mode,
            "adaptivity": adaptivity,
            "steps": steps,
        }
    )


def make_world(script, commits=6, promote_at=(2,), seed=0):
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
    return Testset(labels=labels, name="gen-0"), pair.old_model, models


def make_service(script, testset, baseline, transport=None):
    return CIService(
        script,
        testset,
        baseline,
        transport=transport,
        repository=ModelRepository(nonce="fixed-nonce"),
    )


@pytest.fixture(scope="module")
def world():
    script = make_script()
    testset, baseline, models = make_world(script)
    return script, testset, baseline, models


# ---------------------------------------------------------------------------
# EventJournal
# ---------------------------------------------------------------------------

class TestEventJournal:
    def test_append_assigns_monotonic_sequences(self, tmp_path):
        journal = EventJournal(tmp_path / "journal.jsonl")
        a = journal.append(SNAPSHOT, {"snapshot_sequence": 1})
        b = journal.append(SNAPSHOT, {"snapshot_sequence": 2})
        assert (a.sequence, b.sequence) == (1, 2)
        assert journal.last_sequence == 2

    def test_records_round_trip(self, tmp_path):
        journal = EventJournal(tmp_path / "journal.jsonl")
        journal.append(COMMIT_RECEIVED, {"sequence": 0, "author": "dev"})
        records = list(journal.records())
        assert len(records) == 1
        assert records[0].type == COMMIT_RECEIVED
        assert records[0].payload == {"sequence": 0, "author": "dev"}

    def test_reopen_resumes_sequence(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        EventJournal(path).append(SNAPSHOT, {})
        journal = EventJournal(path)
        assert journal.last_sequence == 1
        assert journal.append(SNAPSHOT, {}).sequence == 2

    def test_unknown_event_type_rejected(self, tmp_path):
        journal = EventJournal(tmp_path / "journal.jsonl")
        with pytest.raises(PersistenceError, match="unknown journal event type"):
            journal.append("made-up", {})

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = EventJournal(path)
        journal.append(SNAPSHOT, {"snapshot_sequence": 1})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"sequence": 2, "type": "snapsh')  # crash mid-append
        reopened = EventJournal(path)
        assert [r.sequence for r in reopened.records()] == [1]
        # the next append continues after the last *intact* record
        assert reopened.append(SNAPSHOT, {}).sequence == 2

    def test_torn_middle_line_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = EventJournal(path)
        journal.append(SNAPSHOT, {})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("garbage-not-json\n")
            handle.write(
                json.dumps(
                    {
                        "sequence": 2,
                        "type": SNAPSHOT,
                        "recorded_at": "2026-01-01T00:00:00",
                        "payload": {},
                    }
                )
                + "\n"
            )
        with pytest.raises(PersistenceError, match="corrupt"):
            list(EventJournal(path).records())

    def test_append_after_torn_tail_heals_the_file(self, tmp_path):
        # Regression: append() opens in append mode, so torn trailing
        # bytes left in the file would merge with the next record (losing
        # it) and then become non-trailing corruption that bricks the
        # journal.  Opening must truncate the torn tail first.
        path = tmp_path / "journal.jsonl"
        EventJournal(path).append(SNAPSHOT, {})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"sequence": 2, "type": "snapsh')  # crash mid-append
        reopened = EventJournal(path)
        assert reopened.append(SNAPSHOT, {}).sequence == 2
        reopened.append(SNAPSHOT, {})
        assert [r.sequence for r in EventJournal(path).records()] == [1, 2, 3]

    def test_injectable_clock_stamps_iso8601(self, tmp_path):
        stamp = datetime.datetime(2026, 7, 30, 1, 2, 3, tzinfo=datetime.timezone.utc)
        journal = EventJournal(tmp_path / "journal.jsonl", clock=lambda: stamp)
        record = journal.append(SNAPSHOT, {})
        assert record.recorded_at == "2026-07-30T01:02:03+00:00"

    def test_records_of_filters(self, tmp_path):
        journal = EventJournal(tmp_path / "journal.jsonl")
        journal.append(SNAPSHOT, {})
        journal.append(COMMIT_RECEIVED, {"sequence": 0})
        assert [r.type for r in journal.records_of(COMMIT_RECEIVED)] == [
            COMMIT_RECEIVED
        ]


class TestModelEncoding:
    def test_round_trip(self):
        model = FixedPredictionModel(np.array([1, 0, 1]), name="m")
        clone = decode_model(encode_model(model))
        assert clone.name == "m"
        np.testing.assert_array_equal(clone.predictions, model.predictions)

    def test_payload_is_json_safe(self):
        payload = encode_model(FixedPredictionModel(np.array([1])))
        assert json.loads(json.dumps(payload)) == payload


# ---------------------------------------------------------------------------
# SnapshotStore
# ---------------------------------------------------------------------------

class TestSnapshotStore:
    def test_save_load_round_trip(self, tmp_path):
        store = SnapshotStore(tmp_path / "snaps")
        info = store.save({"x": 1}, journal_sequence=7)
        payload, loaded_info = store.load_latest()
        assert payload == {"x": 1}
        assert loaded_info == info
        assert info.journal_sequence == 7
        assert info.format_version == SNAPSHOT_FORMAT_VERSION

    def test_sequences_increment(self, tmp_path):
        store = SnapshotStore(tmp_path / "snaps")
        assert store.save("a").sequence == 1
        assert store.save("b").sequence == 2
        assert store.sequences() == [1, 2]
        assert store.load(1)[0] == "a"
        assert store.load_latest()[0] == "b"

    def test_empty_store(self, tmp_path):
        store = SnapshotStore(tmp_path / "snaps")
        assert store.load_latest() is None
        assert store.latest_info() is None
        assert store.latest_sequence == 0

    def test_missing_sequence_raises(self, tmp_path):
        store = SnapshotStore(tmp_path / "snaps")
        with pytest.raises(PersistenceError, match="not found"):
            store.load(3)

    def test_no_temp_files_left_behind(self, tmp_path):
        store = SnapshotStore(tmp_path / "snaps")
        store.save({"x": 1})
        assert [p.name for p in (tmp_path / "snaps").iterdir()] == [
            "snapshot-000001.pkl"
        ]

    def test_unsupported_format_version_raises(self, tmp_path):
        store = SnapshotStore(tmp_path / "snaps")
        info = store.save({"x": 1})
        envelope = pickle.loads(info.path.read_bytes())
        envelope["format_version"] = 999
        info.path.write_bytes(pickle.dumps(envelope))
        with pytest.raises(PersistenceError, match="format version"):
            store.load_latest()

    def test_prune_keeps_newest(self, tmp_path):
        store = SnapshotStore(tmp_path / "snaps")
        for value in "abc":
            store.save(value)
        removed = store.prune(keep=1)
        assert len(removed) == 2
        assert store.sequences() == [3]
        assert store.load_latest()[0] == "c"

    def test_prune_validates_keep(self, tmp_path):
        with pytest.raises(PersistenceError, match="keep"):
            SnapshotStore(tmp_path / "snaps").prune(keep=0)


class TestOpenStateDir:
    def test_creates_layout(self, tmp_path):
        store, journal = open_state_dir(tmp_path / "state")
        assert store.directory == tmp_path / "state" / "snapshots"
        assert journal.path == tmp_path / "state" / "journal.jsonl"

    def test_missing_dir_with_create_false_raises(self, tmp_path):
        with pytest.raises(PersistenceError, match="does not exist"):
            open_state_dir(tmp_path / "nope", create=False)


# ---------------------------------------------------------------------------
# Service snapshot / journal / restore
# ---------------------------------------------------------------------------

class TestServicePersistence:
    def test_snapshot_requires_store(self, world):
        script, testset, baseline, _ = world
        service = make_service(script, testset, baseline)
        with pytest.raises(PersistenceError, match="no snapshot store"):
            service.snapshot()

    def test_persist_to_takes_initial_snapshot(self, world, tmp_path):
        script, testset, baseline, _ = world
        service = make_service(script, testset, baseline)
        info = service.persist_to(tmp_path / "state")
        assert info.sequence == 1
        restored = CIService.resume(tmp_path / "state")
        assert restored.builds == []
        assert restored.engine.commits_evaluated == 0
        assert restored.plan == service.plan

    def test_webhook_journals_commit_before_build(self, world, tmp_path):
        script, testset, baseline, models = world
        service = make_service(script, testset, baseline)
        service.persist_to(tmp_path / "state")
        service.repository.commit(models[0], message="m0")
        types = [r.type for r in service._state_store.journal.records()]
        assert types.index(COMMIT_RECEIVED) < types.index(BUILD_RECORDED)

    def test_restore_without_snapshot_raises(self, tmp_path):
        store = DirectoryStateStore.open(tmp_path / "state")
        with pytest.raises(PersistenceError, match="no snapshot"):
            CIService.restore(store)

    def test_restore_records_event(self, world, tmp_path):
        script, testset, baseline, models = world
        service = make_service(script, testset, baseline)
        service.persist_to(tmp_path / "state")
        service.repository.commit(models[0], message="m0")
        restored = CIService.resume(tmp_path / "state")
        restores = list(restored._state_store.journal.records_of(RESTORE))
        assert len(restores) == 1
        assert restores[0].payload["replayed_commits"] == 1

    def test_ops_style_restore_does_not_mutate_journal(self, world, tmp_path):
        script, testset, baseline, models = world
        service = make_service(script, testset, baseline)
        service.persist_to(tmp_path / "state")
        service.repository.commit(models[0], message="m0")
        before = service._state_store.journal.last_sequence
        CIService.resume(tmp_path / "state", record=False)
        assert EventJournal(tmp_path / "state" / "journal.jsonl").last_sequence == before

    def test_double_restore_replays_once(self, world, tmp_path):
        script, testset, baseline, models = world
        service = make_service(script, testset, baseline)
        service.persist_to(tmp_path / "state")
        for model in models[:3]:
            service.repository.commit(model, message=model.name)
        first = CIService.resume(tmp_path / "state")
        second = CIService.resume(tmp_path / "state")
        assert first.engine.commits_evaluated == 3
        assert second.engine.commits_evaluated == 3
        assert [b.result for b in first.builds] == [b.result for b in second.builds]
        # replayed evaluations spend exactly the original budget
        assert second.engine.manager.uses == service.engine.manager.uses

    def test_replay_gap_raises(self, world, tmp_path):
        script, testset, baseline, models = world
        service = make_service(script, testset, baseline)
        service.persist_to(tmp_path / "state")
        journal = service._state_store.journal
        # a journaled commit two sequences ahead of the snapshot head
        journal.append(
            COMMIT_RECEIVED,
            {"sequence": 5, "author": "dev", "message": "hole",
             "model_pickle": encode_model(models[0])},
        )
        with pytest.raises(PersistenceError, match="does not line up"):
            CIService.resume(tmp_path / "state")

    def test_resume_after_torn_tail_does_not_brick_the_state_dir(
        self, world, tmp_path
    ):
        # A crash mid-append leaves a torn trailing journal line; the
        # resume that recovers from it appends a RESTORE record.  That
        # append must not merge into the torn bytes — the state dir has
        # to survive arbitrarily many crash/resume cycles.
        script, testset, baseline, models = world
        service = make_service(script, testset, baseline)
        service.persist_to(tmp_path / "state")
        service.repository.commit(models[0], message="m0")
        journal_path = tmp_path / "state" / "journal.jsonl"
        with open(journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"sequence": 99, "type": "com')  # crash mid-append
        restored = CIService.resume(tmp_path / "state")
        assert len(restored.builds) == 1
        records = list(EventJournal(journal_path).records())
        assert records[-1].type == RESTORE
        again = CIService.resume(tmp_path / "state")
        assert len(again.builds) == 1
        again.repository.commit(models[1], message="m1")
        assert list(EventJournal(journal_path).records())  # still readable

    def test_torn_push_is_replayed(self, world, tmp_path):
        # Crash after journaling commit-received but before the build ran:
        # the restored service evaluates the commit as if never interrupted.
        script, testset, baseline, models = world
        reference = make_service(script, testset, baseline)
        reference.repository.commit(models[0], message="m0")

        service = make_service(script, testset, baseline)
        service.persist_to(tmp_path / "state")
        service._state_store.journal.append(
            COMMIT_RECEIVED,
            {
                "sequence": 0,
                "author": "developer",
                "message": "m0",
                "model_pickle": encode_model(models[0]),
            },
        )
        restored = CIService.resume(tmp_path / "state")
        assert len(restored.builds) == 1
        assert restored.builds[0].result == reference.builds[0].result
        assert restored.builds[0].commit.status is reference.builds[0].commit.status

    def test_replay_suppresses_notifications(self, world, tmp_path):
        script, testset, baseline, models = world
        transport = InMemoryEmailTransport()
        service = make_service(script, testset, baseline, transport=transport)
        service.persist_to(tmp_path / "state")
        for model in models[:2]:
            service.repository.commit(model, message=model.name)
        fresh = InMemoryEmailTransport()
        restored = CIService.resume(tmp_path / "state", transport=fresh)
        assert restored.engine.commits_evaluated == 2
        assert fresh.messages == []  # replay recovers state, not side effects
        # ...but the transport is live again: two more commits exhaust the
        # steps=4 budget, and the alarm mail lands in the new transport.
        restored.repository.commit(models[2], message="m2")
        restored.repository.commit(models[3], message="m3")
        assert any("new testset required" in m.subject for m in fresh.messages)

    def test_auto_snapshot_cadence(self, world, tmp_path):
        script, testset, baseline, models = world
        service = make_service(script, testset, baseline)
        service.persist_to(tmp_path / "state", snapshot_every=2)
        for model in models[:4]:
            service.repository.commit(model, message=model.name)
        # initial snapshot + one per two builds
        assert service._state_store.snapshots.sequences() == [1, 2, 3]
        snapshots = list(service._state_store.journal.records_of(SNAPSHOT))
        assert len(snapshots) == 3

    def test_snapshot_every_validated(self, world, tmp_path):
        script, testset, baseline, _ = world
        service = make_service(script, testset, baseline)
        with pytest.raises(PersistenceError, match="snapshot_every"):
            service.persist_to(tmp_path / "state", snapshot_every=0)

    def test_unsupported_service_format_raises(self, world):
        script, testset, baseline, _ = world
        service = make_service(script, testset, baseline)
        state = service.export_state()
        state["format"] = "repro.ci-service/v999"
        with pytest.raises(PersistenceError, match="unsupported service state"):
            CIService.from_state(state)

    def test_service_pickle_round_trip(self, world):
        script, testset, baseline, models = world
        service = make_service(script, testset, baseline)
        for model in models[:2]:
            service.repository.commit(model, message=model.name)
        clone = pickle.loads(pickle.dumps(service))
        assert [b.result for b in clone.builds] == [b.result for b in service.builds]
        # the clone's webhook drives the clone, not the original
        clone.repository.commit(models[2], message="m2")
        assert len(clone.builds) == 3
        assert len(service.builds) == 2
        assert clone.builds[2].result == (
            service.repository.commit(models[2], message="m2")
            and service.builds[2].result
        )


class TestColdProcessRestore:
    """Restore into a cold interpreter: caches cleared, plans re-derived.

    Cached plan objects are never serialized — snapshots carry the
    estimator config instead, and the restored engine plans once through
    it.  Clearing every process-wide cache before restoring therefore
    simulates a genuinely fresh interpreter, and the re-derived plan must
    come back bit-identical (plans are pure functions of condition, spec
    and estimator config).
    """

    def test_engine_pickle_round_trip_survives_cache_clear(self, world):
        from repro.core.engine import CIEngine
        from repro.stats.cache import clear_all_caches

        script, testset, baseline, models = world
        engine = CIEngine(script, testset, baseline)
        reference_results = [engine.submit(model) for model in models[:2]]
        payload = pickle.dumps(engine)

        clear_all_caches()
        clone = pickle.loads(payload)
        assert clone.plan == engine.plan
        assert clone.manager.uses == engine.manager.uses
        # the restored engine continues exactly where the original was
        assert clone.submit(models[2]) == engine.submit(models[2])
        assert clone.results[:2] == reference_results

    def test_snapshot_store_round_trip_rewarms_plan_cache(self, world, tmp_path):
        from repro.core.engine import CIEngine
        from repro.stats.cache import clear_all_caches

        script, testset, baseline, models = world
        engine = CIEngine(script, testset, baseline)
        engine.submit(models[0])
        store = SnapshotStore(tmp_path / "snaps")
        store.save(engine.export_state())

        clear_all_caches()
        assert SampleSizeEstimator.plan_cache_info().currsize == 0
        state, _ = store.load_latest()
        restored = CIEngine.from_state(state)

        # the restore re-derived the plan into the shared cache...
        info = SampleSizeEstimator.plan_cache_info()
        assert info.currsize >= 1
        # ...bit-identically (dataclass equality covers every field)...
        assert restored.plan == engine.plan
        # ...and a fresh estimator's identical request is served warm.
        hits_before = SampleSizeEstimator.plan_cache_info().hits
        replanned = SampleSizeEstimator().plan(
            script.condition,
            delta=script.delta,
            adaptivity=script.adaptivity,
            steps=script.steps,
            known_variance_bound=script.variance_bound,
        )
        assert SampleSizeEstimator.plan_cache_info().hits == hits_before + 1
        assert replanned is restored.plan

    def test_service_snapshot_restore_survives_cache_clear(self, world, tmp_path):
        from repro.stats.cache import clear_all_caches

        script, testset, baseline, models = world
        reference = make_service(script, testset, baseline)
        service = make_service(script, testset, baseline)
        service.persist_to(tmp_path / "state")
        for model in models[:3]:
            reference.repository.commit(model, message=model.name)
            service.repository.commit(model, message=model.name)

        clear_all_caches()
        restored = CIService.resume(tmp_path / "state")
        assert restored.plan == service.plan
        assert [b.result for b in restored.builds] == [
            b.result for b in reference.builds
        ]
        restored.repository.commit(models[3], message="m3")
        reference.repository.commit(models[3], message="m3")
        assert restored.builds[-1].result == reference.builds[-1].result

    @staticmethod
    def _legacy_state(service, **legacy):
        """The service's state as an older release persisted it.

        Older releases also wrote the engine's ``backend`` name and a warm
        manifest of plan requests, each carrying the estimator config.
        """
        state = pickle.loads(pickle.dumps(service.export_state()))
        engine = state["engine"]
        engine["estimator"].update(legacy)
        engine["backend"] = "default"
        engine["warm_manifest"] = {
            "plans": [
                {
                    "condition": service.script.condition_source,
                    "delta": service.script.delta,
                    "adaptivity": service.script.adaptivity.value,
                    "steps": service.script.steps,
                    "known_variance_bound": service.script.variance_bound,
                    "estimator": dict(engine["estimator"]),
                }
            ]
        }
        return state

    def test_old_estimator_config_keys_restore_identically(self, world):
        """Snapshots that carry the retired ``precision``/``kernel``/``workers``."""
        from repro.stats.cache import clear_all_caches

        script, testset, baseline, models = world
        service = make_service(script, testset, baseline)
        for model in models[:2]:
            service.repository.commit(model, message=model.name)
        expected_state = service.export_state()

        restored_services = []
        for workers in (2, "auto"):
            state = self._legacy_state(
                service, precision="float32", kernel="numpy", workers=workers
            )
            clear_all_caches()  # a cold process: the plan is re-derived
            restored = CIService.from_state(state)
            assert restored.plan == service.plan
            config = restored.engine.estimator.export_config()
            assert config == service.engine.estimator.export_config()
            for key in ("precision", "kernel", "workers"):
                assert key not in config
            restored_engine = restored.export_state()["engine"]
            assert restored_engine["estimator"] == expected_state["engine"]["estimator"]
            restored_services.append(restored)

        for model in models[2:4]:
            service.repository.commit(model, message=model.name)
            for restored in restored_services:
                restored.repository.commit(model, message=model.name)
        for restored in restored_services:
            assert [b.result for b in restored.builds] == [
                b.result for b in service.builds
            ]

    def test_jit_kernel_config_is_refused(self, world):
        """Numba-kernel plans were not bit-identical, so they cannot restore."""
        script, testset, baseline, _ = world
        service = make_service(script, testset, baseline)
        state = self._legacy_state(service, kernel="jit")
        with pytest.raises(PersistenceError, match="kernel='jit'"):
            CIService.from_state(state)
        with pytest.raises(PersistenceError, match="kernel='jit'"):
            SampleSizeEstimator.from_config(state["engine"]["estimator"])

    def test_foreign_backend_state_is_refused(self, world, tmp_path):
        """A state naming a backend other than the stock one fails as a
        persistence error, not a lookup crash."""
        script, testset, baseline, models = world
        service = make_service(script, testset, baseline)
        service.persist_to(tmp_path / "state")
        service.repository.commit(models[0], message="m0")
        snapshots = SnapshotStore(tmp_path / "state" / "snapshots")
        saved, info = snapshots.load_latest()
        saved["engine"]["backend"] = "naive"
        snapshots.save(saved, journal_sequence=info.journal_sequence)
        with pytest.raises(PersistenceError, match="'naive'"):
            CIService.resume(tmp_path / "state")


class TestOperationsReport:
    def test_fields_without_persistence(self, world):
        script, testset, baseline, models = world
        service = make_service(script, testset, baseline)
        service.repository.commit(models[0], message="m0")
        report = service.operations()
        assert report.builds_total == 1
        assert report.persistence_attached is False
        assert report.journal_lag is None
        assert report.pool_attached is False
        assert report.generation_budget == script.steps
        assert report.generation_uses == 1
        assert report.generation_remaining == script.steps - 1
        assert "operations report" in report.describe()

    def test_journal_lag_counts_events_since_snapshot(self, world, tmp_path):
        script, testset, baseline, models = world
        service = make_service(script, testset, baseline)
        service.persist_to(tmp_path / "state")
        assert service.operations().journal_lag == 1  # the snapshot marker
        service.repository.commit(models[0], message="m0")
        lag_after = service.operations().journal_lag
        assert lag_after > 1
        service.snapshot()
        assert service.operations().journal_lag == 1  # fresh marker only

    def test_latest_info_is_served_from_metadata_cache(self, world, tmp_path):
        # The operations surface reads snapshot metadata per report; for
        # snapshots this process saved, that must not re-unpickle the
        # whole engine state from disk.
        script, testset, baseline, _ = world
        service = make_service(script, testset, baseline)
        info = service.persist_to(tmp_path / "state")
        store = service._state_store.snapshots
        info.path.write_bytes(b"unreadable")  # a disk read would explode
        assert store.latest_info() == info
        assert service.operations().snapshot_sequence == info.sequence

    def test_report_is_jsonable(self, world):
        from repro.utils.serialization import dumps, loads

        script, testset, baseline, _ = world
        service = make_service(script, testset, baseline)
        payload = loads(dumps(service.operations()))
        assert payload["repository"] == "ml-repo"
        assert "planning_cache" in payload

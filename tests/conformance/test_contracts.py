"""State-format and component-contract checks.

Everything here is about the contracts the engine stack rests on: the
``repro.ci-engine/v1`` state format, a cold-cache ``from_state``, the
estimator-config round trip, evaluator prepack purity and the raw
``DirectoryStateStore`` read/write contract.
"""

import pickle

import pytest

from repro.ci.persistence import BUILD_RECORDED, COMMIT_RECEIVED, DirectoryStateStore
from repro.core.engine import ENGINE_STATE_FORMAT, CIEngine
from repro.core.estimators.api import SampleSizeEstimator
from repro.core.evaluation import ConditionEvaluator
from repro.stats.cache import clear_all_caches
from repro.stats.estimation import PairedSample

from tests.conformance.conftest import cold_estimator, plan_for


def test_export_state_keeps_v1_format(world, engine_factory):
    script, testsets, baseline, models = world("full")
    engine = engine_factory(script, testsets, baseline)
    state = engine.export_state()
    assert state["format"] == ENGINE_STATE_FORMAT == "repro.ci-engine/v1"
    assert "backend" not in state and "warm_manifest" not in state
    # The whole export must survive a pickle round trip (snapshot payload).
    assert pickle.loads(pickle.dumps(state))["estimator"] == state["estimator"]


def test_from_state_resumes_element_wise_with_cold_caches(world, engine_factory):
    script, testsets, baseline, models = world("full")
    engine = engine_factory(script, testsets, baseline)
    twin = engine_factory(script, testsets, baseline)
    for model in models[:4]:
        assert engine.submit(model) == twin.submit(model)

    frozen = pickle.dumps(engine.export_state())
    clear_all_caches()
    restored = CIEngine.from_state(pickle.loads(frozen))
    assert restored.estimator.export_config() == engine.estimator.export_config()
    assert restored.plan == engine.plan
    for model in models[4:]:
        assert restored.submit(model) == twin.submit(model)
    assert restored.results == twin.results
    assert restored.rotations == twin.rotations


def test_planner_config_round_trip_plans_identically(world):
    script, testsets, baseline, models = world("full")
    estimator = cold_estimator()
    clone = SampleSizeEstimator.from_config(estimator.export_config())
    assert plan_for(clone, script) == plan_for(estimator, script)
    assert clone.export_config() == estimator.export_config()


def test_prepack_is_idempotent_and_pure(world):
    script, testsets, baseline, models = world("full")
    evaluator = ConditionEvaluator(plan_for(cold_estimator(), script), script.mode)
    testset = testsets[0]
    old_predictions = testset.predict_with(baseline)

    def sample_for(model):
        return PairedSample(
            old_predictions=old_predictions,
            new_predictions=testset.predict_with(model),
            labels=testset.labels,
        )

    before = [evaluator.evaluate(sample_for(model)) for model in models[:2]]
    evaluator.prepack()
    evaluator.prepack()  # idempotent: second call must be a no-op
    after = [evaluator.evaluate(sample_for(model)) for model in models[:2]]
    assert after == before


def test_state_store_contract(tmp_path):
    store = DirectoryStateStore.open(tmp_path / "state", create=True)
    assert store.load_latest() is None
    assert store.latest_info() is None
    assert list(store.quarantined()) == []

    base = store.journal_sequence
    store.append_event(COMMIT_RECEIVED, {"sequence": 0, "which": "first"})
    store.append_event(BUILD_RECORDED, {"build_number": 1})
    store.append_event(COMMIT_RECEIVED, {"sequence": 1, "which": "second"})
    assert store.journal_sequence == base + 3
    records = list(store.records_of(COMMIT_RECEIVED))
    assert [r.payload["which"] for r in records] == ["first", "second"]
    assert [r.sequence for r in records] == [base + 1, base + 3]
    assert all(r.type == COMMIT_RECEIVED for r in records)

    info = store.save_snapshot({"format": "conformance-probe", "value": 7})
    assert info.sequence >= 1
    state, loaded_info = store.load_latest()
    assert state["value"] == 7
    assert loaded_info.sequence == info.sequence
    assert loaded_info.journal_sequence == info.journal_sequence

    # A second snapshot strictly advances the sequence and wins load_latest.
    second = store.save_snapshot({"format": "conformance-probe", "value": 8})
    assert second.sequence > info.sequence
    assert store.load_latest()[0]["value"] == 8

    # Reopen from disk: everything above must be durable.
    reopened = DirectoryStateStore.open(tmp_path / "state", create=False)
    assert reopened.load_latest()[0]["value"] == 8
    assert reopened.journal_sequence == store.journal_sequence
    assert str(tmp_path / "state") in reopened.location


def test_open_missing_state_dir_without_create_fails(tmp_path):
    with pytest.raises(Exception):
        DirectoryStateStore.open(tmp_path / "does-not-exist", create=False)

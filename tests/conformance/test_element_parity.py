"""Element-wise parity: the cache-less engine under test vs the reference.

The paper's correctness criterion everywhere in this repo is element-wise
equality, and the conformance kit applies it to whole engine lifetimes:
same commits in, identical :class:`CommitResult` stream out — signals,
promotions, budget accounting, alarms and pool rotations — in all three
adaptivity modes, through both the scalar webhook and the batched ingest
path.
"""

import numpy as np
import pytest

from repro.core.evaluation import ConditionEvaluator
from repro.stats.estimation import PairedSampleBatch

from tests.conformance.conftest import ADAPTIVITY_MODES, cold_estimator, plan_for


@pytest.mark.parametrize("adaptivity", ADAPTIVITY_MODES)
def test_submit_stream_is_element_wise_identical(
    adaptivity, world, engine_factory, reference_engine_factory
):
    script, testsets, baseline, models = world(adaptivity)
    engine = engine_factory(script, testsets, baseline)
    reference = reference_engine_factory(script, testsets, baseline)
    for model in models:
        assert engine.submit(model) == reference.submit(model)
    assert engine.results == reference.results
    assert engine.alarm.events == reference.alarm.events
    assert engine.rotations == reference.rotations
    assert engine.manager.generation == reference.manager.generation
    assert engine.manager.uses == reference.manager.uses
    assert engine.manager.remaining == reference.manager.remaining
    assert engine.pool.pending == reference.pool.pending
    assert getattr(engine.active_model, "name", None) == getattr(
        reference.active_model, "name", None
    )


@pytest.mark.parametrize("adaptivity", ADAPTIVITY_MODES)
def test_submit_many_matches_reference_sequential_loop(
    adaptivity, world, engine_factory, reference_engine_factory
):
    # The strongest cross-check in one assertion: the batched drain under
    # test against the reference engine's one-at-a-time loop.
    script, testsets, baseline, models = world(adaptivity)
    engine = engine_factory(script, testsets, baseline)
    reference = reference_engine_factory(script, testsets, baseline)
    batched = engine.submit_many(models)
    sequential = [reference.submit(model) for model in models]
    assert batched == sequential
    assert engine.rotations == reference.rotations
    assert engine.alarm.events == reference.alarm.events
    assert engine.manager.uses == reference.manager.uses


@pytest.mark.parametrize("adaptivity", ADAPTIVITY_MODES)
def test_service_batch_ingest_parity(
    adaptivity, world, service_factory, reference_service_factory
):
    script, testsets, baseline, models = world(adaptivity)
    service = service_factory(script, testsets, baseline)
    reference = reference_service_factory(script, testsets, baseline)
    service.process_batch(models, messages=[model.name for model in models])
    for model in models:
        reference.repository.commit(model, message=model.name)
    ref, got = reference.builds, service.builds
    assert len(got) == len(ref)
    assert [b.result for b in got] == [b.result for b in ref]
    assert [b.commit.status for b in got] == [b.commit.status for b in ref]
    assert [b.commit.commit_id for b in got] == [b.commit.commit_id for b in ref]
    assert [b.generation for b in got] == [b.generation for b in ref]


def test_evaluate_batch_equals_scalar_evaluate_per_element(world):
    script, testsets, baseline, models = world("full")
    evaluator = ConditionEvaluator(plan_for(cold_estimator(), script), script.mode)
    testset = testsets[0]
    batch = PairedSampleBatch(
        old_predictions=testset.predict_with(baseline),
        new_prediction_matrix=np.stack(
            [testset.predict_with(model) for model in models[:5]]
        ),
        labels=testset.labels,
    )
    results = evaluator.evaluate_batch(batch)
    assert len(results) == 5
    for i, result in enumerate(results):
        assert result == evaluator.evaluate(batch.sample(i))

"""Fixture factories of the conformance kit.

The kit certifies the stock engine stack — ``SampleSizeEstimator``,
``ConditionEvaluator`` and ``DirectoryStateStore`` — by comparing its
observable behavior element-wise against *reference* engines/services.
Fixtures come in pairs: ``engine_factory`` / ``service_factory`` build
the engine under test on a cache-less estimator
(``SampleSizeEstimator(use_plan_cache=False)``), so every plan it holds
is a cold derivation; their ``reference_*`` twins plan through the
shared plan cache.  Plans are pure functions of condition, spec and
estimator config, so the two must agree bit for bit.

    pytest tests/conformance
"""

from __future__ import annotations

import pytest

from repro.ci.repository import ModelRepository
from repro.ci.service import CIService
from repro.core.engine import CIEngine
from repro.core.estimators.api import SampleSizeEstimator
from repro.core.testset import TestsetPool

ADAPTIVITY_MODES = ["full", "none -> third-party@example.com", "firstChange"]


def cold_estimator() -> SampleSizeEstimator:
    """The estimator under test: every plan is derived from scratch."""
    return SampleSizeEstimator(use_plan_cache=False)


def plan_for(estimator, script):
    """``estimator``'s plan for ``script``, as the engine requests it."""
    return estimator.plan(
        script.condition,
        delta=script.delta,
        adaptivity=script.adaptivity,
        steps=script.steps,
        known_variance_bound=script.variance_bound,
    )


@pytest.fixture(scope="session")
def world(parity_world_cache):
    """``get(adaptivity) -> (script, testsets, baseline, models)``, cached."""
    return parity_world_cache


def _engine(script, testsets, baseline, **kwargs):
    return CIEngine(
        script,
        testsets[0],
        baseline,
        testset_pool=TestsetPool(list(testsets[1:])),
        **kwargs,
    )


@pytest.fixture
def engine_factory():
    """Build a pool-aware engine on the cache-less estimator."""

    def build(script, testsets, baseline, **kwargs):
        return _engine(script, testsets, baseline, estimator=cold_estimator(), **kwargs)

    return build


@pytest.fixture
def reference_engine_factory():
    """The same engine shape on the default estimator (the parity oracle)."""

    def build(script, testsets, baseline, **kwargs):
        return _engine(script, testsets, baseline, **kwargs)

    return build


def _service(script, testsets, baseline, **kwargs):
    service = CIService(
        script,
        testsets[0],
        baseline,
        repository=ModelRepository(nonce="conformance-nonce"),
        **kwargs,
    )
    service.install_testset_pool(TestsetPool(list(testsets[1:])))
    return service


@pytest.fixture
def service_factory():
    """Build a pool-aware service whose engine plans on the cache-less estimator."""

    def build(script, testsets, baseline):
        return _service(script, testsets, baseline, estimator=cold_estimator())

    return build


@pytest.fixture
def reference_service_factory():
    def build(script, testsets, baseline):
        return _service(script, testsets, baseline)

    return build

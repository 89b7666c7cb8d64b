"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core.script.config import CIScript
from repro.ml.datasets.emotion import SemEvalHistory, make_semeval_history

# Derandomize hypothesis so the suite is bit-for-bit reproducible across
# runs (examples are still diverse, just derived deterministically).
settings.register_profile("repro", derandomize=True)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def parity_world_cache():
    """Session-cached parity worlds: ``(script, testsets, baseline, models)``.

    ``make_world`` simulates predictions for a plan-sized testset per
    (adaptivity, steps, ...) combination — rebuilding it per test is the
    single biggest fixed cost of the parity-style suites.  The returned
    getter derives each world once per session; everything in it is
    read-only in engine use (tests build their own ``TestsetPool`` /
    services around it), so sharing is safe.
    """
    from tests.ci.test_restart_parity import make_script, make_world

    cache: dict[tuple, tuple] = {}

    def get(
        adaptivity: str,
        *,
        steps: int = 4,
        commits: int = 10,
        promote_at: tuple[int, ...] = (2, 6),
        generations: int = 3,
        seed: int = 0,
    ) -> tuple:
        key = (adaptivity, steps, commits, tuple(promote_at), generations, seed)
        if key not in cache:
            script = make_script(adaptivity, steps=steps)
            testsets, baseline, models = make_world(
                script,
                commits=commits,
                promote_at=promote_at,
                generations=generations,
                seed=seed,
            )
            cache[key] = (script, testsets, baseline, models)
        return cache[key]

    return get


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for ad-hoc draws."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def semeval_history() -> SemEvalHistory:
    """The scripted 8-model history (expensive-ish; shared per session)."""
    return make_semeval_history()


@pytest.fixture
def basic_script() -> CIScript:
    """A small, valid CI script used across engine tests."""
    return CIScript.from_dict(
        {
            "script": "./test_model.py",
            "condition": "n - o > 0.02 +/- 0.05",
            "reliability": 0.99,
            "mode": "fp-free",
            "adaptivity": "full",
            "steps": 4,
        }
    )

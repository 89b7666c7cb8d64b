"""Shared fixtures for the fleet suite.

The fleet exercises process-wide reliability state (fault injection, the
event log) just like the chaos suite, so every test gets the same
isolation guarantees as ``tests/reliability/conftest.py``.  World
building reuses the restart-parity helpers — fleet parity is defined
against exactly the single-service runs those helpers produce.
"""

import sys

import pytest

sys.path.insert(0, "tests/ci")
from test_restart_parity import make_script, make_world  # noqa: E402

import repro.reliability.faults as faults  # noqa: E402
from repro.ci.repository import ModelRepository  # noqa: E402
from repro.ci.service import CIService  # noqa: E402
from repro.core.testset import TestsetPool  # noqa: E402
from repro.fleet import CIFleet  # noqa: E402
from repro.reliability.events import clear_events  # noqa: E402


@pytest.fixture(autouse=True)
def reliability_isolation():
    faults.uninstall_injector()
    clear_events()
    env_checked = faults._ENV_CHECKED
    yield
    faults.uninstall_injector()
    faults._ENV_CHECKED = env_checked
    clear_events()


@pytest.fixture
def make_fleet(tmp_path):
    """Factory for fleets rooted in this test's tmp dir.

    ``sync=False`` by default: durability-through-fsync is covered by
    the dedicated crash tests, and everything else just wants speed.
    """

    def build(**kwargs):
        kwargs.setdefault("sync", False)
        return CIFleet(tmp_path / "fleet", **kwargs)

    return build


@pytest.fixture
def small_world():
    """Factory for one tenant's world: (script, testsets, baseline, models)."""

    def build(adaptivity="full", commits=4, seed=0, steps=4):
        script = make_script(adaptivity, steps=steps)
        testsets, baseline, models = make_world(
            script, commits=commits, seed=seed
        )
        return script, testsets, baseline, models

    return build


def register_tenant(fleet, tenant_id, world):
    """Register ``tenant_id`` from a ``small_world`` tuple (fixed nonce)."""
    script, testsets, baseline, _ = world
    return fleet.register(
        tenant_id,
        script,
        testsets[0],
        baseline,
        repository=ModelRepository(nonce=f"nonce-{tenant_id}"),
        pool=TestsetPool(testsets[1:]),
    )


def reference_service(tenant_id, world):
    """The isolated single-service run fleet results must match."""
    script, testsets, baseline, models = world
    service = CIService(
        script,
        testsets[0],
        baseline,
        repository=ModelRepository(nonce=f"nonce-{tenant_id}"),
    )
    service.install_testset_pool(TestsetPool(testsets[1:]))
    for index, model in enumerate(models):
        service.repository.commit(model, message=f"c{index}")
    return service

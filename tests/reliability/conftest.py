"""Isolation fixtures for the chaos suite.

Fault injection and the reliability event log are process-wide state;
every test here starts and ends with no injector installed and an
empty event log.
"""

import pytest

import repro.reliability.faults as faults
from repro.reliability.events import clear_events


@pytest.fixture(autouse=True)
def reliability_isolation():
    faults.uninstall_injector()
    clear_events()
    env_checked = faults._ENV_CHECKED
    yield
    faults.uninstall_injector()
    faults._ENV_CHECKED = env_checked
    clear_events()

"""Named registries for kernel components and composed backends.

Components register under stable names — ``register_planner``,
``register_evaluator``, ``register_state_store`` — and a *backend* is a
named triple of component names (``register_backend``).  The engine and
service resolve everything through :func:`get_backend`, so a new
planning tier or durability layer ships by registering itself (from its
own module, or even from test code) and never by editing
``core/engine.py``.

Factories, not instances, are registered:

* planner factory — ``f(*, estimator=None, config=None)``
  returning a :class:`~repro.core.kernel.interfaces.Planner`.  ``config``
  is a mapping previously produced by ``Planner.export_config()`` (the
  restore path); ``estimator`` is a caller-supplied estimator object the
  planner should wrap (the ``CIEngine(estimator=...)`` compatibility
  path).  At most one of ``estimator`` / ``config`` is passed per call.
* evaluator factory — ``f(plan, mode, *, enforce_sample_size=True)``
  returning an :class:`~repro.core.kernel.interfaces.Evaluator`.
* state-store factory — ``f(path, *, create=True, sync=True)`` returning
  a :class:`~repro.core.kernel.interfaces.StateStore` rooted at ``path``.

Backends resolve component names lazily (at call time), so registration
order between components and backends does not matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.core.kernel.interfaces import Evaluator, Planner, StateStore

__all__ = [
    "KernelBackend",
    "register_planner",
    "register_evaluator",
    "register_state_store",
    "register_backend",
    "get_backend",
    "available_backends",
    "available_planners",
    "available_evaluators",
    "available_state_stores",
]

PlannerFactory = Callable[..., Planner]
EvaluatorFactory = Callable[..., Evaluator]
StateStoreFactory = Callable[..., StateStore]

_PLANNERS: dict[str, PlannerFactory] = {}
_EVALUATORS: dict[str, EvaluatorFactory] = {}
_STATE_STORES: dict[str, StateStoreFactory] = {}
_BACKENDS: dict[str, "KernelBackend"] = {}


def _register(table: dict[str, Any], kind: str, name: str, value: Any) -> None:
    if not name or not isinstance(name, str):
        raise ValueError(f"{kind} name must be a non-empty string, got {name!r}")
    if name in table and table[name] is not value:
        raise ValueError(f"{kind} {name!r} is already registered")
    table[name] = value


def register_planner(name: str, factory: PlannerFactory) -> PlannerFactory:
    """Register a planner factory under ``name`` (idempotent per object)."""

    _register(_PLANNERS, "planner", name, factory)
    return factory


def register_evaluator(name: str, factory: EvaluatorFactory) -> EvaluatorFactory:
    """Register an evaluator factory under ``name``."""

    _register(_EVALUATORS, "evaluator", name, factory)
    return factory


def register_state_store(name: str, factory: StateStoreFactory) -> StateStoreFactory:
    """Register a state-store factory under ``name``."""

    _register(_STATE_STORES, "state store", name, factory)
    return factory


def _lookup(table: Mapping[str, Any], kind: str, name: str) -> Any:
    try:
        return table[name]
    except KeyError:
        known = ", ".join(sorted(table)) or "<none>"
        raise KeyError(f"unknown {kind} {name!r}; registered: {known}") from None


@dataclass(frozen=True)
class KernelBackend:
    """A named (planner, evaluator, state store) triple.

    Holds component *names* and resolves their factories at call time,
    so backends may be composed from components registered later.
    """

    name: str
    planner: str = "default"
    evaluator: str = "default"
    state_store: str = "default"

    def make_planner(self, *, estimator: Any = None) -> Planner:
        """A fresh planner for engine construction."""

        factory = _lookup(_PLANNERS, "planner", self.planner)
        return factory(estimator=estimator)

    def planner_from_config(self, config: Mapping[str, Any]) -> Planner:
        """Rebuild a planner from a persisted ``export_config()`` mapping."""

        factory = _lookup(_PLANNERS, "planner", self.planner)
        return factory(config=dict(config))

    def make_evaluator(
        self, plan: Any, mode: Any, *, enforce_sample_size: bool = True
    ) -> Evaluator:
        """An evaluator bound to one plan and adaptivity mode."""

        factory = _lookup(_EVALUATORS, "evaluator", self.evaluator)
        return factory(plan, mode, enforce_sample_size=enforce_sample_size)

    def open_state_store(
        self, path: Any, *, create: bool = True, sync: bool = True
    ) -> StateStore:
        """A state store rooted at ``path``."""

        factory = _lookup(_STATE_STORES, "state store", self.state_store)
        return factory(path, create=create, sync=sync)


def register_backend(
    name: str,
    *,
    planner: str = "default",
    evaluator: str = "default",
    state_store: str = "default",
) -> KernelBackend:
    """Compose and register a backend from component names."""

    backend = KernelBackend(
        name=name, planner=planner, evaluator=evaluator, state_store=state_store
    )
    if name in _BACKENDS and _BACKENDS[name] != backend:
        raise ValueError(f"backend {name!r} is already registered")
    _BACKENDS[name] = backend
    return backend


def get_backend(name: str | KernelBackend | None = None) -> KernelBackend:
    """Resolve ``name`` to a backend (``None`` = ``"default"``).

    A :class:`KernelBackend` instance passes through unchanged, so call
    sites can accept either a registry name or an ad-hoc composition.
    """

    if isinstance(name, KernelBackend):
        return name
    return _lookup(_BACKENDS, "backend", name or "default")


def available_backends() -> tuple[str, ...]:
    """The registered backend names, sorted."""

    return tuple(sorted(_BACKENDS))


def available_planners() -> tuple[str, ...]:
    return tuple(sorted(_PLANNERS))


def available_evaluators() -> tuple[str, ...]:
    return tuple(sorted(_EVALUATORS))


def available_state_stores() -> tuple[str, ...]:
    return tuple(sorted(_STATE_STORES))

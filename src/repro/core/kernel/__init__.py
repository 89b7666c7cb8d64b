"""The service kernel: planning, evaluation and durability as plug-in seams.

``CIEngine`` and ``CIService`` orchestrate over three protocols —
:class:`Planner`, :class:`Evaluator`, :class:`StateStore` — resolved
through a named backend registry.  The stock implementations register as
backend ``"default"`` on import; alternative backends register their own
components (:func:`register_planner` and friends) and compose them with
:func:`register_backend`, with zero edits to the engine.  The backend
conformance kit (``tests/conformance/``) certifies any registered triple
against the stock behavior, element-wise.
"""

from repro.core.kernel.default import DefaultPlanner, DirectoryStateStore
from repro.core.kernel.interfaces import Evaluator, Planner, StateStore
from repro.core.kernel.registry import (
    KernelBackend,
    available_backends,
    available_evaluators,
    available_planners,
    available_state_stores,
    get_backend,
    register_backend,
    register_evaluator,
    register_planner,
    register_state_store,
)

__all__ = [
    "Planner",
    "Evaluator",
    "StateStore",
    "KernelBackend",
    "DefaultPlanner",
    "DirectoryStateStore",
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

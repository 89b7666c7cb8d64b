"""Every library callable the repository benchmark's tracer wraps exists.

``perfbench/layers.py`` lists ``(owner, attribute)`` bindings that the
traced run replaces through ``vars(owner)[attribute]``.  A refactor that
renames or deletes one of them breaks ``perfbench/run.py --trace 1``
with a ``KeyError``; this catches it in the unit suite.  The module is
loaded read-only: nothing is wrapped.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_layers():
    """``perfbench/layers.py`` as a module (its ``tracer`` import resolved)."""
    had_tracer = "tracer" in sys.modules
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_layers", PERFBENCH / "layers.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        if not had_tracer:
            sys.modules.pop("tracer", None)
    return module


def test_every_wrapped_binding_is_a_callable():
    layers = load_layers()
    assert layers.WRAPPED
    broken = []
    for owner, attr, span, _ in layers.WRAPPED:
        value = vars(owner).get(attr)
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        if not callable(value):
            broken.append(f"{owner.__name__}.{attr} ({span})")
    assert not broken, f"perfbench wraps names that are gone: {broken}"

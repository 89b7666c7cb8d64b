"""Self-test of the tracer: span parenting, self time, install and removal.

Runs a toy call tree under a hand-driven clock, so every duration is
known exactly, then installs and removes the real wrappers the traced
run uses.  Run on its own with ``python3 perfbench/selftest.py`` from the
repository root; ``run.py --trace 1`` runs it before tracing anything.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

from tracer import Tracer


class SelfTestFailed(AssertionError):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailed(message)


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _toy(clock: _Clock):
    """A class and a module whose calls advance ``clock`` by known steps."""

    class Toy:
        def outer(self):
            clock.now += 1.0
            self.inner()
            self.inner()
            clock.now += 1.0
            return "outer"

        def inner(self):
            clock.now += 2.0
            return Toy.helper()

        @staticmethod
        def helper():
            clock.now += 0.5
            return "helper"

        @classmethod
        def build(cls):
            return cls()

    module = types.ModuleType("toy_module")

    def memoized(x):
        return x * 2

    memoized.cache = object()  # stands in for a registered LRU cache
    module.memoized = memoized
    return Toy, module


def check_call_tree() -> None:
    clock = _Clock()
    Toy, module = _toy(clock)
    tracer = Tracer(clock=clock)
    originals = {
        (Toy, "outer"): vars(Toy)["outer"],
        (Toy, "inner"): vars(Toy)["inner"],
        (Toy, "helper"): vars(Toy)["helper"],
        (Toy, "build"): vars(Toy)["build"],
        (module, "memoized"): vars(module)["memoized"],
    }
    for owner, attr in originals:
        tracer.install(owner, attr, f"toy.{attr}")
    for (owner, attr), original in originals.items():
        expect(vars(owner)[attr] is not original, f"{attr} was not wrapped")
    expect(
        module.memoized.cache is originals[(module, "memoized")].cache,
        "the wrapper hid the memoized function's cache attribute",
    )
    expect(isinstance(vars(Toy)["helper"], staticmethod), "staticmethod lost")
    expect(isinstance(vars(Toy)["build"], classmethod), "classmethod lost")

    toy = tracer.call("setup", Toy.build)  # outside any operation
    expect(isinstance(toy, Toy), "classmethod wrapper bound the wrong class")
    expect(tracer.operation("work", toy.outer) == "outer", "result lost")
    expect(tracer.operation("double", module.memoized, 4) == 8, "result lost")
    tracer.remove()
    for (owner, attr), original in originals.items():
        expect(vars(owner)[attr] is original, f"{attr} was not restored")
    expect(not tracer.installed, "wrappers still registered after removal")

    names = [span.name for span in tracer.spans]
    expect(
        names
        == [
            "setup", "toy.build", "op.work", "toy.outer", "toy.inner",
            "toy.helper", "toy.inner", "toy.helper", "op.double", "toy.memoized",
        ],
        f"unexpected span order {names}",
    )
    parents = [span.parent for span in tracer.spans]
    expect(parents == [-1, 0, -1, 2, 3, 4, 3, 6, -1, 8], f"bad parents {parents}")
    ops = [span.op for span in tracer.spans]
    expect(ops == [None, None, 1, 1, 1, 1, 1, 1, 2, 2], f"bad op ids {ops}")
    selfs = tracer.self_times()
    expect(selfs[2:8] == [0.0, 2.0, 2.0, 0.5, 2.0, 0.5], f"bad self times {selfs}")
    expect(tracer.spans[3].duration == 7.0, "outer duration is not 7")
    totals = tracer.totals("work")
    expect(totals["toy.inner"]["calls"] == 2, "inner calls miscounted")
    expect(totals["toy.inner"]["self_s"] == 4.0, "inner self time wrong")
    expect(totals["toy.inner"]["total_s"] == 5.0, "inner total time wrong")
    expect(totals["toy.outer"]["total_s"] == 7.0, "outer total time wrong")
    expect("setup" not in tracer.totals(), "set-up spans counted as work")
    expect("toy.memoized" not in totals, "kind filter leaked another op")


def check_library_wrappers() -> None:
    """Every real wrapper installs, keeps cache attributes, and comes off."""
    import layers
    from repro.stats.cache import clear_all_caches

    originals = [
        (owner, attr, vars(owner)[attr]) for owner, attr, _, _ in layers.WRAPPED
    ]
    tracer = Tracer()
    layers.install(tracer)
    try:
        for owner, attr, original in originals:
            wrapped = vars(owner)[attr]
            expect(wrapped is not original, f"{attr} was not wrapped")
            cache = getattr(original, "cache", None)
            if cache is not None:
                expect(wrapped.cache is cache, f"{attr} lost its cache")
        clear_all_caches()
    finally:
        tracer.remove()
    for owner, attr, original in originals:
        expect(vars(owner)[attr] is original, f"{owner!r}.{attr} not restored")


def self_test() -> None:
    check_call_tree()
    check_library_wrappers()


if __name__ == "__main__":
    sys.path.insert(0, str(Path.cwd() / "src"))
    self_test()
    print("tracer self-test: passed")

"""An in-memory span tracer that wraps library callables from the outside.

The benchmark never edits the library: :meth:`Tracer.install` swaps a
module or class attribute for a timing wrapper, and :meth:`Tracer.remove`
puts the original object back.  Every wrapped call records one span —
name, start, end, parent span and the id of the benchmark operation it
ran under — into a plain list; nothing is written until the caller
exports the spans at the end of a run.

A span's *self time* is its duration minus the time its child spans
cover.  Calls run on one thread, so children nest strictly inside their
parent and the covered time is the sum of their durations.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable

__all__ = ["Span", "Tracer"]


class Span:
    """One timed call (times in seconds from the tracer's clock)."""

    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name: str, start: float, parent: int, op: int | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent  # index into Tracer.spans, -1 for a root
        self.op = op
        self.counts: dict[str, float] | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "counts": self.counts,
        }


class Tracer:
    """Records nested spans of wrapped calls; single-threaded by design.

    ``measure`` hooks passed to :meth:`install` run outside the wrapped
    call's span: ``measure(args, kwargs)`` runs before the call and
    returns ``None`` or a ``finish(result) -> dict`` whose counts are
    attached to the span after it ends.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._op: int | None = None
        self._ops = 0
        self._kinds: dict[int, str] = {}
        self._installed: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------
    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), parent, self._op))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def _finish(self, index: int) -> Span:
        span = self.spans[index]
        span.end = self.clock()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        return span

    def call(self, name: str, func: Callable[..., Any], *args: Any, **kwargs: Any):
        """Run ``func`` under a span named ``name``."""
        index = self._begin(name)
        try:
            return func(*args, **kwargs)
        finally:
            self._finish(index)

    def operation(self, kind: str, func: Callable[..., Any], *args: Any, **kwargs: Any):
        """Run one benchmark operation: a root span with a fresh op id."""
        self._ops += 1
        self._op = self._ops
        self._kinds[self._op] = kind
        try:
            return self.call(f"op.{kind}", func, *args, **kwargs)
        finally:
            self._op = None

    def wrap(
        self,
        func: Callable[..., Any],
        name: str,
        measure: Callable[[tuple, dict], Callable[[Any], dict] | None] | None = None,
    ) -> Callable[..., Any]:
        """A wrapper recording a span per call; keeps ``func``'s attributes.

        :func:`functools.wraps` copies ``func.__dict__``, so a memoized
        function's ``.cache`` stays reachable through the wrapper.
        """

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            finish = measure(args, kwargs) if measure is not None else None
            index = self._begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                span = self._finish(index)
            if finish is not None:
                span.counts = finish(result)
            return result

        return traced

    # -- installation --------------------------------------------------------
    def install(
        self,
        owner: Any,
        attr: str,
        name: str,
        measure: Callable[[tuple, dict], Callable[[Any], dict] | None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` (module or class) with a traced wrapper.

        Static and class methods are unwrapped, traced and re-wrapped, so
        they keep binding the way the original did.
        """
        original = vars(owner)[attr]
        if isinstance(original, (staticmethod, classmethod)):
            replacement = type(original)(self.wrap(original.__func__, name, measure))
        elif callable(original):
            replacement = self.wrap(original, name, measure)
        else:
            raise TypeError(f"{owner!r}.{attr} is not callable")
        setattr(owner, attr, replacement)
        self._installed.append((owner, attr, original))

    def remove(self) -> None:
        """Restore every wrapped attribute to its original object."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    @property
    def installed(self) -> list[tuple[Any, str, Any]]:
        """``(owner, attr, original)`` for every live wrapper."""
        return list(self._installed)

    # -- analysis ------------------------------------------------------------
    def export(self) -> list[dict[str, Any]]:
        """Every span as a plain mapping, with its operation's kind."""
        return [
            {**span.as_dict(), "kind": self._kinds.get(span.op)}
            for span in self.spans
        ]

    def self_times(self) -> list[float]:
        """Self time of every span, aligned with :attr:`spans`."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.duration
        return [span.duration - covered[i] for i, span in enumerate(self.spans)]

    def totals(self, kind: str | None = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, summed self and total time (s), and counts.

        Only spans recorded under an :meth:`operation` are included —
        set-up work is not part of any operation — and, with ``kind``,
        only those under operations of that kind.
        """
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        for span, self_time in zip(self.spans, self.self_times()):
            if span.op is None:
                continue
            if kind is not None and self._kinds[span.op] != kind:
                continue
            entry = totals[span.name]
            entry["calls"] += 1
            entry["self_s"] += self_time
            entry["total_s"] += span.duration
            for key, value in (span.counts or {}).items():
                entry[key] += value
        return totals

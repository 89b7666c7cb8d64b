"""Testset objects and their statistical-budget lifecycle (§2.3).

A :class:`Testset` is the labeled data the *integration team* provides.  A
:class:`TestsetManager` tracks how much statistical power remains: every
evaluation consumes one of the ``H`` budgeted uses; when the budget is
spent (or a ``firstChange`` pass retires the set early), the manager marks
the testset *released* — it may then be handed to the development team as
a validation set, and a fresh testset must be installed before the next
commit can be evaluated.

A :class:`TestsetPool` sits one level above the manager: an ordered queue
of *pending* generations the integration team has labeled ahead of time.
A pool-aware engine pops the next generation whenever the active one
retires, so heavy commit traffic flows across generations without ever
surfacing :class:`~repro.exceptions.TestsetExhaustedError` to callers —
the error remains only for a pool that is truly dry.  The pool also hosts
the *low-watermark* hook: when the runway (pending generations, or their
total remaining-evaluation budget) drops to the configured watermark, the
pool calls back into "label a new set now" workflows, giving the labeling
team lead time proportional to the commit rate instead of a hard stop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.exceptions import EngineStateError, TestsetExhaustedError
from repro.utils.validation import check_positive_int

__all__ = [
    "Testset",
    "TestsetManager",
    "TestsetPool",
    "PoolLowWatermarkEvent",
    "GenerationRotationEvent",
]


@dataclass
class Testset:
    """A labeled evaluation set.

    Attributes
    ----------
    labels:
        Ground-truth labels, shape ``(N,)``.
    features:
        Model inputs aligned with ``labels``.  For simulated experiments
        this is typically ``np.arange(N)`` — simulated models map example
        indices to predictions — but any array a model's ``predict``
        accepts works.  The default column is not pickled: unpickling
        re-derives it, so snapshots do not carry it.
    name:
        Human-readable identifier used in alarms and logs.
    """

    labels: np.ndarray
    features: np.ndarray | None = None
    name: str = "testset"

    #: keep pytest from collecting this as a test class
    __test__ = False

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels)
        if self.labels.ndim != 1:
            raise EngineStateError(
                f"labels must be one-dimensional, got shape {self.labels.shape}"
            )
        if self.features is None:
            self.features = np.arange(len(self.labels))
        else:
            self.features = np.asarray(self.features)
            if len(self.features) != len(self.labels):
                raise EngineStateError(
                    f"features ({len(self.features)}) and labels "
                    f"({len(self.labels)}) must align"
                )

    def __getstate__(self) -> dict[str, Any]:
        # The default features column is re-derived on load rather than
        # written: it is half of a simulated testset's snapshot bytes.
        state = self.__dict__.copy()
        default = np.arange(len(self.labels))
        if self.features.dtype == default.dtype and np.array_equal(
            self.features, default
        ):
            state["features"] = None
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        if self.features is None:
            self.features = np.arange(len(self.labels))

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def size(self) -> int:
        """Number of labeled examples."""
        return len(self.labels)

    def predict_with(self, model: Any) -> np.ndarray:
        """Run ``model.predict`` over this testset's features."""
        predictions = np.asarray(model.predict(self.features))
        if len(predictions) != len(self.labels):
            raise EngineStateError(
                f"model returned {len(predictions)} predictions for "
                f"{len(self.labels)} examples"
            )
        return predictions


@dataclass
class _TestsetRecord:
    """Internal bookkeeping for one testset generation."""

    testset: Testset
    budget: int
    uses: int = 0
    released: bool = False


class TestsetManager:
    """Tracks statistical-budget consumption across testset generations.

    Parameters
    ----------
    testset:
        The initial testset.
    budget:
        Number of evaluations (``steps`` / ``H``) the testset supports.

    Notes
    -----
    The manager is deliberately ignorant of *why* a testset retires —
    budget exhaustion vs. hybrid-mode early retirement — the engine
    decides that and calls :meth:`retire` accordingly.  The manager's
    invariants: a released testset can never be consumed again, and
    exactly one testset is active at a time.
    """

    __test__ = False  # not a test class despite the name

    def __init__(self, testset: Testset, budget: int):
        self._budget = check_positive_int(budget, "budget")
        self._current = _TestsetRecord(testset=testset, budget=self._budget)
        self._released: list[Testset] = []
        self._generation = 1

    # -- inspection ---------------------------------------------------------
    @property
    def current(self) -> Testset:
        """The active testset.

        Raises :class:`TestsetExhaustedError` if the current set has been
        released and no replacement installed.
        """
        if self._current.released:
            raise TestsetExhaustedError(
                f"testset {self._current.testset.name!r} has been released; "
                "install a fresh testset before evaluating further commits"
            )
        return self._current.testset

    @property
    def uses(self) -> int:
        """Evaluations consumed on the current testset."""
        return self._current.uses

    @property
    def remaining(self) -> int:
        """Evaluations left in the current budget (0 when released)."""
        if self._current.released:
            return 0
        return self._current.budget - self._current.uses

    @property
    def budget(self) -> int:
        """The current generation's full evaluation budget ``H``.

        Reported (alongside :attr:`uses` and :attr:`remaining`) on the
        service's operations surface; unlike :attr:`current` this stays
        readable after the generation retires.
        """
        return self._current.budget

    @property
    def generation(self) -> int:
        """1-based counter of testsets installed so far."""
        return self._generation

    @property
    def released_testsets(self) -> list[Testset]:
        """Retired testsets, now safe to hand to developers as dev sets."""
        return list(self._released)

    @property
    def is_exhausted(self) -> bool:
        """Whether a fresh testset is required before the next evaluation."""
        return self._current.released

    # -- lifecycle ------------------------------------------------------------
    def consume(self) -> int:
        """Spend one evaluation; returns the use count after spending.

        Raises
        ------
        TestsetExhaustedError
            When the current testset is already released.
        """
        if self._current.released:
            raise TestsetExhaustedError(
                "no statistical budget left: the current testset is released"
            )
        self._current.uses += 1
        return self._current.uses

    @property
    def budget_spent(self) -> bool:
        """True when the current testset has served its full budget."""
        return self._current.uses >= self._current.budget

    def retire(self) -> Testset:
        """Release the current testset (making it a dev set) and return it."""
        if self._current.released:
            raise EngineStateError("testset already released")
        self._current.released = True
        self._released.append(self._current.testset)
        return self._current.testset

    def install(self, testset: Testset, budget: int | None = None) -> None:
        """Install a fresh testset, starting a new generation.

        The previous testset must have been retired first — silently
        replacing a live testset would discard statistical budget without
        an audit trail.
        """
        if not self._current.released:
            raise EngineStateError(
                "retire() the current testset before installing a new one"
            )
        self._current = _TestsetRecord(
            testset=testset,
            budget=(
                check_positive_int(budget, "budget")
                if budget is not None
                else self._budget
            ),
        )
        self._generation += 1


# ---------------------------------------------------------------------------
# The testset pool: generations labeled ahead of time
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoolLowWatermarkEvent:
    """Fired when the pool's runway drops to (or below) the watermark.

    Attributes
    ----------
    pending_generations:
        Generations still queued in the pool after the pop that triggered
        the event.
    remaining_evaluations:
        Total evaluation budget left across those pending generations.
    popped_testset_name:
        Name of the generation that was just handed to the engine.
    message:
        Rendered human-readable summary (what a "label a new set now"
        ticket would say).
    """

    pending_generations: int
    remaining_evaluations: int
    popped_testset_name: str
    message: str


@dataclass(frozen=True)
class GenerationRotationEvent:
    """A pool-aware engine rotated to the next testset generation.

    Attributes
    ----------
    retired_testset_name:
        Name of the generation that just retired (now a dev set).
    installed_testset_name:
        Name of the generation that replaced it.
    from_generation, to_generation:
        The 1-based generation counters before and after the rotation.
    pending_generations:
        Generations still queued in the pool after the rotation.
    message:
        Rendered human-readable summary (what the rotation notice sent
        through the notification channel says).
    """

    retired_testset_name: str
    installed_testset_name: str
    from_generation: int
    to_generation: int
    pending_generations: int
    message: str


@dataclass
class _PoolEntry:
    """One pending generation: a testset plus its (optional) budget."""

    testset: Testset
    budget: int | None = None


class TestsetPool:
    """An ordered queue of pre-labeled testset generations (§3.2 lifecycle).

    Parameters
    ----------
    testsets:
        Initial pending generations, in the order they will be installed.
    budgets:
        Optional per-generation evaluation budgets aligned with
        ``testsets``; ``None`` entries (and a ``None`` sequence) fall back
        to :attr:`default_budget` at pop time.
    default_budget:
        Budget assumed for entries without an explicit one.  A pool-aware
        engine fills this in from the script's ``H``/adaptivity accounting
        (:meth:`repro.core.estimators.adaptivity.Adaptivity.evaluations_per_testset`)
        when the pool is attached, so it is usually left ``None`` here.
    low_watermark:
        When, after a pop, the number of pending generations is at or
        below this value, the low-watermark callbacks fire.  ``0`` fires
        only when the pool just went dry; the default ``1`` gives the
        labeling team one full generation of lead time.

    Notes
    -----
    The pool is deliberately passive: it never talks to the engine, it
    only hands out generations (:meth:`pop`) and reports runway
    (:attr:`pending`, :meth:`remaining_evaluations`).  Low-watermark
    callbacks are runtime wiring, like repository observers — they are
    **not** carried through pickling (pool *state*: the queued testsets,
    budgets, watermark and counters round-trips; re-register callbacks
    after unpickling).
    """

    __test__ = False  # not a test class despite the name

    def __init__(
        self,
        testsets: Any = (),
        *,
        budgets: Any = None,
        default_budget: int | None = None,
        low_watermark: int = 1,
    ):
        testsets = list(testsets)
        if budgets is not None:
            budgets = [
                check_positive_int(b, "budget") if b is not None else None
                for b in budgets
            ]
            if len(budgets) != len(testsets):
                raise EngineStateError(
                    f"got {len(budgets)} budgets for {len(testsets)} testsets"
                )
        else:
            budgets = [None] * len(testsets)
        if low_watermark < 0:
            raise EngineStateError(
                f"low_watermark must be >= 0, got {low_watermark}"
            )
        if default_budget is not None:
            default_budget = check_positive_int(default_budget, "default_budget")
        self.default_budget = default_budget
        self.low_watermark = low_watermark
        self._entries: deque[_PoolEntry] = deque(
            _PoolEntry(testset=t, budget=b) for t, b in zip(testsets, budgets)
        )
        self._popped = 0
        self._added = 0
        self._callbacks: list[Callable[[PoolLowWatermarkEvent], None]] = []

    # -- inspection ---------------------------------------------------------
    @property
    def pending(self) -> int:
        """Generations still queued (not yet handed to an engine)."""
        return len(self._entries)

    @property
    def pending_testsets(self) -> list[Testset]:
        """The queued testsets, in installation order."""
        return [entry.testset for entry in self._entries]

    @property
    def popped(self) -> int:
        """Generations handed out over the pool's lifetime."""
        return self._popped

    @property
    def added(self) -> int:
        """Generations queued with :meth:`add` over the pool's lifetime."""
        return self._added

    @property
    def is_empty(self) -> bool:
        """Whether the pool is dry (the exhaustion error becomes real)."""
        return not self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def remaining_evaluations(self) -> int:
        """Total evaluation budget across all pending generations.

        Entries without an explicit budget count as :attr:`default_budget`
        (or 0 while no default is known — before an engine attached the
        pool and filled in the ``H`` accounting).
        """
        default = self.default_budget or 0
        return sum(
            entry.budget if entry.budget is not None else default
            for entry in self._entries
        )

    # -- lifecycle ----------------------------------------------------------
    def add(self, testset: Testset, budget: int | None = None) -> None:
        """Queue a freshly labeled generation at the back of the pool."""
        if budget is not None:
            budget = check_positive_int(budget, "budget")
        self._entries.append(_PoolEntry(testset=testset, budget=budget))
        self._added += 1

    def pop(self) -> tuple[Testset, int | None]:
        """Hand out the next generation (and its budget) in FIFO order.

        Fires the low-watermark callbacks when the remaining runway is at
        or below :attr:`low_watermark` after the pop.

        Raises
        ------
        TestsetExhaustedError
            When the pool is dry.
        """
        if not self._entries:
            raise TestsetExhaustedError(
                "the testset pool is dry: no pending generations left; "
                "label and add() a fresh testset"
            )
        entry = self._entries.popleft()
        self._popped += 1
        if len(self._entries) <= self.low_watermark and self._callbacks:
            event = PoolLowWatermarkEvent(
                pending_generations=len(self._entries),
                remaining_evaluations=self.remaining_evaluations(),
                popped_testset_name=entry.testset.name,
                message=(
                    f"[ease.ml/ci] testset pool low: {len(self._entries)} "
                    f"pending generation(s) "
                    f"({self.remaining_evaluations()} evaluations of runway) "
                    f"after installing {entry.testset.name!r}. Label a new "
                    "testset now to keep commits flowing."
                ),
            )
            for callback in self._callbacks:
                callback(event)
        return entry.testset, entry.budget

    def on_low_watermark(
        self, callback: Callable[[PoolLowWatermarkEvent], None]
    ) -> None:
        """Register a "label a new set now" callback.

        Callbacks fire on every :meth:`pop` that leaves the pending count
        at or below :attr:`low_watermark` — each rotation below the
        watermark is a fresh reminder, and a callback that immediately
        labels and :meth:`add`\\ s a generation keeps the pool in steady
        state.  Exceptions propagate (a labeling pipeline would rather
        fail loudly than silently run the pool dry).
        """
        self._callbacks.append(callback)

    # -- pickling -----------------------------------------------------------
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_callbacks"] = []  # runtime wiring, not pool state
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Pools pickled before the add counter existed.
        self.__dict__.setdefault("_added", 0)

"""The ease.ml/ci engine: commit evaluation with rigorous signals (Fig. 1).

:class:`CIEngine` binds together every piece built so far:

* a :class:`~repro.core.script.CIScript` (condition, reliability, mode,
  adaptivity, steps);
* a :class:`~repro.core.estimators.SampleSizeEstimator` producing the
  :class:`~repro.core.estimators.plans.SampleSizePlan`, and a
  :class:`~repro.core.evaluation.ConditionEvaluator` applying the §3.5
  interval semantics per commit;
* a :class:`~repro.core.testset.TestsetManager` tracking statistical
  budget, with the :class:`~repro.core.alarm.NewTestsetAlarm` watching it.

The engine owns the budget accounting, the signal routing, the pool
rotations and the durable-state contract.

Signal routing per adaptivity mode (§2.2, §3.2–3.4):

* ``full`` — the developer sees pass/fail immediately;
* ``none`` — every commit is *accepted* into the repository, the
  developer sees nothing, and the true signal goes to the third-party
  address on the script (via a pluggable notifier callable);
* ``firstChange`` — like ``full``, but the first passing commit retires
  the testset immediately (the hybrid argument that keeps the sample size
  at the non-adaptive level).

In every mode the engine maintains the *active* model — the last commit
that truly passed — as the "old model" ``o`` that subsequent commits are
compared against.

Serving shape: :meth:`CIEngine.submit` is the per-commit webhook path;
:meth:`CIEngine.submit_many` is the batched path that predicts each model
once and evaluates the whole queue with one vectorized
:meth:`~repro.core.evaluation.ConditionEvaluator.evaluate_batch` per
comparison baseline, re-batching after every promotion — element-wise
identical to the sequential loop.

Testset lifecycle: by default the engine serves one generation at a time
and raises :class:`~repro.exceptions.TestsetExhaustedError` once its
budget is spent.  Attaching a :class:`~repro.core.testset.TestsetPool`
(:meth:`CIEngine.install_testset_pool`, or the ``testset_pool`` keyword)
switches the engine to *pool-aware* mode: on exhaustion — and on the
retirement alarms that cause it — ``submit`` / ``submit_many`` rotate to
the pool's next generation automatically (keeping the plan, which depends
only on the script and the estimator, and re-batching the in-flight
remainder), emit a :class:`~repro.core.testset.GenerationRotationEvent`
through the notification channel, and keep draining.  The exhaustion
error then surfaces only when the pool is truly dry.

Durability: the engine's guarantees hinge on state that must never
silently reset — the per-testset budget accounting, the adaptivity-mode
history, the pool of unreleased generations.  :meth:`CIEngine.export_state`
/ :meth:`CIEngine.from_state` (and plain pickling, which delegates to
them) capture exactly that state; the plan and evaluator are *re-derived*
through the estimator on restore, never serialized.  See
:mod:`repro.ci.persistence` for the snapshot/journal machinery built on
this contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.alarm import AlarmEvent, AlarmReason, NewTestsetAlarm
from repro.core.estimators.adaptivity import Adaptivity
from repro.core.estimators.api import SampleSizeEstimator
from repro.core.estimators.plans import SampleSizePlan
from repro.core.evaluation import ConditionEvaluator, EvaluationResult
from repro.core.script.config import CIScript
from repro.core.testset import (
    GenerationRotationEvent,
    Testset,
    TestsetManager,
    TestsetPool,
)
from repro.exceptions import (
    EngineStateError,
    PersistenceError,
    TestsetSizeError,
)
from repro.stats.estimation import PairedSample, PairedSampleBatch

__all__ = ["CommitResult", "CIEngine", "ENGINE_STATE_FORMAT"]

#: Version tag of the engine's exported-state contract; bumped whenever the
#: mapping returned by :meth:`CIEngine.export_state` changes incompatibly.
ENGINE_STATE_FORMAT = "repro.ci-engine/v1"


@dataclass(frozen=True)
class CommitResult:
    """What one commit produced.

    Attributes
    ----------
    commit_index:
        0-based index of the commit within the current engine lifetime.
    evaluation:
        The full interval-semantics evaluation (true signal inside).
    truly_passed:
        The true pass/fail signal (what the integration team learns).
    developer_signal:
        What the developer observes: the signal under ``full`` /
        ``firstChange``; ``None`` under ``none`` (information embargo).
    accepted:
        Whether the commit is accepted into the repository (under
        ``none`` every commit is accepted regardless of the signal).
    promoted:
        Whether this commit became the new active (old) model.
    testset_uses:
        Budget consumed on the current testset after this commit.
    generation:
        1-based testset generation that served this commit's evaluation
        (the audit trail pool-aware build records surface).
    alarm_event:
        The alarm fired by this commit, if any.
    """

    commit_index: int
    evaluation: EvaluationResult
    truly_passed: bool
    developer_signal: bool | None
    accepted: bool
    promoted: bool
    testset_uses: int
    generation: int
    alarm_event: AlarmEvent | None


class CIEngine:
    """Continuous integration engine for ML models.

    Parameters
    ----------
    script:
        The validated configuration.
    testset:
        The initial testset provided by the integration team.  Its size is
        checked against the sample-size plan at construction.
    baseline_model:
        The currently deployed ("old") model the first commit is compared
        against.  Anything with ``predict(features) -> predictions``.
    estimator:
        Optional custom :class:`SampleSizeEstimator` (defaults to
        optimizations on, honouring the script's ``variance_bound``).
    notifier:
        Callable ``(email, subject, body)`` used for third-party signal
        delivery under ``adaptivity: none``; also receives alarm emails.
    enforce_testset_size:
        Refuse to run when the testset is smaller than the plan requires
        (on by default; Figure 5's adaptive query is an example of a
        deliberate override, where the paper accepts a slightly larger
        tolerance instead).
    testset_pool:
        Optional :class:`TestsetPool` of pre-labeled generations.  When
        given, the engine rotates to the pool's next generation instead of
        raising on exhaustion; ``testset`` may then be ``None``, in which
        case the first generation is popped from the pool.
    """

    def __init__(
        self,
        script: CIScript,
        testset: Testset | None,
        baseline_model: Any,
        *,
        estimator: SampleSizeEstimator | None = None,
        notifier: Callable[[str, str, str], None] | None = None,
        enforce_testset_size: bool = True,
        testset_pool: TestsetPool | None = None,
    ):
        self.script = script
        self.estimator = estimator if estimator is not None else SampleSizeEstimator()
        self.plan: SampleSizePlan = self._compute_plan()
        self._pool: TestsetPool | None = None
        self._rotations: list[GenerationRotationEvent] = []
        self._installs = 0
        budget = script.steps
        if testset is None:
            if testset_pool is None or testset_pool.is_empty:
                raise EngineStateError(
                    "construct the engine with an initial testset or a "
                    "non-empty testset_pool"
                )
            # Validate the generation before pop() consumes it (and before
            # a low-watermark "label now" callback fires for nothing).
            candidate = testset_pool.pending_testsets[0]
            self._check_initial_size(candidate, enforce_testset_size)
            self._set_pool_default_budget(testset_pool)
            testset, pool_budget = testset_pool.pop()
            budget = pool_budget or testset_pool.default_budget or budget
        else:
            self._check_initial_size(testset, enforce_testset_size)
        self.manager = TestsetManager(testset, budget=budget)
        self.alarm = NewTestsetAlarm()
        self.notifier = notifier
        self.evaluator = ConditionEvaluator(
            self.plan, script.mode, enforce_sample_size=enforce_testset_size
        )
        self.active_model = baseline_model
        self._active_predictions = self.manager.current.predict_with(baseline_model)
        self._results: list[CommitResult] = []
        if testset_pool is not None:
            self.install_testset_pool(testset_pool)

    # -- inspection -------------------------------------------------------------
    @property
    def results(self) -> list[CommitResult]:
        """All commit results, in order."""
        return list(self._results)

    @property
    def commits_evaluated(self) -> int:
        """Total commits evaluated over the engine lifetime."""
        return len(self._results)

    @property
    def pool(self) -> TestsetPool | None:
        """The attached testset pool, if the engine is pool-aware."""
        return self._pool

    @property
    def rotations(self) -> list[GenerationRotationEvent]:
        """All pool rotations performed so far, in order."""
        return list(self._rotations)

    @property
    def installs(self) -> int:
        """Testset and pool installs made through this engine object.

        Counts :meth:`install_testset` and :meth:`install_testset_pool`
        calls, not pool rotations: a rotation is part of a commit's
        build, which journal replay re-runs, while an install is not.
        Runtime bookkeeping, not state — a restored engine counts from 0.
        """
        return self._installs

    # -- the four-step workflow ---------------------------------------------------
    def submit(self, model: Any) -> CommitResult:
        """Step 3 of the workflow: a developer commits a model.

        Evaluates the configured condition with the (epsilon, delta)
        guarantee and routes the signal per the adaptivity mode.

        Raises
        ------
        TestsetExhaustedError
            When the current testset's budget is spent and no fresh
            testset has been installed — in pool-aware mode only when the
            pool is dry too (otherwise the engine rotates and evaluates).
        """
        testset = self._ensure_active_testset()  # rotates, or raises when dry
        generation = self.manager.generation
        uses = self.manager.consume()

        new_predictions = testset.predict_with(model)
        sample = PairedSample(
            old_predictions=self._active_predictions,
            new_predictions=new_predictions,
            labels=testset.labels,
        )
        evaluation = self.evaluator.evaluate(sample)
        truly_passed = evaluation.passed

        adaptivity = self.script.adaptivity
        developer_signal = truly_passed if adaptivity.releases_signal_to_developer else None
        accepted = True if adaptivity is Adaptivity.NONE else truly_passed

        promoted = False
        if truly_passed:
            self.active_model = model
            self._active_predictions = new_predictions
            promoted = True

        alarm_event = self._maybe_alarm(truly_passed, uses, testset)
        if adaptivity is Adaptivity.NONE:
            self._notify_third_party(truly_passed)

        result = CommitResult(
            commit_index=len(self._results),
            evaluation=evaluation,
            truly_passed=truly_passed,
            developer_signal=developer_signal,
            accepted=accepted,
            promoted=promoted,
            testset_uses=uses,
            generation=generation,
            alarm_event=alarm_event,
        )
        self._results.append(result)
        return result

    def submit_many(self, models: Sequence[Any]) -> list[CommitResult]:
        """Drain a queue of commits through batched evaluations.

        Element-wise identical to calling :meth:`submit` once per model,
        in order — same signals, promotions, alarms and budget consumption
        (the test suite asserts this under all three adaptivity modes) —
        but each model is predicted once and the condition is evaluated
        for the whole queue with one vectorized
        :meth:`~repro.core.evaluation.ConditionEvaluator.evaluate_batch`
        per comparison baseline.  When a commit truly passes it becomes
        the new active model, so the models after it are re-batched
        against the newly promoted baseline, exactly like the sequential
        active-model chain.

        Unlike the sequential loop, predictions are computed eagerly for
        every commit that can still be evaluated on the current generation
        (at most its remaining statistical budget): if such a model's
        ``predict`` raises, the error surfaces before *any* commit of that
        generation's segment has been evaluated, whereas the loop would
        have processed the commits ahead of the broken model first.

        In pool-aware mode (:meth:`install_testset_pool`) the queue spans
        generations: when the active testset retires mid-queue — budget
        spent, or a ``firstChange`` pass — the engine rotates to the
        pool's next generation and re-batches the in-flight remainder
        against it (active-model predictions and the remaining models are
        re-predicted on the new testset), element-wise identical to a
        manual install/rotate/resubmit loop.

        Raises
        ------
        TestsetExhaustedError
            When the testset's budget runs out (or a ``firstChange`` pass
            retires it) before the queue is drained and no pool generation
            is left to rotate to — mirroring the sequential loop, which
            raises on the submit after the retirement.  Results for the
            commits evaluated before the exhaustion are preserved in
            :attr:`results`.
        """
        models = list(models)
        results: list[CommitResult] = []
        if not models:
            return results
        while True:
            # Rotates to the next pool generation when the active testset
            # has retired; raises only when no testset is available.
            testset = self._ensure_active_testset()
            results.extend(self._drain_generation(models[len(results):], testset))
            if len(results) == len(models):
                return results
            if self._pool is None or self._pool.is_empty:
                # The budget (or a firstChange pass) retired the testset
                # with commits still queued and nothing to rotate to:
                # raise exactly like the sequential loop's next submit.
                _ = self.manager.current
                raise EngineStateError(
                    "generation drained early without the testset retiring"
                )

    def _drain_generation(
        self, models: list[Any], testset: Testset
    ) -> list[CommitResult]:
        """Evaluate queued models on the current generation until it retires.

        Returns the results produced on this generation — possibly fewer
        than ``len(models)`` when the testset retires mid-queue; the
        caller (:meth:`submit_many`) decides whether to rotate or raise.
        """
        # Commits beyond the remaining budget can never be evaluated on
        # this generation, so their models are not worth predicting yet.
        evaluable = min(len(models), self.manager.remaining)
        predictions = [testset.predict_with(model) for model in models[:evaluable]]
        matrix = np.stack(predictions)
        adaptivity = self.script.adaptivity
        releases_signal = adaptivity.releases_signal_to_developer
        accepts_all = adaptivity is Adaptivity.NONE
        retires_on_pass = adaptivity.retires_testset_on_pass
        notifies = accepts_all and self.notifier is not None
        manager = self.manager
        generation = manager.generation
        log = self._results
        results: list[CommitResult] = []
        start = 0
        while start < evaluable and not manager.is_exhausted:
            batch = PairedSampleBatch(
                old_predictions=self._active_predictions,
                new_prediction_matrix=matrix[start:],
                labels=testset.labels,
            )
            evaluations = self.evaluator.evaluate_batch(batch)
            rebatched = False
            for offset, evaluation in enumerate(evaluations):
                index = start + offset
                uses = manager.consume()
                truly_passed = evaluation.passed
                developer_signal = truly_passed if releases_signal else None
                accepted = True if accepts_all else truly_passed
                promoted = False
                if truly_passed:
                    self.active_model = models[index]
                    self._active_predictions = predictions[index]
                    promoted = True
                if (truly_passed and retires_on_pass) or manager.budget_spent:
                    alarm_event = self._maybe_alarm(truly_passed, uses, testset)
                else:
                    alarm_event = None
                if notifies:
                    self._notify_third_party(truly_passed)
                result = CommitResult(
                    commit_index=len(log),
                    evaluation=evaluation,
                    truly_passed=truly_passed,
                    developer_signal=developer_signal,
                    accepted=accepted,
                    promoted=promoted,
                    testset_uses=uses,
                    generation=generation,
                    alarm_event=alarm_event,
                )
                log.append(result)
                results.append(result)
                if promoted and index + 1 < evaluable:
                    # A retirement on this pass (firstChange) ends the
                    # generation's segment; otherwise re-batch the rest of
                    # the queue against the newly promoted baseline.
                    start = index + 1
                    rebatched = True
                    break
            if not rebatched:
                break
        return results

    def install_testset(
        self,
        testset: Testset,
        baseline_model: Any | None = None,
        *,
        budget: int | None = None,
    ) -> None:
        """Install a fresh testset after an alarm (new generation).

        The active model's predictions are recomputed on the new testset;
        passing ``baseline_model`` also resets the active model.
        ``budget`` overrides the script's per-generation evaluation budget
        (pool entries with explicit budgets pass it through here).

        The size check runs *before* the manager installs the replacement,
        so an undersized testset leaves the engine in its released state
        (recoverable with a properly sized install) instead of active on
        a set that cannot honour the plan.
        """
        self._install_testset(testset, baseline_model, budget=budget)
        self._installs += 1

    def _install_testset(
        self,
        testset: Testset,
        baseline_model: Any | None = None,
        *,
        budget: int | None = None,
    ) -> None:
        if testset.size < self.plan.pool_size and self.evaluator.enforce_sample_size:
            raise TestsetSizeError(
                f"replacement testset has {testset.size} examples "
                f"but the plan requires {self.plan.pool_size}"
            )
        self.manager.install(testset, budget=budget)
        if baseline_model is not None:
            self.active_model = baseline_model
        self._active_predictions = self.manager.current.predict_with(self.active_model)

    def install_testset_pool(self, pool: TestsetPool) -> None:
        """Attach a pool of pre-labeled generations (pool-aware mode).

        The pool's :attr:`~repro.core.testset.TestsetPool.default_budget`
        is filled in from the script's ``H``/adaptivity accounting
        (:meth:`~repro.core.estimators.adaptivity.Adaptivity.evaluations_per_testset`)
        when the pool does not carry one.  If the engine's current
        testset is already exhausted, the first rotation happens
        immediately.
        """
        self._set_pool_default_budget(pool)
        self._pool = pool
        self._installs += 1
        if self.manager.is_exhausted and not pool.is_empty:
            self._rotate_from_pool()

    # -- durable state -----------------------------------------------------------
    def export_state(self) -> dict[str, Any]:
        """Everything that must never silently reset, as one mapping.

        The contract (format ``repro.ci-engine/v1``): script, estimator
        *configuration*, testset manager (active generation, uses,
        remaining budget, released sets), alarm events, active-model
        baseline and its cached predictions, the commit-result history,
        the testset pool and the rotation log.  Deliberately absent:

        * the :class:`SampleSizePlan` and the evaluator — derived
          objects, re-derived through the estimator on restore, never
          serialized;
        * the ``notifier`` — runtime wiring, re-supplied to
          :meth:`from_state`;
        * pool low-watermark callbacks and alarm subscribers — runtime
          wiring dropped by those objects' own pickling contracts.
        """
        return {
            "format": ENGINE_STATE_FORMAT,
            "script": self.script,
            "estimator": self.estimator.export_config(),
            "manager": self.manager,
            "alarm": self.alarm,
            "active_model": self.active_model,
            "active_predictions": self._active_predictions,
            "results": list(self._results),
            "pool": self._pool,
            "rotations": list(self._rotations),
            "enforce_sample_size": self.evaluator.enforce_sample_size,
        }

    @classmethod
    def from_state(
        cls,
        state: dict[str, Any],
        *,
        notifier: Callable[[str, str, str], None] | None = None,
    ) -> "CIEngine":
        """Rebuild an engine from :meth:`export_state` output.

        Re-derives the plan through the persisted estimator config
        (bit-identical by purity), rebuilds the evaluator, and rewires the
        runtime-only ``notifier``.  States written by earlier releases may
        carry ``backend`` and ``warm_manifest`` keys; the manifest is
        ignored, and any backend but ``"default"`` is refused.
        """
        engine = object.__new__(cls)
        engine._apply_state(state, notifier=notifier)
        return engine

    def _apply_state(
        self,
        state: dict[str, Any],
        *,
        notifier: Callable[[str, str, str], None] | None,
    ) -> None:
        fmt = state.get("format")
        if fmt != ENGINE_STATE_FORMAT:
            raise PersistenceError(
                f"unsupported engine state format {fmt!r} "
                f"(this build reads {ENGINE_STATE_FORMAT!r})"
            )
        backend = state.get("backend", "default")
        if backend != "default":
            raise PersistenceError(
                f"engine state names backend {backend!r}; this build runs "
                "only the stock estimator and evaluator ('default')"
            )
        self.script = state["script"]
        self.estimator = SampleSizeEstimator.from_config(state["estimator"])
        self.plan = self._compute_plan()
        self.manager = state["manager"]
        self.alarm = state["alarm"]
        self.notifier = notifier
        self.evaluator = ConditionEvaluator(
            self.plan,
            self.script.mode,
            enforce_sample_size=state["enforce_sample_size"],
        )
        self.active_model = state["active_model"]
        self._active_predictions = state["active_predictions"]
        self._results = list(state["results"])
        self._pool = state["pool"]
        self._rotations = list(state["rotations"])
        self._installs = 0

    def __getstate__(self) -> dict[str, Any]:
        return self.export_state()

    def __setstate__(self, state: dict[str, Any]) -> None:
        self._apply_state(state, notifier=None)

    # -- internals ------------------------------------------------------------
    def _compute_plan(self) -> SampleSizePlan:
        """The script's plan, derived through the estimator."""
        script = self.script
        return self.estimator.plan(
            script.condition,
            delta=script.delta,
            adaptivity=script.adaptivity,
            steps=script.steps,
            known_variance_bound=script.variance_bound,
        )

    def _check_initial_size(self, testset: Testset, enforce: bool) -> None:
        if enforce and testset.size < self.plan.pool_size:
            raise TestsetSizeError(
                f"testset {testset.name!r} has {testset.size} examples but the "
                f"plan requires {self.plan.pool_size}; collect more labels or "
                "relax the condition"
            )

    def _set_pool_default_budget(self, pool: TestsetPool) -> None:
        if pool.default_budget is None:
            pool.default_budget = self.script.adaptivity.evaluations_per_testset(
                self.script.steps
            )

    def _ensure_active_testset(self) -> Testset:
        """The active testset, rotating from the pool when retired.

        Raises :class:`TestsetExhaustedError` only when no replacement is
        available — no pool attached, or the pool is dry — and
        :class:`TestsetSizeError` when the pool's next generation is too
        small for the plan (the entry is left in the pool).
        """
        if (
            self.manager.is_exhausted
            and self._pool is not None
            and not self._pool.is_empty
        ):
            self._rotate_from_pool()
        return self.manager.current  # raises when truly dry

    def _rotate_from_pool(self) -> GenerationRotationEvent:
        """Install the pool's next generation over the retired one.

        The plan and evaluator carry over unchanged: each generation
        restarts the ``H``-step reliability accounting with the same
        script and estimator, so the plan is the same.  Installs the
        popped testset with its budget and emits a
        :class:`GenerationRotationEvent` through the notification channel.
        """
        assert self._pool is not None and not self._pool.is_empty
        retired_name = self.manager.released_testsets[-1].name
        # Validate the generation before pop() consumes it: an undersized
        # set must fail without being popped (no phantom low-watermark
        # "label now" callback, no lost audit trail), leaving the engine
        # in its recoverable released state.
        candidate = self._pool.pending_testsets[0]
        if candidate.size < self.plan.pool_size and self.evaluator.enforce_sample_size:
            raise TestsetSizeError(
                f"next pool generation {candidate.name!r} has "
                f"{candidate.size} examples but the plan requires "
                f"{self.plan.pool_size}; replace it before commits can rotate"
            )
        testset, budget = self._pool.pop()
        from_generation = self.manager.generation
        self._install_testset(testset, budget=budget)
        event = GenerationRotationEvent(
            retired_testset_name=retired_name,
            installed_testset_name=testset.name,
            from_generation=from_generation,
            to_generation=self.manager.generation,
            pending_generations=self._pool.pending,
            message=(
                f"[ease.ml/ci] testset rotated: generation {from_generation} "
                f"({retired_name!r}) retired, generation "
                f"{self.manager.generation} ({testset.name!r}) installed; "
                f"{self._pool.pending} generation(s) left in the pool."
            ),
        )
        self._rotations.append(event)
        if self.notifier is not None:
            self.notifier(
                self.script.notification_email or "integration-team",
                "[ease.ml/ci] testset generation rotated",
                event.message,
            )
        return event

    def _maybe_alarm(
        self, truly_passed: bool, uses: int, testset: Testset
    ) -> AlarmEvent | None:
        adaptivity = self.script.adaptivity
        if truly_passed and adaptivity.retires_testset_on_pass:
            self.manager.retire()
            event = self.alarm.fire(
                AlarmReason.FIRST_CHANGE_PASS,
                testset_name=testset.name,
                uses=uses,
                generation=self.manager.generation,
            )
        elif self.manager.budget_spent:
            self.manager.retire()
            event = self.alarm.fire(
                AlarmReason.BUDGET_EXHAUSTED,
                testset_name=testset.name,
                uses=uses,
                generation=self.manager.generation,
            )
        else:
            return None
        if self.notifier is not None:
            self.notifier(
                self.script.notification_email or "integration-team",
                "[ease.ml/ci] new testset required",
                event.message,
            )
        return event

    def _notify_third_party(self, truly_passed: bool) -> None:
        if self.notifier is None:
            return
        signal = "PASS" if truly_passed else "FAIL"
        self.notifier(
            self.script.notification_email or "integration-team",
            f"[ease.ml/ci] commit #{len(self._results) + 1}: {signal}",
            (
                f"condition : {self.script.condition_source}\n"
                f"signal    : {signal}\n"
                "This signal is withheld from the development team "
                "(adaptivity: none)."
            ),
        )

"""The sample-size estimator facade.

This is the paper's "Sample Size Estimator" system utility (§2.3): it takes
a condition (source text or parsed :class:`Formula`), the reliability
parameters, and the interaction mode, and produces a
:class:`~repro.core.estimators.plans.SampleSizePlan`.

Planning proceeds in three stages:

1. **Adaptivity split** — the per-evaluation budget
   ``delta_eff = delta/H`` (none, firstChange) or ``delta/2^H`` (full);
2. **Formula split** — each of the ``k`` clauses receives ``delta_eff/k``
   (§3.1 rule 3);
3. **Clause sizing** — baseline Hoeffding with optimal tolerance
   allocation over the expression's variable terms (§3.1 rules 1–2), or a
   pattern-optimized strategy (§4) when one applies:

   * a ``d < A`` clause is sized label-free (Technical Observation 2);
   * a gain clause ``n - o > C`` co-occurring with a difference clause
     (Pattern 1) or given an explicit ``known_variance_bound`` (Pattern 2,
     e.g. Figure 5's "no more than 10% difference between submissions") is
     sized with two-sided Bennett on the paired difference;
   * optionally, single-variable clauses can be sized by exact binomial
     inversion (§4.3) instead of Hoeffding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.dsl.linear import linearize
from repro.core.dsl.nodes import Clause, Formula
from repro.core.dsl.parser import parse_condition
from repro.core.estimators.adaptivity import Adaptivity
from repro.core.estimators.allocation import TermAllocation, allocate_tolerances
from repro.core.estimators.plans import ClausePlan, ClauseStrategy, SampleSizePlan
from repro.core.patterns.matcher import (
    find_difference_clause,
    find_gain_clause,
    match_pattern1,
)
from repro.exceptions import (
    InfeasibleConditionError,
    InvalidParameterError,
    PersistenceError,
)
from repro.stats.cache import (
    CacheInfo,
    LRUCache,
    register_cache,
)
from repro.stats.inequalities import BennettInequality
from repro.stats.tight_bounds import tight_sample_size
from repro.utils.validation import check_positive_int, check_probability

__all__ = ["SampleSizeEstimator"]

# Process-wide plan cache shared by every estimator instance: plans are
# frozen dataclasses, so handing the same object to every caller is safe.
# Keys include the normalized formula source *and* the estimator
# configuration, so differently-configured estimators never collide.
_PLAN_CACHE = register_cache("estimators.plan_cache", LRUCache(maxsize=512))


@dataclass(frozen=True)
class _ReliabilitySpec:
    """Normalized (delta, adaptivity, steps) triple."""

    delta: float
    adaptivity: Adaptivity
    steps: int

    @property
    def log_effective_delta(self) -> float:
        return self.adaptivity.log_effective_delta(self.delta, self.steps)


class SampleSizeEstimator:
    """Computes testset sizes for ease.ml/ci conditions.

    Parameters
    ----------
    optimizations:
        ``"auto"`` (default) applies the Section 4 optimizations whenever a
        pattern matches; ``"none"`` forces the Section 3 baseline (used for
        the baseline columns of every benchmark).
    variance_bound_policy:
        How Pattern 1 turns the difference clause ``d < A +/- B`` into a
        variance bound for Bennett: ``"threshold"`` uses ``p = A`` (what
        the paper's §4.1.1 numbers do — 29K/67K at ``p = 0.1``);
        ``"inflated"`` uses the strictly safe ``p = A + 2B`` available
        after the hierarchical filter passes.
    use_exact_binomial:
        Size single-variable clauses by §4.3 exact binomial inversion
        instead of Hoeffding (never larger; 10–40% smaller typically).
        Off by default because the paper's headline tables use Hoeffding.
    use_plan_cache:
        Serve repeated :meth:`plan` calls from a process-wide LRU cache
        keyed on the normalized condition source, the reliability spec and
        the estimator configuration (on by default).  A CI service
        re-planning the same condition on every commit therefore pays the
        planning cost once; see :meth:`plan_cache_info` /
        :meth:`clear_plan_cache`.

    Examples
    --------
    >>> est = SampleSizeEstimator(optimizations="none")
    >>> plan = est.plan("n > 0.8 +/- 0.05", reliability=0.9999,
    ...                 adaptivity="full", steps=32)
    >>> plan.samples
    6279
    """

    _POLICIES = ("threshold", "inflated")

    def __init__(
        self,
        *,
        optimizations: str = "auto",
        variance_bound_policy: str = "threshold",
        use_exact_binomial: bool = False,
        use_plan_cache: bool = True,
    ):
        if optimizations not in ("auto", "none"):
            raise InvalidParameterError(
                f"optimizations must be 'auto' or 'none', got {optimizations!r}"
            )
        if variance_bound_policy not in self._POLICIES:
            raise InvalidParameterError(
                f"variance_bound_policy must be one of {self._POLICIES}, "
                f"got {variance_bound_policy!r}"
            )
        self.optimizations = optimizations
        self.variance_bound_policy = variance_bound_policy
        self.use_exact_binomial = bool(use_exact_binomial)
        self.use_plan_cache = bool(use_plan_cache)

    @classmethod
    def from_config(cls, config: Mapping[str, Any]) -> "SampleSizeEstimator":
        """Rebuild an estimator from a persisted :meth:`export_config` mapping.

        Every path that restores an estimator from stored state goes
        through here.  Configs written by older releases may also carry
        an accumulation-tier ``precision``, ``kernel="numpy"`` and a
        planning process-pool size (of any value); none ever changed a
        plan, so all three are dropped.  Any other ``kernel``
        (the retired Numba one) raises :class:`PersistenceError`: its
        plans were not bit-identical to the NumPy kernel's, so a restore
        could not reproduce them.
        """
        config = dict(config)
        config.pop("precision", None)
        config.pop("workers", None)
        kernel = config.pop("kernel", "numpy")
        if kernel != "numpy":
            raise PersistenceError(
                f"estimator config names kernel={kernel!r}, which this release "
                "no longer provides; its plans cannot be reproduced"
            )
        return cls(**config)

    # -- plan cache --------------------------------------------------------------
    def _config_key(self) -> tuple:
        return (
            self.optimizations,
            self.variance_bound_policy,
            self.use_exact_binomial,
        )

    def export_config(self) -> dict[str, Any]:
        """Constructor kwargs reproducing this estimator.

        This is what engine snapshots persist instead of the estimator
        object's caches: :meth:`from_config` on restore
        yields an estimator whose plans are bit-identical to the
        originals (plans are pure functions of condition, spec and this
        configuration).
        """
        return {
            "optimizations": self.optimizations,
            "variance_bound_policy": self.variance_bound_policy,
            "use_exact_binomial": self.use_exact_binomial,
            "use_plan_cache": self.use_plan_cache,
        }

    @staticmethod
    def plan_cache_info() -> CacheInfo:
        """Hit/miss statistics of the shared plan cache."""
        return _PLAN_CACHE.info()

    @staticmethod
    def clear_plan_cache() -> None:
        """Invalidate the shared plan cache (all estimator instances).

        Also reachable through
        :func:`repro.stats.cache.clear_all_caches`, which additionally
        drops the memoized tight bounds underneath the plans.
        """
        _PLAN_CACHE.clear()

    # -- public API ----------------------------------------------------------
    def plan(
        self,
        condition: str | Formula,
        *,
        reliability: float | None = None,
        delta: float | None = None,
        adaptivity: str | Adaptivity = Adaptivity.NONE,
        steps: int = 1,
        known_variance_bound: float | None = None,
        strict_parse: bool = False,
    ) -> SampleSizePlan:
        """Produce a :class:`SampleSizePlan` for ``condition``.

        Parameters
        ----------
        condition:
            DSL source text or an already-parsed :class:`Formula`.
        reliability:
            The script's ``reliability`` field (``1 - delta``).  Exactly
            one of ``reliability`` and ``delta`` must be given.
        delta:
            The failure budget directly.
        adaptivity:
            ``"none"``, ``"full"``, ``"firstChange"`` or an
            :class:`Adaptivity` member.
        steps:
            The script's ``steps`` field — testset lifetime ``H``.
        known_variance_bound:
            An a-priori upper bound on the prediction-difference rate
            between consecutive models, enabling the Pattern 2 / Figure 5
            optimization even without an explicit ``d`` clause.
        strict_parse:
            Enforce the literal Appendix A.1 grammar.
        """
        formula = self._coerce_formula(condition, strict_parse)
        spec = self._coerce_spec(reliability, delta, adaptivity, steps)
        if known_variance_bound is not None:
            check_probability(known_variance_bound, "known_variance_bound")

        # The cache key normalizes the condition through the parsed
        # formula's canonical source, so textual variants of the same
        # condition ("n>0.8+/-0.05" vs "n > 0.8 +/- 0.05") share an entry.
        cache_key = (
            formula.to_source(),
            spec.delta,
            spec.adaptivity,
            spec.steps,
            known_variance_bound,
            self._config_key(),
        )
        if self.use_plan_cache:
            cached = _PLAN_CACHE.get(cache_key)
            if cached is not None:
                return cached

        notes: list[str] = []
        strategies = self._choose_strategies(formula, known_variance_bound, notes)
        k = len(formula)
        log_delta_clause = spec.log_effective_delta - math.log(k)
        clause_plans = tuple(
            self._plan_clause(clause, strategies[i], log_delta_clause)
            for i, clause in enumerate(formula)
        )
        plan = SampleSizePlan(
            formula=formula,
            delta=spec.delta,
            adaptivity=spec.adaptivity,
            steps=spec.steps,
            clause_plans=clause_plans,
            notes=tuple(notes),
        )
        if self.use_plan_cache:
            _PLAN_CACHE.put(cache_key, plan)
        return plan

    def baseline_plan(self, condition: str | Formula, **kwargs) -> SampleSizePlan:
        """:meth:`plan` with all optimizations disabled (§3 baseline)."""
        baseline = SampleSizeEstimator(
            optimizations="none", use_plan_cache=self.use_plan_cache
        )
        return baseline.plan(condition, **kwargs)

    def trivial_fully_adaptive_total(
        self,
        condition: str | Formula,
        *,
        reliability: float | None = None,
        delta: float | None = None,
        steps: int = 1,
    ) -> int:
        """Total labels under the trivial strategy of §3.3: a fresh testset
        per commit, ``H * n(F, epsilon, delta / H)``.

        Provided for the ablation that motivates the ``2^H`` bound: for
        moderate ``H`` the single reusable testset sized at ``delta/2^H``
        is far cheaper than ``H`` disposable testsets at ``delta/H``.
        """
        per_step = self.plan(
            condition,
            reliability=reliability,
            delta=delta,
            adaptivity=Adaptivity.NONE,
            steps=steps,
        )
        return per_step.samples * check_positive_int(steps, "steps")

    # -- strategy selection ----------------------------------------------------
    def _choose_strategies(
        self,
        formula: Formula,
        known_variance_bound: float | None,
        notes: list[str],
    ) -> list[tuple[ClauseStrategy, float | None, bool]]:
        """Per-clause (strategy, variance_bound, requires_labels) choices."""
        default: list[tuple[ClauseStrategy, float | None, bool]] = []
        difference = find_difference_clause(formula) if self.optimizations == "auto" else None
        gain = find_gain_clause(formula) if self.optimizations == "auto" else None
        pattern1 = match_pattern1(formula) if self.optimizations == "auto" else None

        gain_bound: float | None = None
        if self.optimizations == "auto":
            if pattern1 is not None:
                gain_bound = (
                    pattern1.difference.threshold
                    if self.variance_bound_policy == "threshold"
                    else pattern1.difference.inflated_variance_bound
                )
                # The per-example difference is a {-1, 0, 1} variable, so its
                # second moment can never exceed 1.
                gain_bound = min(1.0, gain_bound)
                notes.append(
                    "pattern 1 (hierarchical testing): gain clause sized with "
                    f"Bennett at variance bound p={gain_bound:g} from "
                    f"{pattern1.difference.clause.to_source()!r}"
                )
            elif gain is not None and known_variance_bound is not None:
                gain_bound = known_variance_bound
                notes.append(
                    "pattern 2 (implicit variance bound): gain clause sized "
                    f"with Bennett at known variance bound p={gain_bound:g}"
                )

        for clause in formula:
            lin = linearize(clause)
            variables = lin.variables()
            requires_labels = variables != {"d"}
            if (
                gain is not None
                and clause == gain.clause
                and gain_bound is not None
            ):
                default.append((ClauseStrategy.BENNETT_PAIRED, gain_bound, True))
                continue
            if (
                self.use_exact_binomial
                and len(variables) == 1
                and abs(abs(lin.coefficient(next(iter(variables)))) - 1.0) < 1e-12
            ):
                default.append((ClauseStrategy.EXACT_BINOMIAL, None, requires_labels))
                continue
            default.append(
                (ClauseStrategy.HOEFFDING_PER_VARIABLE, None, requires_labels)
            )
        return default

    # -- clause sizing -----------------------------------------------------------
    def _plan_clause(
        self,
        clause: Clause,
        strategy_info: tuple[ClauseStrategy, float | None, bool],
        log_delta_clause: float,
    ) -> ClausePlan:
        strategy, variance_bound, requires_labels = strategy_info
        delta_clause = math.exp(log_delta_clause)
        if strategy is ClauseStrategy.BENNETT_PAIRED:
            return self._plan_bennett_clause(
                clause, variance_bound, delta_clause, requires_labels
            )
        if strategy is ClauseStrategy.EXACT_BINOMIAL:
            samples = float(
                tight_sample_size(clause.tolerance, min(delta_clause, 0.5))
            )
            lin = linearize(clause)
            (variable,) = lin.variables()
            term = TermAllocation(
                variable=variable,
                coefficient=lin.coefficient(variable),
                value_range=1.0,
                delta=delta_clause,
                tolerance=clause.tolerance,
                samples=samples,
            )
            return ClausePlan(
                clause=clause,
                strategy=strategy,
                delta=delta_clause,
                samples=samples,
                terms=(term,),
                requires_labels=requires_labels,
            )
        return self._plan_hoeffding_clause(clause, delta_clause, requires_labels)

    def _plan_hoeffding_clause(
        self, clause: Clause, delta_clause: float, requires_labels: bool
    ) -> ClausePlan:
        """Baseline §3.1: Hoeffding per variable, optimal tolerance split."""
        lin = linearize(clause)
        variables = sorted(lin.variables())
        if not variables:
            raise InfeasibleConditionError(
                f"clause {clause.to_source()!r} references no variable"
            )
        m = len(variables)
        delta_term = delta_clause / m
        terms_spec = [
            (v, lin.coefficient(v), 1.0, delta_term) for v in variables
        ]
        allocations = allocate_tolerances(terms_spec, clause.tolerance)
        samples = allocations[0].samples
        return ClausePlan(
            clause=clause,
            strategy=ClauseStrategy.HOEFFDING_PER_VARIABLE,
            delta=delta_clause,
            samples=samples,
            terms=tuple(allocations),
            requires_labels=requires_labels,
        )

    def _plan_bennett_clause(
        self,
        clause: Clause,
        variance_bound: float | None,
        delta_clause: float,
        requires_labels: bool,
    ) -> ClausePlan:
        """Optimized §4.1/4.2: two-sided Bennett on the paired difference.

        For a gain clause ``a*(n - o) > C``, the per-example variable is
        ``a * (n_i - o_i)`` with ``|X| <= a`` and ``E[X^2] <= a^2 p``.
        """
        if variance_bound is None:  # pragma: no cover - guarded by caller
            raise InvalidParameterError("BENNETT_PAIRED requires a variance bound")
        lin = linearize(clause)
        scale = abs(lin.coefficient("n"))
        bennett = BennettInequality(
            variance_bound=scale * scale * variance_bound,
            magnitude_bound=scale,
            two_sided=True,
        )
        samples = bennett.sample_size(clause.tolerance, delta_clause)
        return ClausePlan(
            clause=clause,
            strategy=ClauseStrategy.BENNETT_PAIRED,
            delta=delta_clause,
            samples=samples,
            variance_bound=variance_bound,
            requires_labels=requires_labels,
            labeled_fraction=min(1.0, variance_bound),
        )

    # -- coercions ---------------------------------------------------------------
    @staticmethod
    def _coerce_formula(condition: str | Formula, strict_parse: bool) -> Formula:
        if isinstance(condition, Formula):
            return condition
        if isinstance(condition, str):
            return parse_condition(condition, strict=strict_parse)
        raise InvalidParameterError(
            f"condition must be a string or Formula, got {type(condition).__name__}"
        )

    @staticmethod
    def _coerce_spec(
        reliability: float | None,
        delta: float | None,
        adaptivity: str | Adaptivity,
        steps: int,
    ) -> _ReliabilitySpec:
        if (reliability is None) == (delta is None):
            raise InvalidParameterError(
                "specify exactly one of reliability (= 1 - delta) or delta"
            )
        if delta is None:
            reliability = check_probability(reliability, "reliability")
            delta = 1.0 - reliability
        delta = check_probability(delta, "delta")
        if not isinstance(adaptivity, Adaptivity):
            adaptivity = Adaptivity.parse(str(adaptivity))
        steps = check_positive_int(steps, "steps")
        return _ReliabilitySpec(delta=delta, adaptivity=adaptivity, steps=steps)

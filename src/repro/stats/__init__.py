"""Statistical substrate: concentration bounds, exact binomial machinery,
adaptive-analysis tools and Monte-Carlo validation harnesses.

This package is self-contained (numpy + scipy only) and has no knowledge of
the CI system built on top of it.  The estimator layer in
:mod:`repro.core.estimators` composes these primitives into the paper's
sample-size rules.
"""

from repro.stats.inequalities import (
    BennettInequality,
    BernsteinInequality,
    ConcentrationInequality,
    HoeffdingInequality,
    McDiarmidInequality,
    bennett_h,
)
from repro.stats.binomial import (
    binom_cdf,
    binom_logpmf,
    binom_pmf,
    binom_sf,
    clopper_pearson_interval,
    binomial_tail_inversion_upper,
    binomial_tail_inversion_lower,
)
from repro.stats.batch import exact_coverage_failure_probability_vec
from repro.stats.cache import all_cache_info, clear_all_caches
from repro.stats.tight_bounds import (
    exact_coverage_failure_probability,
    tight_sample_size,
)
from repro.stats.estimation import (
    PairedSample,
    PairedSampleBatch,
    estimate_accuracy,
    estimate_difference,
    estimate_accuracy_gain,
)
from repro.stats.adaptive import Ladder, AdaptiveAttacker, ThresholdAttacker
from repro.stats.simulation import (
    CoverageReport,
    coverage_experiment,
    coverage_experiment_grid,
)

__all__ = [
    "ConcentrationInequality",
    "HoeffdingInequality",
    "BennettInequality",
    "BernsteinInequality",
    "McDiarmidInequality",
    "bennett_h",
    "binom_logpmf",
    "binom_pmf",
    "binom_cdf",
    "binom_sf",
    "clopper_pearson_interval",
    "binomial_tail_inversion_upper",
    "binomial_tail_inversion_lower",
    "exact_coverage_failure_probability_vec",
    "all_cache_info",
    "clear_all_caches",
    "exact_coverage_failure_probability",
    "tight_sample_size",
    "PairedSample",
    "PairedSampleBatch",
    "estimate_accuracy",
    "estimate_difference",
    "estimate_accuracy_gain",
    "Ladder",
    "AdaptiveAttacker",
    "ThresholdAttacker",
    "CoverageReport",
    "coverage_experiment",
    "coverage_experiment_grid",
]

"""Tests for the §4.3 exact-binomial sample-size machinery."""

import math

import pytest

from repro.exceptions import InvalidParameterError
from repro.stats.tight_bounds import (
    exact_coverage_failure_probability,
    tight_epsilon,
    tight_sample_size,
    worst_case_failure_probability,
)


# Every (clause tolerance, clause delta) an exact-binomial clause reaches
# across the plan specs of the ``cold-plan`` perfbench workload (warm-up
# specs included; the deltas carry the estimator's own rounding), with the
# size the search returned when pinned.  Plans are re-derived on restore,
# never serialized, so a size that moves breaks cross-version restore
# parity even when every other test still passes.
PINNED_PLANNING_SIZES = [
    (0.01, 1.9531249999997817e-07, 67750),
    (0.01, 3.9062499999995634e-07, 64400),
    (0.01, 1.9531250000000026e-06, 56650),
    (0.01, 3.906250000000005e-06, 53350),
    (0.01, 6.249999999999304e-06, 51050),
    (0.01, 1.249999999999861e-05, 47750),
    (0.01, 1.953125000000001e-05, 45650),
    (0.01, 3.906250000000003e-05, 42300),
    (0.01, 6.250000000000011e-05, 40100),
    (0.01, 0.00012500000000000022, 36850),
    (0.01, 0.0006250000000000007, 29300),
    (0.01, 0.0012500000000000013, 26100),
    (0.02, 1.9531249999997817e-07, 16950),
    (0.02, 3.9062499999995634e-07, 16100),
    (0.02, 1.9531250000000026e-06, 14172),
    (0.02, 3.906250000000005e-06, 13350),
    (0.02, 6.249999999999304e-06, 12775),
    (0.02, 1.249999999999861e-05, 11950),
    (0.02, 1.953125000000001e-05, 11425),
    (0.02, 3.906250000000003e-05, 10600),
    (0.02, 6.250000000000011e-05, 10025),
    (0.02, 0.00012500000000000022, 9225),
    (0.02, 0.0006250000000000007, 7325),
    (0.02, 0.0012500000000000013, 6525),
    (0.03, 1.9531249999997817e-07, 7534),
    (0.03, 3.9062499999995634e-07, 7167),
    (0.03, 1.9531250000000026e-06, 6300),
    (0.03, 3.906250000000005e-06, 5934),
    (0.03, 6.249999999999304e-06, 5684),
    (0.03, 9.765625000000022e-06, 5450),
    (0.03, 1.249999999999861e-05, 5317),
    (0.03, 1.953125000000001e-05, 5084),
    (0.03, 1.9531250000000044e-05, 5084),
    (0.03, 3.906250000000003e-05, 4717),
    (0.03, 6.250000000000011e-05, 4467),
    (0.03, 0.00012500000000000022, 4100),
    (0.03, 0.0003125000000000003, 3634),
    (0.03, 0.0006250000000000007, 3267),
    (0.03, 0.0012500000000000013, 2916),
    (0.04, 1.9531249999997817e-07, 4238),
    (0.04, 3.9062499999995634e-07, 4038),
    (0.04, 1.9531250000000026e-06, 3550),
    (0.04, 3.906250000000005e-06, 3338),
    (0.04, 6.249999999999304e-06, 3200),
    (0.04, 1.249999999999861e-05, 2988),
    (0.04, 1.953125000000001e-05, 2863),
    (0.04, 3.906250000000003e-05, 2663),
    (0.04, 6.250000000000011e-05, 2513),
    (0.04, 0.00012500000000000022, 2313),
    (0.04, 0.0006250000000000007, 1838),
    (0.04, 0.0012500000000000013, 1638),
    (0.05, 1.9531249999997817e-07, 2710),
    (0.05, 3.9062499999995634e-07, 2580),
    (0.05, 1.9531250000000026e-06, 2270),
    (0.05, 3.906250000000005e-06, 2140),
    (0.05, 6.249999999999304e-06, 2040),
    (0.05, 1.249999999999861e-05, 1910),
    (0.05, 1.953125000000001e-05, 1830),
    (0.05, 3.906250000000003e-05, 1700),
    (0.05, 6.250000000000011e-05, 1610),
    (0.05, 0.00012500000000000022, 1480),
    (0.05, 0.0006250000000000007, 1179),
    (0.05, 0.0012500000000000013, 1050),
]

# Small n, large epsilon: the worst-case p sits visibly off 1/2 (and on
# the last four, the level-0 argmax of the batch scan is the mirror image
# of the scalar scan's), so these pin the inner maximization's edges.
PINNED_OFF_CENTRE_SIZES = [
    (0.35, 0.4, 3),
    (0.4, 0.4, 3),
    (0.4, 0.2, 4),
    (0.4, 0.1, 5),
    (0.3, 0.2, 7),
    (0.4, 0.001, 17),
    (0.35, 0.001, 23),
    (0.25, 0.01, 28),
    (0.2, 0.001, 70),
]


class TestExactCoverage:
    def test_zero_when_tolerance_covers_everything(self):
        assert exact_coverage_failure_probability(10, 0.5, 1.0) == 0.0

    def test_symmetric_at_half(self):
        a = exact_coverage_failure_probability(100, 0.5, 0.07)
        assert 0.0 < a < 1.0

    def test_monotone_in_epsilon(self):
        wide = exact_coverage_failure_probability(200, 0.3, 0.1)
        narrow = exact_coverage_failure_probability(200, 0.3, 0.02)
        assert narrow > wide

    def test_monotone_in_n(self):
        small = exact_coverage_failure_probability(50, 0.4, 0.05)
        large = exact_coverage_failure_probability(5000, 0.4, 0.05)
        assert large < small

    def test_invalid_p_raises(self):
        with pytest.raises(InvalidParameterError):
            exact_coverage_failure_probability(10, 1.5, 0.1)

    def test_matches_direct_enumeration(self):
        # Brute-force check on a tiny case.
        import scipy.stats as st

        n, p, eps = 30, 0.37, 0.1
        direct = sum(
            st.binom.pmf(k, n, p)
            for k in range(n + 1)
            if abs(k / n - p) > eps
        )
        ours = exact_coverage_failure_probability(n, p, eps)
        assert ours == pytest.approx(float(direct), abs=1e-10)


class TestWorstCase:
    def test_worst_case_at_least_midpoint(self):
        mid = exact_coverage_failure_probability(150, 0.5, 0.05)
        worst = worst_case_failure_probability(150, 0.05)
        assert worst >= mid - 1e-12

    def test_bounded_by_one(self):
        assert worst_case_failure_probability(5, 0.01) <= 1.0


class TestTightSampleSize:
    def test_never_exceeds_two_sided_hoeffding(self):
        for eps, delta in [(0.1, 0.01), (0.05, 0.001), (0.05, 0.05)]:
            hoeffding = math.ceil(math.log(2 / delta) / (2 * eps * eps))
            assert tight_sample_size(eps, delta) <= hoeffding

    def test_actual_coverage_holds(self):
        eps, delta = 0.08, 0.01
        n = tight_sample_size(eps, delta)
        assert worst_case_failure_probability(n, eps) <= delta

    def test_minimality(self):
        eps, delta = 0.08, 0.01
        n = tight_sample_size(eps, delta)
        assert worst_case_failure_probability(n - 1, eps) > delta

    def test_huge_epsilon_trivial(self):
        assert tight_sample_size(1.0, 0.01) == 1

    def test_known_value_regression(self):
        # Pinned: the exact size for (0.05, 0.01) is ~37% below Hoeffding's
        # 1060.  Guards against regressions in the search.
        assert tight_sample_size(0.05, 0.01) == 670

    @pytest.mark.parametrize(
        "epsilon,delta,size", PINNED_PLANNING_SIZES + PINNED_OFF_CENTRE_SIZES
    )
    def test_pinned_sizes(self, epsilon, delta, size):
        assert tight_sample_size(epsilon, delta) == size


class TestTightEpsilon:
    def test_inverse_of_sample_size(self):
        eps, delta = 0.07, 0.01
        n = tight_sample_size(eps, delta)
        achieved = tight_epsilon(n, delta)
        assert achieved <= eps + 1e-3

    def test_decreasing_in_n(self):
        assert tight_epsilon(4000, 0.01) < tight_epsilon(400, 0.01)

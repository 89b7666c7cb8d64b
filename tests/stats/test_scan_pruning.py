"""Differential tests of the bound-and-verify worst-case scan.

``tight_bounds._scan_batch`` bounds every grid point of a refinement level
with :func:`repro.stats.batch.coverage_failure_bounds` and runs the exact
kernel only where the level's argmax can still be.  The oracle below is
the scan without that pruning: every point of every level through the
exact grid kernel.  Full scans must return the oracle's
``(worst_f, argmax p)`` bit for bit, and ``stop_above`` scans its
decision.
"""

import math
import time

import numpy as np
import pytest

import repro.stats.tight_bounds as tight_bounds
from repro import SampleSizeEstimator
from repro.exceptions import InvalidParameterError
from repro.stats.batch import (
    coverage_failure_bounds,
    exact_coverage_failure_probability_vec,
)
from repro.stats.cache import clear_all_caches
from tests.stats.test_tight_bounds import PINNED_PLANNING_SIZES

GRIDS = (2, 3, 8, 256, 512)


def full_grid_scan(n, epsilon, grid, refine):
    """The worst-case scan with every level evaluated exactly."""
    lo, hi = 0.0, 1.0
    best_p, best_f = 0.5, 0.0
    for level in range(refine + 1):
        step = (hi - lo) / grid
        p = lo + np.arange(grid + 1) * step
        if level == 0 and grid % 2 == 0:
            p = p[: grid // 2 + 1]
        f = exact_coverage_failure_probability_vec(n, p, epsilon)
        i = int(np.argmax(f))
        if f[i] > best_f:
            best_f, best_p = float(f[i]), float(p[i])
        lo = max(0.0, best_p - 2 * step)
        hi = min(1.0, best_p + 2 * step)
    return best_f, best_p


def assert_scan_matches(n, epsilon, grid, refine, thresholds=()):
    want = full_grid_scan(n, epsilon, grid, refine)
    got = tight_bounds._scan_batch(n, epsilon, grid, refine)
    assert got == want, (n, epsilon, grid, refine)
    # The running maximum only rises from level to level, so a scan that
    # stops early exceeds a threshold exactly when the full scan ends
    # above it.
    for threshold in thresholds:
        early = tight_bounds._scan_batch(n, epsilon, grid, refine, stop_above=threshold)
        assert (early[0] > threshold) == (want[0] > threshold), (
            n, epsilon, grid, refine, threshold,
        )
    return want


def test_every_cold_plan_scan_matches_the_full_grid(monkeypatch):
    # The (epsilon, delta) pairs are the clause tolerances and deltas the
    # cold-plan workload's specs reach; the workload seed (7 in the traced
    # run) jitters only thresholds the bounds do not depend on.
    reached = []
    scan = tight_bounds._scan_batch

    def recording(n, epsilon, grid, refine, stop_above=None):
        reached.append((n, epsilon, grid, refine, stop_above))
        return scan(n, epsilon, grid, refine, stop_above)

    clear_all_caches()
    monkeypatch.setattr(tight_bounds, "_scan_batch", recording)
    for epsilon, delta, size in PINNED_PLANNING_SIZES:
        assert tight_bounds.tight_sample_size(epsilon, delta) == size
        # The Hoeffding anchor is certified without a scan; check its scan too.
        anchor = math.ceil(math.log(2.0 / delta) / (2.0 * epsilon * epsilon))
        reached.append((anchor, epsilon, 256, 2, delta))
    monkeypatch.undo()
    clear_all_caches()
    assert len(reached) > 500
    for n, epsilon, grid, refine, delta in reached:
        assert_scan_matches(n, epsilon, grid, refine, thresholds=[delta])


def _sweep_cases(seed, count):
    rng = np.random.default_rng([seed, 20])
    for _ in range(count):
        if rng.random() < 0.25:
            n = int(rng.integers(1, 60))
        else:
            n = int(round(math.exp(rng.uniform(0.0, math.log(1e5)))))
        epsilon = float(math.exp(rng.uniform(math.log(0.005), math.log(0.9))))
        grid = int(rng.choice(GRIDS))
        refine = int(rng.integers(0, 4))
        yield n, epsilon, grid, refine, rng


@pytest.mark.parametrize("seed", range(8))
def test_seeded_sweep_matches_the_full_grid(seed):
    # 8 x 260 = 2080 cases: n from 1 to 1e5 (a quarter below 60), epsilon
    # up to 0.9, every grid shape, refine 0-3.
    for n, epsilon, grid, refine, rng in _sweep_cases(seed, 260):
        want = full_grid_scan(n, epsilon, grid, refine)
        worst = want[0]
        thresholds = [float(rng.uniform(0.0, 0.5))]
        if worst > 0.0:
            # Right at, just under and just over the maximum.
            thresholds += [worst, worst * (1 - 1e-9), worst * (1 + 1e-9), worst / 2]
        assert_scan_matches(n, epsilon, grid, refine, thresholds)


def test_mirror_points_an_ulp_apart():
    # n=35, eps=0.05, grid=8, refine=2: two mirror points of one level
    # differ by ~7e-16.  Pruning against the best value without the
    # margin picked the wrong one.
    worst, _ = assert_scan_matches(35, 0.05, 8, 2)
    assert_scan_matches(35, 0.05, 8, 2, thresholds=[worst, worst * (1 - 1e-15)])


class TestBounds:
    MARGIN = 1e-9  # far below the scan's 1e-6, far above the kernel's rounding

    def check(self, n, p, epsilon, terms):
        exact = exact_coverage_failure_probability_vec(n, p, epsilon)
        lower, upper = coverage_failure_bounds(n, p, epsilon, terms)
        assert np.all(lower <= 1.0) and np.all(upper <= 1.0)
        assert np.all(lower <= exact * (1 + self.MARGIN) + 1e-300)
        assert np.all(exact <= upper * (1 + self.MARGIN) + 1e-300)
        return exact, lower, upper

    @pytest.mark.parametrize("n", [1, 2, 7, 35, 200, 1090, 6800, 60_000])
    @pytest.mark.parametrize("epsilon", [0.003, 0.02, 0.1, 0.45, 0.9, 2.0])
    def test_bracket_the_kernel(self, n, epsilon):
        p = np.concatenate(
            [
                [0.0, 1e-12, 1e-9, 1e-6, 1e-3],
                np.linspace(0.0, 1.0, 97),
                [1 - 1e-3, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12, 1.0],
            ]
        )
        for terms in (1, 3, math.ceil(1 / epsilon)):
            self.check(n, p, epsilon, terms)

    def test_endpoints_are_zero(self):
        lower, upper = coverage_failure_bounds(100, [0.0, 1.0], 0.1, 10)
        assert lower.tolist() == upper.tolist() == [0.0, 0.0]

    def test_cutoffs_outside_the_support(self):
        # Both tails empty: every bound is exactly zero, like the kernel.
        exact, lower, upper = self.check(50, np.linspace(0.05, 0.95, 19), 0.99, 4)
        assert not exact.any() and not lower.any() and not upper.any()

    def test_clamped_at_one(self):
        # A tolerance far below 1/n: the event is (nearly) certain.
        exact, lower, upper = self.check(5, np.linspace(0.01, 0.99, 99), 1e-4, 10_000)
        assert upper.max() == 1.0
        assert lower.max() > 0.99

    def test_window_variance_gives_whole_grid_values(self):
        grid = np.arange(257) / 256
        whole = exact_coverage_failure_probability_vec(6800, grid, 0.02)
        subset = grid[200:230]
        alone = exact_coverage_failure_probability_vec(
            6800, subset, 0.02, window_variance=0.25
        )
        assert np.array_equal(alone, whole[200:230])

    @pytest.mark.parametrize("bad", [-0.1, 0.3, float("nan")])
    def test_window_variance_is_validated(self, bad):
        with pytest.raises(InvalidParameterError):
            exact_coverage_failure_probability_vec(100, [0.5], 0.1, window_variance=bad)


def test_hoeffding_anchor_certificate_matches_the_scan():
    rng = np.random.default_rng(3)
    certified = 0
    for _ in range(120):
        epsilon = float(rng.uniform(0.03, 0.4))
        delta = float(math.exp(rng.uniform(math.log(1e-7), math.log(0.5))))
        anchor = math.ceil(math.log(2.0 / delta) / (2.0 * epsilon * epsilon))
        scan_exceeds = tight_bounds._scan_batch(anchor, epsilon, 256, 2, delta)[0] > delta
        if tight_bounds._hoeffding_certifies(anchor, epsilon, delta):
            certified += 1
            assert not scan_exceeds
        # Below the anchor Hoeffding's bound is above delta: no certificate.
        assert not tight_bounds._hoeffding_certifies(anchor - 1, epsilon, delta)
    assert certified >= 110


class TestSizeCap:
    def test_tiny_epsilon_fails_fast(self):
        start = time.perf_counter()
        with pytest.raises(InvalidParameterError, match="cap"):
            tight_bounds.tight_sample_size(1e-9, 0.5)
        with pytest.raises(InvalidParameterError, match="cap"):
            tight_bounds.tight_sample_size(1e-200, 0.5, backend="scalar")
        assert time.perf_counter() - start < 1.0

    def test_exact_plan_past_the_cap_is_refused(self):
        estimator = SampleSizeEstimator(use_exact_binomial=True)
        with pytest.raises(InvalidParameterError, match="cap"):
            estimator.plan("n > 0.8 +/- 0.0001", reliability=0.999)

    def test_batch_worst_case_n_is_capped(self):
        with pytest.raises(InvalidParameterError, match="cap"):
            tight_bounds.worst_case_failure_probability(tight_bounds._MAX_N + 1, 0.01)

    @pytest.mark.parametrize("hint", [-5, 0, True, 2.5, "100", 1 << 25])
    def test_bad_hints_are_refused(self, hint):
        # The search always starts at the Hoeffding anchor: a hint moved
        # the size it returned, so the parameter is gone.
        with pytest.raises(TypeError, match="n_hint"):
            tight_bounds.tight_sample_size(0.1, 0.01, n_hint=hint)

"""Batch kernels agree with the scalar binomial machinery to <= 1e-10."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidParameterError
from repro.stats import tight_bounds
from repro.stats.batch import (
    exact_coverage_failure_probability_pairs,
    exact_coverage_failure_probability_vec,
    log_factorial_table,
)
from repro.stats.cache import (
    all_cache_info,
    clear_all_caches,
)
from repro.stats.tight_bounds import (
    exact_coverage_failure_probability,
    tight_sample_size,
    worst_case_failure_probability,
)

TOL = 1e-10


class TestCoverageKernel:
    @given(
        st.integers(min_value=1, max_value=3000),
        st.floats(min_value=0.005, max_value=0.5),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_scalar_on_grid(self, n, epsilon):
        grid = np.linspace(0.0, 1.0, 101)
        vec = exact_coverage_failure_probability_vec(n, grid, epsilon)
        scalar = np.array(
            [exact_coverage_failure_probability(n, float(p), epsilon) for p in grid]
        )
        assert np.max(np.abs(vec - scalar)) <= TOL

    def test_boundary_points_are_zero(self):
        vec = exact_coverage_failure_probability_vec(50, [0.0, 1.0], 0.1)
        assert vec[0] == 0.0 and vec[1] == 0.0


# The grid kernel's own rounding between p and 1 - p: the log-pmf's
# n*log(1-p) term carries ~n ulp of absolute error, which ``exp`` turns
# into up to ~1e-10 relative at n = 6e4 (measured: 6.4e-11).
MIRROR_RTOL = 1e-9


class TestCoverageKernelAtPlanningScale:
    """The grid kernel and worst-case scan at the sizes planning probes."""

    def test_large_n_matches_pairs_reference(self):
        n, epsilon = 60_000, 0.01
        grid = np.linspace(0.0, 1.0, 257)
        vec = exact_coverage_failure_probability_vec(n, grid, epsilon)
        reference = exact_coverage_failure_probability_pairs(
            np.full(len(grid), n), grid, epsilon, impl="reference"
        )
        assert np.max(np.abs(vec - reference)) <= 1e-12

    @pytest.mark.parametrize("n,epsilon", [(37, 0.2), (1090, 0.05), (60_000, 0.01)])
    def test_scan_level0_mirrors_the_left_half(self, n, epsilon, monkeypatch):
        grid = 256
        points = np.arange(grid + 1) * (1.0 / grid)
        full = exact_coverage_failure_probability_vec(n, points, epsilon)
        # The right half of the level-0 lattice mirrors the left half.
        assert np.allclose(full[::-1], full, rtol=MIRROR_RTOL, atol=0.0)

        evaluated = []

        def recording(n, p_grid, epsilon, **kwargs):
            evaluated.append(np.array(p_grid))
            return exact_coverage_failure_probability_vec(n, p_grid, epsilon, **kwargs)

        monkeypatch.setattr(
            tight_bounds, "exact_coverage_failure_probability_vec", recording
        )
        best_f, best_p = tight_bounds._scan_batch(n, epsilon, grid, 0)
        # Level 0 evaluates points of the left half only (the bound pass
        # decides which of them run through the exact kernel).
        assert evaluated
        assert all(np.all((p >= 0.0) & (p <= 0.5)) for p in evaluated)
        assert best_f == pytest.approx(full.max(), rel=MIRROR_RTOL, abs=0.0)
        argmax = points[int(np.argmax(full))]
        assert best_p in (argmax, 1.0 - argmax)

    @pytest.mark.parametrize(
        "n,epsilon", [(37, 0.2), (170, 0.1), (1090, 0.05), (6800, 0.02)]
    )
    def test_worst_case_matches_scalar_scan(self, n, epsilon):
        batch, _ = tight_bounds._scan_batch(n, epsilon, 256, 2)
        scalar, _ = tight_bounds._scan_scalar(n, epsilon, 256, 2)
        assert batch == pytest.approx(scalar, abs=TOL)


class TestPairsKernel:
    def test_matches_scalar_on_random_triples(self):
        rng = np.random.default_rng(0)
        ns = rng.integers(1, 1500, size=60)
        ps = rng.random(60)
        ps[:3] = [0.0, 1.0, 0.5]
        eps = rng.uniform(0.01, 0.5, size=60)
        got = exact_coverage_failure_probability_pairs(ns, ps, eps)
        want = np.array(
            [
                exact_coverage_failure_probability(int(n), float(p), float(e))
                for n, p, e in zip(ns, ps, eps)
            ]
        )
        assert np.max(np.abs(got - want)) <= TOL

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParameterError):
            exact_coverage_failure_probability_pairs([0], [0.5], [0.1])
        with pytest.raises(InvalidParameterError):
            exact_coverage_failure_probability_pairs([10], [1.5], [0.1])
        with pytest.raises(InvalidParameterError):
            exact_coverage_failure_probability_pairs([10], [0.5], [0.0])


class TestBackendsAgree:
    @pytest.mark.parametrize(
        "epsilon,delta",
        [(0.05, 1e-3), (0.1, 1e-2), (0.2, 1e-4), (0.15, 1e-3)],
    )
    def test_tight_sample_size_backends_equal(self, epsilon, delta):
        clear_all_caches()
        batch = tight_sample_size(epsilon, delta, backend="batch")
        scalar = tight_sample_size(epsilon, delta, backend="scalar")
        assert batch == scalar

    @pytest.mark.parametrize("n,epsilon", [(170, 0.1), (1090, 0.05), (37, 0.2)])
    def test_worst_case_backends_close(self, n, epsilon):
        clear_all_caches()
        batch = worst_case_failure_probability(n, epsilon, backend="batch")
        scalar = worst_case_failure_probability(n, epsilon, backend="scalar")
        assert batch == pytest.approx(scalar, abs=TOL)

    def test_invalid_backend_rejected(self):
        with pytest.raises(InvalidParameterError):
            tight_sample_size(0.1, 1e-3, backend="numpy")


class TestCaching:
    def test_memoized_tight_sample_size_hits(self):
        clear_all_caches()
        first = tight_sample_size(0.1, 1e-2)
        before = all_cache_info()["stats.tight_bounds.tight_sample_size"]
        second = tight_sample_size(0.1, 1e-2)
        after = all_cache_info()["stats.tight_bounds.tight_sample_size"]
        assert first == second
        assert after.hits == before.hits + 1

    def test_hint_does_not_pollute_cache(self):
        # The search has no hint: a spec has exactly one memo entry.
        clear_all_caches()
        with pytest.raises(TypeError):
            tight_sample_size(0.1, 1e-2, n_hint=123)
        tight_sample_size(0.1, 1e-2)
        tight_sample_size(0.1, 1e-2)
        info = all_cache_info()["stats.tight_bounds.tight_sample_size"]
        assert (info.currsize, info.hits, info.misses) == (1, 1, 1)

    def test_clear_all_caches_resets(self):
        tight_sample_size(0.1, 1e-2)
        clear_all_caches()
        info = all_cache_info()["stats.tight_bounds.tight_sample_size"]
        assert info.currsize == 0 and info.hits == 0

    def test_log_factorial_table_prefix_consistent(self):
        clear_all_caches()
        small = log_factorial_table(10).copy()
        large = log_factorial_table(1000)
        assert np.array_equal(small[:11], large[:11])

    def test_log_factorial_table_is_lgamma_bit_for_bit(self):
        clear_all_caches()
        log_factorial_table(100)
        table = log_factorial_table(5000)  # the second growth
        assert len(table) > 5000
        expected = [math.lgamma(m + 1.0) for m in range(len(table))]
        assert table.tolist() == expected
        clear_all_caches()

    def test_table_counters_are_real(self):
        """``repro ops`` reports genuine serve/grow traffic, not placeholders."""
        clear_all_caches()
        name = "stats.batch.log_factorial_table"
        info = all_cache_info()[name]
        assert (info.hits, info.misses) == (0, 0)
        log_factorial_table(100)  # grow
        log_factorial_table(50)  # served by the existing table
        log_factorial_table(80)  # served
        table = log_factorial_table(200)  # grow again
        info = all_cache_info()[name]
        assert info.misses == 2
        assert info.hits == 2
        assert info.currsize == len(table)
        clear_all_caches()
        info = all_cache_info()[name]
        assert (info.hits, info.misses) == (0, 0)


# ---------------------------------------------------------------------------
# Pairs kernel: the fused loop against its reference oracle
# ---------------------------------------------------------------------------

TRIAL_SEEDS = range(8)
PAIRS_IMPLS = ["fused", "reference"]


def _seeded(trial, seed: int) -> None:
    """Run ``trial(rng)``; on failure, re-raise with the seed attached."""
    try:
        trial(random.Random(seed))
    except AssertionError as err:
        raise AssertionError(f"[reproduce with seed={seed}] {err}") from err


def _random_triples(rng: random.Random, size: int):
    """Heterogeneous (n, p, eps) including boundary p and large-n rows."""
    ns, ps, epss = [], [], []
    for _ in range(size):
        if rng.random() < 0.25:
            ns.append(rng.randrange(10_000, 60_000))
        else:
            ns.append(rng.randrange(1, 3000))
        roll = rng.random()
        if roll < 0.05:
            ps.append(0.0)
        elif roll < 0.10:
            ps.append(1.0)
        else:
            ps.append(rng.random())
        epss.append(rng.uniform(1e-4, 0.5))
    return np.asarray(ns), np.asarray(ps), np.asarray(epss)


def _random_partition(rng: random.Random, size: int) -> list[slice]:
    cuts = sorted(rng.sample(range(1, size), k=min(rng.randrange(1, 6), size - 1)))
    bounds = [0, *cuts, size]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def test_fused_is_bit_identical_to_reference():
    def trial(rng: random.Random) -> None:
        size = rng.randrange(8, 64)
        ns, ps, epss = _random_triples(rng, size)
        fused = exact_coverage_failure_probability_pairs(ns, ps, epss)
        reference = exact_coverage_failure_probability_pairs(
            ns, ps, epss, impl="reference"
        )
        assert np.array_equal(fused, reference), (
            f"fused diverged on {np.sum(fused != reference)} of {size} elements "
            f"(max delta {np.max(np.abs(fused - reference)):.3e})"
        )

    for seed in TRIAL_SEEDS:
        _seeded(trial, seed)


@pytest.mark.parametrize("impl", PAIRS_IMPLS)
def test_pairs_kernel_is_invariant_under_batch_splits(impl):
    def trial(rng: random.Random) -> None:
        size = rng.randrange(8, 48)
        ns, ps, epss = _random_triples(rng, size)
        whole = exact_coverage_failure_probability_pairs(ns, ps, epss, impl=impl)
        pieces = [
            exact_coverage_failure_probability_pairs(
                ns[part], ps[part], epss[part], impl=impl
            )
            for part in _random_partition(rng, size)
        ]
        chunked = np.concatenate(pieces)
        assert np.array_equal(whole, chunked), (
            f"[{impl}] split changed {np.sum(whole != chunked)} of {size} elements"
        )

    for seed in TRIAL_SEEDS:
        _seeded(trial, seed)


@pytest.mark.parametrize("impl", PAIRS_IMPLS)
def test_pairs_kernel_is_invariant_under_permutation(impl):
    def trial(rng: random.Random) -> None:
        size = rng.randrange(8, 48)
        ns, ps, epss = _random_triples(rng, size)
        whole = exact_coverage_failure_probability_pairs(ns, ps, epss, impl=impl)
        order = list(range(size))
        rng.shuffle(order)
        idx = np.asarray(order)
        shuffled = exact_coverage_failure_probability_pairs(
            ns[idx], ps[idx], epss[idx], impl=impl
        )
        unshuffled = np.empty_like(shuffled)
        unshuffled[idx] = shuffled
        assert np.array_equal(whole, unshuffled), (
            f"[{impl}] permutation changed "
            f"{np.sum(whole != unshuffled)} of {size} elements"
        )

    for seed in TRIAL_SEEDS:
        _seeded(trial, seed)


def test_unknown_pairs_impl_is_rejected():
    ns, ps, epss = np.asarray([100]), np.asarray([0.5]), np.asarray([0.05])
    for impl in ("blas", "jit"):
        with pytest.raises(InvalidParameterError):
            exact_coverage_failure_probability_pairs(ns, ps, epss, impl=impl)

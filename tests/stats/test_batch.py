"""Batch kernels agree with the scalar binomial machinery to <= 1e-10.

The grid kernel's fused window loop is also checked bit for bit against
the pre-fusion loop, which materializes each ``(rows, window)`` work
matrix, exponentiates it and reduces every row (``reference_sums``).
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import batch, tight_bounds
from repro.stats.batch import (
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


def reference_sums(n, pi, epsilon, variance):
    """The grid kernel at interior points ``pi``, through the pre-fusion loop.

    Cutoffs, windows and the log-pmf split follow the kernel's
    definition; the whole work matrix is materialized, exponentiated and
    reduced row by row.  ``variance`` sets the window length, as the
    largest ``p (1 - p)`` of the level the points belong to.
    """
    width = batch._window_length(n, variance, epsilon)
    lo_cut = np.maximum(np.ceil(n * (pi - epsilon) - 1e-12) - 1, -1).astype(np.int64)
    hi_cut = np.minimum(np.floor(n * (pi + epsilon) + 1e-12) + 1, n + 1).astype(np.int64)
    log1mp = np.log1p(-pi)
    logit = np.log(pi) - log1mp
    first_k = np.concatenate([lo_cut - (width - 1), hi_cut])
    logit2 = np.concatenate([logit, logit])
    const = logit2 * first_k + n * np.concatenate([log1mp, log1mp])
    row = batch._padded_log_comb_row(n)
    windows = np.lib.stride_tricks.sliding_window_view(row, width)
    work = windows[first_k + batch._row_pad(n)]  # a fresh copy
    work += logit2[:, None] * np.arange(width, dtype=np.float64)[None, :]
    work += const[:, None]
    np.exp(work, out=work)
    sums = np.add.reduce(work, axis=1)
    m = len(pi)
    return np.minimum(1.0, sums[:m] + sums[m:])


def reference_grid(n, p, epsilon):
    """:func:`reference_sums` over a whole grid, ``p`` in ``{0, 1}`` at 0."""
    p = np.asarray(p, dtype=np.float64)
    out = np.zeros(len(p))
    interior = (p > 0.0) & (p < 1.0)
    pi = p[interior]
    if len(pi):
        out[interior] = reference_sums(n, pi, epsilon, float(np.max(pi * (1 - pi))))
    return out


def scalar_tight_sample_size(epsilon, delta, grid=256, refine=2):
    """The search of :func:`tight_sample_size` over the scalar reference scan."""
    return tight_bounds._bisect_crossing(
        tight_bounds._hoeffding_anchor(epsilon, delta),
        lambda n: tight_bounds._scan_scalar(n, epsilon, grid, refine)[0] > delta,
    )


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
        # The pre-fusion loop is the oracle; the fused one must match it
        # bit for bit at planning scale.
        n, epsilon = 60_000, 0.01
        grid = np.linspace(0.0, 1.0, 257)
        vec = exact_coverage_failure_probability_vec(n, grid, epsilon)
        assert np.array_equal(vec, reference_grid(n, grid, epsilon))

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
        batch_f, _ = tight_bounds._scan_batch(n, epsilon, 256, 2)
        scalar, _ = tight_bounds._scan_scalar(n, epsilon, 256, 2)
        assert batch_f == pytest.approx(scalar, abs=TOL)


class TestBackendsAgree:
    """The batch scan and search against the scalar reference scan."""

    @pytest.mark.parametrize(
        "epsilon,delta",
        [(0.05, 1e-3), (0.1, 1e-2), (0.2, 1e-4), (0.15, 1e-3)],
    )
    def test_tight_sample_size_backends_equal(self, epsilon, delta):
        clear_all_caches()
        assert tight_sample_size(epsilon, delta) == scalar_tight_sample_size(
            epsilon, delta
        )

    @pytest.mark.parametrize("n,epsilon", [(170, 0.1), (1090, 0.05), (37, 0.2)])
    def test_worst_case_backends_close(self, n, epsilon):
        clear_all_caches()
        batch_f = worst_case_failure_probability(n, epsilon)
        scalar, _ = tight_bounds._scan_scalar(n, epsilon, 512, 3)
        assert batch_f == pytest.approx(scalar, abs=TOL)


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

    def test_row_builds_are_not_table_hits(self):
        # Two full scans at one n: three levels, each a bound pass and an
        # exact pass, read the one padded log C(n, .) row 12 times.  It is
        # built once; only that build touches the table, growing it.
        clear_all_caches()
        for _ in range(2):
            tight_bounds._scan_batch(6800, 0.02, 256, 2)
        info = all_cache_info()
        rows = info["stats.batch.log_comb_rows"]
        table = info["stats.batch.log_factorial_table"]
        assert (rows.hits, rows.misses, rows.currsize) == (11, 1, 1)
        assert (table.hits, table.misses) == (0, 1)
        clear_all_caches()


# ---------------------------------------------------------------------------
# The fused loop against the pre-fusion reference loop
# ---------------------------------------------------------------------------

TRIAL_SEEDS = range(8)
LOOPS = ["fused", "reference"]


def _seeded(trial, seed: int) -> None:
    """Run ``trial(rng)``; on failure, re-raise with the seed attached."""
    try:
        trial(random.Random(seed))
    except AssertionError as err:
        raise AssertionError(f"[reproduce with seed={seed}] {err}") from err


def _random_level(rng: random.Random, size: int):
    """``(n, epsilon, points)``: one level of interior points, large n included."""
    if rng.random() < 0.25:
        n = rng.randrange(10_000, 60_000)
    else:
        n = rng.randrange(1, 3000)
    points = np.asarray([rng.uniform(1e-6, 1 - 1e-6) for _ in range(size)])
    return n, rng.uniform(1e-4, 0.5), points


def _random_partition(rng: random.Random, size: int) -> list[slice]:
    cuts = sorted(rng.sample(range(1, size), k=min(rng.randrange(1, 6), size - 1)))
    bounds = [0, *cuts, size]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _level_values(loop: str, n, epsilon, points):
    """``rows -> values`` of ``points`` at the whole level's window length."""
    variance = batch._max_variance(points)
    if loop == "fused":
        tails = batch._grid_tails(n, points, epsilon, variance)
        return lambda rows: exact_coverage_failure_probability_vec(
            n, tails.take(rows), epsilon
        )
    return lambda rows: reference_sums(n, points[rows], epsilon, variance)


def test_fused_is_bit_identical_to_reference():
    def trial(rng: random.Random) -> None:
        n, epsilon, points = _random_level(rng, rng.randrange(8, 64))
        grid = np.concatenate([[0.0], points, [1.0]])
        fused = exact_coverage_failure_probability_vec(n, grid, epsilon)
        reference = reference_grid(n, grid, epsilon)
        assert np.array_equal(fused, reference), (
            f"fused diverged on {np.sum(fused != reference)} of {len(grid)} points "
            f"(max delta {np.max(np.abs(fused - reference)):.3e})"
        )

    for seed in TRIAL_SEEDS:
        _seeded(trial, seed)


@pytest.mark.parametrize("impl", LOOPS)
def test_pairs_kernel_is_invariant_under_batch_splits(impl):
    def trial(rng: random.Random) -> None:
        size = rng.randrange(8, 48)
        n, epsilon, points = _random_level(rng, size)
        values = _level_values(impl, n, epsilon, points)
        whole = values(np.arange(size))
        chunked = np.concatenate(
            [values(np.arange(size)[part]) for part in _random_partition(rng, size)]
        )
        assert np.array_equal(whole, chunked), (
            f"[{impl}] split changed {np.sum(whole != chunked)} of {size} points"
        )

    for seed in TRIAL_SEEDS:
        _seeded(trial, seed)


@pytest.mark.parametrize("impl", LOOPS)
def test_pairs_kernel_is_invariant_under_permutation(impl):
    def trial(rng: random.Random) -> None:
        size = rng.randrange(8, 48)
        n, epsilon, points = _random_level(rng, size)
        values = _level_values(impl, n, epsilon, points)
        whole = values(np.arange(size))
        order = list(range(size))
        rng.shuffle(order)
        idx = np.asarray(order)
        unshuffled = np.empty_like(whole)
        unshuffled[idx] = values(idx)
        assert np.array_equal(whole, unshuffled), (
            f"[{impl}] permutation changed "
            f"{np.sum(whole != unshuffled)} of {size} points"
        )

    for seed in TRIAL_SEEDS:
        _seeded(trial, seed)

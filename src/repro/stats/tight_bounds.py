"""Tight numerical sample-size bounds via exact binomial computation.

Section 4.3 of the paper sketches the final optimization: for conditions
over ``n`` i.i.d. Bernoulli draws, compute the *exact* minimal testset size
by working with the Binomial probability mass function directly instead of
a concentration bound, minimizing over the worst-case unknown true mean
``p``.  The paper leaves efficient approximations as future work; here we
implement the exact computation (it is perfectly tractable at the testset
sizes in play) so it can serve both as an optional estimator backend and as
the ground truth the analytic bounds are compared against in the ablation
benchmarks.

Definitions
-----------
For sample size ``n`` and tolerance ``epsilon``, the *coverage failure
probability* at true mean ``p`` is

.. math:: f(n, p) = \\Pr\\big[\\, |\\hat p - p| > \\epsilon \\,\\big],
          \\qquad \\hat p = \\text{Binomial}(n, p)/n .

The tight sample size is the minimal ``n`` with
``max_p f(n, p) <= delta``.  ``f(n, ·)`` is piecewise smooth with local
maxima near the boundaries of the rounding grid, so the inner maximization
scans a grid of candidate ``p`` refined around the argmax; the outer search
is a doubling-then-bisection search from the Hoeffding size.  The scan's
maximum is not monotone in ``n``, so the search returns the ``n`` where
its bisection crosses ``delta``, which need not be the minimal one (see
:func:`tight_sample_size`).

Scans and caching
-----------------
:func:`tight_sample_size` and :func:`worst_case_failure_probability`
run their grid scans through the NumPy kernels in
:mod:`repro.stats.batch`, bound first, verify second.  Each refinement
level gets certified lower and upper bounds for every grid point
(:func:`repro.stats.batch.coverage_failure_bounds`: the first
``ceil(1/epsilon)`` terms of each tail window plus a geometric bound on
the rest), and the exact grid kernel runs only on the points whose upper
bound can still reach the level's best value — about a fifth of them at
planning scale.  Each level's cutoffs, logits and window width are set
up once and shared by both passes.  A full scan returns the
bit-identical ``(worst_f, argmax p)`` of evaluating every point exactly.
A bisection probe asks only whether the maximum exceeds ``delta`` and
does only the work that decision needs (sound: the scan only ever *adds*
candidate maxima, so crossing the threshold early settles the
comparison).  It stops as soon as a lower bound or an exact value
exceeds ``delta``.  On its last level, where no window is placed from
the argmax, only points whose upper bound can still exceed ``delta`` are
evaluated exactly.  Two probes need no scan at all: the Hoeffding
anchor, answered by Hoeffding's inequality whenever it settles it with
margin, and any ``n`` where the first terms of the level-0 midpoint's
tails, summed in plain Python, already exceed ``delta``
(:func:`_midpoint_exceeds`).

``_scan_scalar`` is the original pure-Python loop over
:func:`repro.stats.binomial.binom_cdf`, kept as the reference the batch
scan is cross-checked and benchmarked against: the grid trajectory (grid
points, refinement windows, argmax tie-breaks) is the scalar loop's up
to the ``p <-> 1-p`` mirror at level 0 (see :func:`_scan_batch`), so a
search over either scan (:func:`_bisect_crossing`) returns the same
sample size.  The benchmark suite enforces a >= 20x speedup at
paper-scale parameters.

The exact search refuses sizes above ``2^24`` labels (``_MAX_N``): a
Hoeffding anchor or a worst-case ``n`` past it raises
:class:`~repro.exceptions.InvalidParameterError` instead of allocating a
log-factorial table of that length.

Results of :func:`tight_sample_size` and the worst-case scans are
memoized process-wide through :mod:`repro.stats.cache` — a CI service
re-planning the same condition on every commit hits the cache instead of
re-running the search.  Use :func:`repro.stats.cache.clear_all_caches` for
cold-start benchmarks.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.stats.batch import (
    _bound_sums,
    _grid_tails,
    _max_variance,
    _window_length,
    exact_coverage_failure_probability_vec,
)
from repro.stats.binomial import binom_cdf, binom_sf
from repro.stats.cache import memoize
from repro.utils.validation import check_positive, check_positive_int, check_probability

__all__ = [
    "exact_coverage_failure_probability",
    "worst_case_failure_probability",
    "tight_sample_size",
]

# perfbench/layers.py binds this name to time the coverage kernel; the
# benchmark change of ROADMAP item 7 drops that wrapper and this line.
exact_coverage_failure_probability_pairs = exact_coverage_failure_probability_vec


def _check_scan_grid(grid: int, refine: int) -> tuple[int, int]:
    """A worst-case scan needs ``grid >= 2`` cells and ``refine >= 0`` levels.

    A one-cell grid evaluates only ``p = 0`` and ``p = 1``, where the
    failure probability is zero, so every ``n`` would pass.
    """
    for name, value, least in (("grid", grid, 2), ("refine", refine, 0)):
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, np.integer))
            or value < least
        ):
            raise InvalidParameterError(
                f"{name} must be an integer >= {least}, got {value!r}"
            )
    return int(grid), int(refine)


def exact_coverage_failure_probability(n: int, p: float, epsilon: float) -> float:
    """Exact ``Pr[|Binomial(n,p)/n - p| > epsilon]``.

    The event is ``k < n(p - epsilon)`` or ``k > n(p + epsilon)``; both
    tails are computed with the exact binomial CDF/SF.  (This is the
    scalar reference; the planning loops use
    :func:`repro.stats.batch.exact_coverage_failure_probability_vec`.)
    """
    n = check_positive_int(n, "n")
    check_positive(epsilon, "epsilon")
    if not 0.0 <= p <= 1.0:
        raise InvalidParameterError(f"p must be in [0, 1], got {p}")
    lo_cut = math.ceil(n * (p - epsilon) - 1e-12) - 1  # largest k with k/n < p - eps
    hi_cut = math.floor(n * (p + epsilon) + 1e-12) + 1  # smallest k with k/n > p + eps
    prob = 0.0
    if lo_cut >= 0:
        prob += binom_cdf(min(lo_cut, n), n, p)
    if hi_cut <= n:
        prob += binom_sf(hi_cut - 1, n, p)
    return min(1.0, prob)


# ---------------------------------------------------------------------------
# Worst-case scans
# ---------------------------------------------------------------------------

def _scan_scalar(n: int, epsilon: float, grid: int, refine: int) -> tuple[float, float]:
    """The original pure-Python grid scan (reference implementation)."""
    lo, hi = 0.0, 1.0
    best_p, best_f = 0.5, 0.0
    for _ in range(refine + 1):
        step = (hi - lo) / grid
        for i in range(grid + 1):
            p = lo + i * step
            f = exact_coverage_failure_probability(n, p, epsilon)
            if f > best_f:
                best_f, best_p = f, p
        lo = max(0.0, best_p - 2 * step)
        hi = min(1.0, best_p + 2 * step)
    return best_f, best_p


def _bound_terms(epsilon: float) -> int:
    """Terms per tail the bound pass sums before its geometric tail bound.

    Any count is sound; it only trades the bound pass's cost against how
    tight the upper bound is.  Past a cutoff successive terms shrink by
    about ``1 - epsilon / (p (1 - p))``, at least ``1 - 4 epsilon``, so
    ``ceil(1/epsilon)`` terms already hold all but a few percent of each
    tail's mass, in about a quarter of the kernel's window at planning
    scale.
    """
    return math.ceil(1.0 / epsilon)


# A point is evaluated exactly only if its upper bound reaches the level's
# best known value times (1 - _PRUNE_MARGIN).  The kernel's rounding is
# at most ~6.4e-11 relative at n = 6e4 and ~1e-8 at the size cap (the
# MIRROR_RTOL note in tests/stats/test_batch.py), so a skipped point's
# computed value is strictly below a value already reached and cannot be
# the level's first strict improvement.  The margin applies to the best
# value *and* to the best lower bound: two mirror points can differ by an
# ulp.
_PRUNE_MARGIN = 1e-6
# Absolute slack under the pruning floor: near float64's subnormal range
# a relative margin means nothing, so levels whose best value is below
# ~1e-300 are evaluated in full.
_PRUNE_FLOOR = 1e-300


def _scan_batch(
    n: int,
    epsilon: float,
    grid: int,
    refine: int,
    stop_above: float | None = None,
) -> tuple[float, float]:
    """Vectorized grid scan tracking the scalar one's trajectory.

    Grid points are generated with the identical floating-point arithmetic
    (``lo + i * step``) and the running argmax uses the same
    first-strict-improvement tie-break.  One departure: on an even grid,
    level 0 is symmetric about 1/2, and ``f(n, p, eps) = f(n, 1-p, eps)``
    makes its right half a mirror of the left that can never win a
    first-strict-improvement argmax, so only the left half is evaluated.
    The maximum agrees with the scalar scan's to rounding; the argmax may
    be its mirror image.

    Each level is set up once (cutoffs, logits and the window width of
    its interior points; ``p`` in ``{0, 1}`` has ``f = 0`` and can never
    be a strict improvement) and then bounded and verified: certified
    lower and upper bounds (:func:`repro.stats.batch.coverage_failure_bounds`)
    for every point, then the exact kernel only on the points whose
    upper bound reaches the best value known so far (see
    ``_PRUNE_MARGIN``), from the same set-up and so at the whole level's
    window width.  The result is bit-identical to evaluating every point
    exactly.

    ``stop_above`` asks only whether the maximum exceeds it, and the
    scan does only the work that decision needs.  It returns as soon as
    a lower bound or the running maximum exceeds the threshold
    (refinement only ever raises the maximum, so the comparison is
    already decided).  On the last level no window is placed from the
    argmax, so a point is evaluated exactly only if its upper bound can
    still exceed the threshold; the returned maximum is then exact only
    when it exceeds ``stop_above``.
    """
    terms = _bound_terms(epsilon)
    lo, hi = 0.0, 1.0
    best_p, best_f = 0.5, 0.0
    for level in range(refine + 1):
        step = (hi - lo) / grid
        p = lo + np.arange(grid + 1) * step
        if level == 0 and grid % 2 == 0:
            p = p[: grid // 2 + 1]
        p = p[(p > 0.0) & (p < 1.0)]
        tails = _grid_tails(n, p, epsilon, _max_variance(p))
        lower, upper = _bound_sums(n, tails, terms)
        certain = float(np.max(lower)) * (1.0 - _PRUNE_MARGIN) - _PRUNE_FLOOR
        if stop_above is not None and certain > stop_above:
            i = int(np.argmax(lower))
            return float(lower[i]), float(p[i])
        floor = max(best_f * (1.0 - _PRUNE_MARGIN) - _PRUNE_FLOOR, certain)
        if stop_above is not None and level == refine:
            # Only a value above the threshold can change the decision.
            floor = max(floor, stop_above * (1.0 - _PRUNE_MARGIN) - _PRUNE_FLOOR)
        live = np.flatnonzero(upper >= floor)
        if len(live):
            f = exact_coverage_failure_probability_vec(n, tails.take(live), epsilon)
            i = int(np.argmax(f))
            if f[i] > best_f:
                best_f, best_p = float(f[i]), float(p[live[i]])
        if stop_above is not None and best_f > stop_above:
            return best_f, best_p
        lo = max(0.0, best_p - 2 * step)
        hi = min(1.0, best_p + 2 * step)
    return best_f, best_p


@memoize("stats.tight_bounds.worst_case", maxsize=8192)
def _worst_case_cached(
    n: int, epsilon: float, grid: int, refine: int
) -> tuple[float, float]:
    return _scan_batch(n, epsilon, grid, refine)


def worst_case_failure_probability(
    n: int, epsilon: float, *, grid: int = 512, refine: int = 3
) -> float:
    """``max_p Pr[|hat p - p| > epsilon]`` over the unknown true mean.

    Scans an initial uniform grid over ``[0, 1]`` and then refines around
    the best cell ``refine`` times.  With ``grid=512`` the result is exact
    to well below the tolerance at which it is consumed (the outer search
    only needs to compare against ``delta``).  Memoized per
    ``(n, epsilon, grid, refine)``.
    """
    n = check_positive_int(n, "n")
    check_positive(epsilon, "epsilon")
    grid, refine = _check_scan_grid(grid, refine)
    _check_size_cap(n, "n")
    return _worst_case_cached(n, epsilon, grid, refine)[0]


@memoize("stats.tight_bounds.exceeds_delta", maxsize=16384)
def _exceeds_delta_batch(
    n: int, epsilon: float, delta: float, grid: int, refine: int
) -> bool:
    """Does ``max_p f(n, p)`` exceed ``delta``?  (Early-exit scan.)"""
    if _midpoint_exceeds(n, epsilon, delta, grid):
        return True
    best_f, _ = _scan_batch(n, epsilon, grid, refine, stop_above=delta)
    return best_f > delta


# ---------------------------------------------------------------------------
# Outer searches
# ---------------------------------------------------------------------------

# The largest testset the exact search may reach: the batch kernels keep
# a float64 log-factorial table of n + 1 entries, so 2^24 labels is a
# 128 MB table, far above the paper's 2K-100K regime.  A Hoeffding anchor
# or a worst-case ``n`` above it is refused.
_MAX_N = 1 << 24


def _check_size_cap(n: float, what: str) -> None:
    if n > _MAX_N:
        raise InvalidParameterError(
            f"{what} is {n:.0f} labels, above the exact search's cap of "
            f"{_MAX_N} (2^24); use a concentration bound at this scale"
        )


def _hoeffding_certifies(n: int, epsilon: float, delta: float) -> bool:
    """Does Hoeffding's inequality alone settle ``max_p f(n, p) <= delta``?

    ``Pr[|hat p - p| >= epsilon] <= 2 exp(-2 n epsilon^2)`` for every
    ``p``, so the scan could only answer "feasible".  The
    ``_PRUNE_MARGIN`` slack keeps the computed scan (its rounding, and
    cutoffs rounded by ``n * (p +- epsilon)``) below ``delta`` too, so the
    certificate gives the scan's own decision.  It settles the search's
    first probe, the Hoeffding anchor.
    """
    return 2.0 * math.exp(-2.0 * n * epsilon * epsilon) <= delta * (1.0 - _PRUNE_MARGIN)


def _midpoint_exceeds(n: int, epsilon: float, delta: float, grid: int) -> bool:
    """Do the first terms at the level-0 midpoint alone exceed ``delta``?

    Every batch scan evaluates the level-0 grid point ``p = (grid // 2)
    * step`` (generated here with the scan's own arithmetic), and its
    maximum only rises from there.  This sums the first
    ``_bound_terms(epsilon)`` terms of each tail at that point from the
    scan's cutoffs outward, in plain Python with the ratio recurrence of
    successive binomial terms.  The count is capped at the grid kernel's
    window length at ``p``'s own variance, never more than the level's,
    so the terms are a subset of the kernel's sum, which is therefore at
    least this one up to rounding; the ``_PRUNE_MARGIN`` slack covers
    the rounding of both.  A true answer is the scan's own decision,
    "exceeds", settled without a scan.
    """
    p = (grid // 2) * (1.0 / grid)
    lo_cut = math.ceil(n * (p - epsilon) - 1e-12) - 1
    hi_cut = math.floor(n * (p + epsilon) + 1e-12) + 1
    terms = min(_bound_terms(epsilon), _window_length(n, p * (1.0 - p), epsilon))
    log_p, log_q = math.log(p), math.log1p(-p)
    odds = p / (1.0 - p)
    log_n = math.lgamma(n + 1.0)

    def term(k: int) -> float:
        return math.exp(
            log_n - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0)
            + k * log_p + (n - k) * log_q
        )

    total = 0.0
    if lo_cut >= 0:
        k, b = lo_cut, term(lo_cut)
        for _ in range(min(terms, lo_cut + 1)):
            total += b
            b *= k / ((n - k + 1) * odds)
            k -= 1
    if hi_cut <= n:
        k, b = hi_cut, term(hi_cut)
        for _ in range(min(terms, n - hi_cut + 1)):
            total += b
            b *= (n - k) * odds / (k + 1)
            k += 1
    return total * (1.0 - _PRUNE_MARGIN) - _PRUNE_FLOOR > delta


def _hoeffding_anchor(epsilon: float, delta: float) -> int:
    """The two-sided Hoeffding size, where the search starts (capped)."""
    spread = 2.0 * epsilon * epsilon  # underflows to 0.0 for tiny epsilon
    anchor = math.log(2.0 / delta) / spread if spread else math.inf
    _check_size_cap(anchor, f"the Hoeffding anchor of epsilon={epsilon!r}, delta={delta!r}")
    return max(1, int(math.ceil(anchor)))


def _bisect_crossing(anchor: int, exceeds: Callable[[int], bool]) -> int:
    """The ``n`` where bisection below ``anchor`` crosses ``exceeds``.

    Doubles ``anchor`` until it passes (Hoeffding dominates, so it
    should already), bisects ``[1, anchor]``, then walks forward while
    the crossing still exceeds.
    """
    hi = anchor
    while exceeds(hi):
        hi *= 2
        if hi > 1 << 34:  # pragma: no cover - defensive
            raise InvalidParameterError("tight_sample_size search diverged")
    lo = 1
    # Bisection: worst-case failure falls with n apart from small ripples
    # of the discrete distribution, so the crossing found need not be the
    # minimal passing n; the final verification step re-checks it.
    while lo < hi:
        mid = (lo + hi) // 2
        if not exceeds(mid):
            hi = mid
        else:
            lo = mid + 1
    # Walk forward over possible ripples.
    n = hi
    while exceeds(n):
        n += 1  # pragma: no cover - rarely triggered
    return n


@memoize("stats.tight_bounds.tight_sample_size", maxsize=4096)
def _tight_sample_size_cached(
    epsilon: float, delta: float, grid: int, refine: int, anchor: int
) -> int:
    def exceeds(n: int) -> bool:
        if _hoeffding_certifies(n, epsilon, delta):
            return False
        return _exceeds_delta_batch(n, epsilon, delta, grid, refine)

    return _bisect_crossing(anchor, exceeds)


def tight_sample_size(
    epsilon: float,
    delta: float,
    *,
    grid: int = 256,
    refine: int = 2,
) -> int:
    """A small ``n`` with worst-case coverage failure at most ``delta``.

    This is the Section 4.3 "tight numerical bound" for a single Bernoulli
    mean.  It is never larger than the two-sided Hoeffding sample size (the
    test suite asserts this), and is typically 10–40% smaller.

    The search bisects between 1 and the Hoeffding size and returns the
    ``n`` where the bisection crosses ``delta``.  The scan's maximum is
    not monotone in ``n``, so that crossing need not be the minimal
    passing ``n``: for ``epsilon=0.01``, ``delta=1.953e-7`` the search
    returns 67750, and 67700 passes too.  Memoized per
    ``(epsilon, delta, grid, refine)``.

    Parameters
    ----------
    epsilon, delta:
        Tolerance and failure probability of the guarantee.
    grid, refine:
        Resolution of the inner worst-case-``p`` search.
    """
    check_positive(epsilon, "epsilon")
    check_probability(delta, "delta")
    grid, refine = _check_scan_grid(grid, refine)
    if epsilon >= 1.0:
        return 1
    return _tight_sample_size_cached(
        epsilon, delta, grid, refine, _hoeffding_anchor(epsilon, delta)
    )

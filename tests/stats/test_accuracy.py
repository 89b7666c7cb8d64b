"""The grid kernel's relative error against exact binomial tails.

The kernel sums each tail in float64 log space over a window of terms
(``repro.stats.batch``).  Here its values are compared with tails summed
in exact or arbitrary-precision arithmetic at the kernel's own cutoffs,
so the test measures how the kernel sums a tail, not where it cuts one:

* at ``n <= 300``, exact ``fractions.Fraction`` sums over each whole tail
  (a float ``p`` is an exact binary fraction);
* at planning sizes, 50-digit ``mpmath`` sums that start at each cutoff
  and walk outward, term by term through the ratio of successive terms,
  until a term falls below ``1e-35`` of the running sum.  Past a cutoff
  the terms only fall, so the rest is far below the tolerance.
  (``mpmath.betainc`` does not converge at these sizes.)

The kernel's error has two parts.  Its float64 rounding is relative:
measured 7.7e-14 at ``n = 300`` and at most 3.7e-10 over the 48 seeded
points at planning sizes (at ``n = 2e5``).  Its windows leave out the
mass more than ``_WINDOW_SIGMAS`` standard deviations past the mean,
which is absolute: below ~1.5e-14 by the window's construction.  On a
small tail that part can dominate the relative error (9.7e-9 at
``n = 67750``, ``p = 0.279``, on a tail of 6.5e-9, all of it the 6.3e-17
left outside the window).  So the gate is ``1e-9`` relative plus the
window's absolute bound.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from repro.stats.batch import exact_coverage_failure_probability_vec

RTOL = 1e-9
WINDOW_MASS = 1.5e-14  # the mass a tail window may leave out

# (n, epsilon): the largest and smallest pinned planning sizes, a
# worst-case scan case, and the widest level the kernel has been run at.
PLANNING_CASES = [
    (1179, 0.05),
    (2916, 0.03),
    (6800, 0.02),
    (14172, 0.02),
    (67750, 0.01),
    (200_000, 1e-3),
]
SMALL_CASES = [(1, 0.2), (7, 0.1), (37, 0.2), (170, 0.1), (300, 0.05)]
POINTS_PER_CASE = 8
SEED = 20261020


def _points(n: int) -> np.ndarray:
    return np.random.default_rng(SEED + n).uniform(0.02, 0.98, size=POINTS_PER_CASE)


def _cutoffs(n: int, p: float, epsilon: float) -> tuple[int, int]:
    """The kernel's guarded cutoffs: last k of the lower tail, first of the upper."""
    lo_cut = math.ceil(n * (p - epsilon) - 1e-12) - 1
    hi_cut = math.floor(n * (p + epsilon) + 1e-12) + 1
    return max(lo_cut, -1), min(hi_cut, n + 1)


def _fraction_tails(n: int, p: float, epsilon: float) -> Fraction:
    lo_cut, hi_cut = _cutoffs(n, p, epsilon)
    p_exact = Fraction(p)
    q_exact = 1 - p_exact
    ks = [*range(0, lo_cut + 1), *range(hi_cut, n + 1)]
    return sum(
        (math.comb(n, k) * p_exact**k * q_exact ** (n - k) for k in ks), Fraction(0)
    )


def _mpmath_tail(n: int, p, q, start: int, step: int):
    """One tail summed from ``start`` outward (``step`` = -1 or +1)."""
    if not 0 <= start <= n:
        return mpmath.mpf(0)
    term = mpmath.binomial(n, start) * p**start * q ** (n - start)
    total = mpmath.mpf(0)
    k = start
    while 0 <= k <= n and term >= mpmath.mpf("1e-35") * total:
        total += term
        if step < 0:
            term *= k * q / ((n - k + 1) * p)
        else:
            term *= (n - k) * p / ((k + 1) * q)
        k += step
    return total


def _mpmath_tails(n: int, p: float, epsilon: float):
    lo_cut, hi_cut = _cutoffs(n, p, epsilon)
    with mpmath.workdps(50):
        p_mp = mpmath.mpf(p)
        q_mp = 1 - p_mp
        return _mpmath_tail(n, p_mp, q_mp, lo_cut, -1) + _mpmath_tail(
            n, p_mp, q_mp, hi_cut, +1
        )


@pytest.mark.parametrize("n,epsilon", SMALL_CASES)
def test_matches_exact_fractions_at_small_n(n, epsilon):
    points = _points(n)
    values = exact_coverage_failure_probability_vec(n, points, epsilon)
    for p, value in zip(points.tolist(), values.tolist()):
        exact = _fraction_tails(n, p, epsilon)
        if exact == 0:
            assert value == 0.0, (p, value)
            continue
        error = abs(Fraction(value) - exact)
        assert error <= RTOL * exact + Fraction(WINDOW_MASS), (
            p,
            float(exact),
            value,
            float(error / exact),
        )


@pytest.mark.parametrize("n,epsilon", PLANNING_CASES)
def test_matches_50_digit_tails_at_planning_sizes(n, epsilon):
    points = _points(n)
    values = exact_coverage_failure_probability_vec(n, points, epsilon)
    for p, value in zip(points.tolist(), values.tolist()):
        reference = _mpmath_tails(n, p, epsilon)
        assert reference > 0, p
        with mpmath.workdps(50):
            error = abs(mpmath.mpf(value) - reference)
            assert error <= RTOL * reference + WINDOW_MASS, (
                p,
                float(reference),
                value,
                float(error / reference),
            )

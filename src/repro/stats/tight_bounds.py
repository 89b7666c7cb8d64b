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
is a doubling-then-bisection search, valid because ``max_p f(n, p)`` is
(weakly) decreasing in ``n`` along the search trajectory.

Backends and caching
--------------------
Every entry point accepts ``backend="batch"`` (default) or
``backend="scalar"``:

* ``"batch"`` runs the grid scans through the NumPy kernels in
  :mod:`repro.stats.batch` — the whole worst-case-``p`` grid is evaluated
  as one windowed pmf matrix, and bisection probes short-circuit as soon
  as any grid point already exceeds ``delta`` (sound: the scan only ever
  *adds* candidate maxima, so crossing the threshold early settles the
  comparison the probe asked for).  The grid trajectory (grid points,
  refinement windows, argmax tie-breaks) is the scalar path's up to the
  ``p <-> 1-p`` mirror at level 0 (see :func:`_scan_batch`), so both
  backends return the same sample sizes; the benchmark suite enforces a
  >= 20x speedup at paper-scale parameters.
* ``"scalar"`` is the original pure-Python loop over
  :func:`repro.stats.binomial.binom_cdf`, kept verbatim as the reference
  implementation the batch kernels are cross-checked (and benchmarked)
  against.

Results of :func:`tight_sample_size`, :func:`tight_epsilon` and the batch
worst-case scans are memoized process-wide through
:mod:`repro.stats.cache` — a CI service re-planning the same condition on
every commit hits the cache instead of re-running the search.  Use
:func:`repro.stats.cache.clear_all_caches` for cold-start benchmarks.

A correctness caveat for the epsilon side: the worst-case grid scan is
*not perfectly monotone in epsilon* (the refinement windows travel with
the coarse argmax), so the epsilon-side bisections have a narrow band of
fixed points rather than a single float.  Contracts are therefore stated
as *probe certificates* — the returned epsilon is certified not-exceeding
``delta`` under the worst-case probe while ``tol`` below it is certified
exceeding — never as float equality between code paths; see
:func:`tight_epsilon` (where the caveat bites the warm-start path) and
:func:`tight_epsilon_many`.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.stats.batch import (
    exact_coverage_failure_probability_pairs,
    exact_coverage_failure_probability_vec,
)
from repro.stats.binomial import binom_cdf, binom_sf
from repro.stats.cache import (
    LRUCache,
    memoize,
    register_cache,
    register_manifest_codec,
)
from repro.utils.validation import check_positive, check_positive_int, check_probability

__all__ = [
    "exact_coverage_failure_probability",
    "worst_case_failure_probability",
    "tight_sample_size",
    "tight_epsilon",
    "exceeds_delta_many",
    "tight_epsilon_many",
    "estimate_probe_cost",
    "epsilon_sweep_shards",
    "cached_epsilon_sweep",
    "adopt_epsilon_sweep",
]

_BACKENDS = ("batch", "scalar")


def _check_backend(backend: str) -> str:
    if backend not in _BACKENDS:
        raise InvalidParameterError(
            f"backend must be one of {_BACKENDS}, got {backend!r}"
        )
    return backend


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
    makes its right half a mirror of the left (as in
    :func:`_level0_values`) that can never win a first-strict-improvement
    argmax, so only the left half is evaluated.  The maximum agrees with
    the scalar scan's to rounding; the argmax may be its mirror image.
    When ``stop_above`` is given the scan returns as soon as the running
    maximum exceeds it (refinement only ever raises the maximum, so the
    caller's threshold comparison is already decided).
    """
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
    n: int, epsilon: float, *, grid: int = 512, refine: int = 3, backend: str = "batch"
) -> float:
    """``max_p Pr[|hat p - p| > epsilon]`` over the unknown true mean.

    Scans an initial uniform grid over ``[0, 1]`` and then refines around
    the best cell ``refine`` times.  With ``grid=512`` the result is exact
    to well below the tolerance at which it is consumed (the outer search
    only needs to compare against ``delta``).  The batch backend is
    memoized per ``(n, epsilon, grid, refine)``.
    """
    n = check_positive_int(n, "n")
    check_positive(epsilon, "epsilon")
    if _check_backend(backend) == "scalar":
        return _scan_scalar(n, epsilon, grid, refine)[0]
    return _worst_case_cached(n, epsilon, grid, refine)[0]


@memoize("stats.tight_bounds.exceeds_delta", maxsize=16384)
def _exceeds_delta_batch(
    n: int, epsilon: float, delta: float, grid: int, refine: int
) -> bool:
    """Does ``max_p f(n, p)`` exceed ``delta``?  (Early-exit batch scan.)"""
    best_f, _ = _scan_batch(n, epsilon, grid, refine, stop_above=delta)
    return best_f > delta


# ---------------------------------------------------------------------------
# Outer searches
# ---------------------------------------------------------------------------

@memoize("stats.tight_bounds.tight_sample_size", maxsize=4096)
def _tight_sample_size_cached(
    epsilon: float,
    delta: float,
    grid: int,
    refine: int,
    backend: str,
    hint: int,
) -> int:
    if backend == "scalar":
        def exceeds(n: int) -> bool:
            return _scan_scalar(n, epsilon, grid, refine)[0] > delta
    else:
        def exceeds(n: int) -> bool:
            return _exceeds_delta_batch(n, epsilon, delta, grid, refine)

    hi = hint
    # Ensure hi is feasible (it should be, Hoeffding dominates); expand if not.
    while exceeds(hi):
        hi *= 2
        if hi > 1 << 34:  # pragma: no cover - defensive
            raise InvalidParameterError("tight_sample_size search diverged")
    lo = 1
    # Bisection: worst-case failure is monotone (weakly) decreasing in n on
    # the scales of interest; the final verification step guards against the
    # small non-monotonic ripples of the discrete distribution.
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


def tight_sample_size(
    epsilon: float,
    delta: float,
    *,
    grid: int = 256,
    refine: int = 2,
    n_hint: int | None = None,
    backend: str = "batch",
) -> int:
    """Minimal ``n`` with worst-case coverage failure at most ``delta``.

    This is the Section 4.3 "tight numerical bound" for a single Bernoulli
    mean.  It is never larger than the two-sided Hoeffding sample size (the
    test suite asserts this), and is typically 10–40% smaller.

    Parameters
    ----------
    epsilon, delta:
        Tolerance and failure probability of the guarantee.
    grid, refine:
        Resolution of the inner worst-case-``p`` search.
    n_hint:
        Optional starting point for the search (e.g. the Hoeffding size);
        when omitted, the two-sided Hoeffding size is used as the upper
        anchor.  The hint only seeds the search — the returned minimum is
        independent of it, so cached results ignore it.
    backend:
        ``"batch"`` (vectorized, memoized; the default) or ``"scalar"``
        (the pure-Python reference).  Both return the same ``n``.
    """
    check_positive(epsilon, "epsilon")
    check_probability(delta, "delta")
    _check_backend(backend)
    if epsilon >= 1.0:
        return 1
    hoeffding_n = int(math.ceil(math.log(2.0 / delta) / (2.0 * epsilon * epsilon)))
    hint = max(1, n_hint or hoeffding_n)
    if n_hint is None or n_hint == hoeffding_n:
        # The common, hint-free call: one shared cache entry.
        return _tight_sample_size_cached(
            epsilon, delta, grid, refine, backend, max(1, hoeffding_n)
        )
    # A custom hint changes the probe trajectory but not the answer; bypass
    # the memo (still benefiting from the per-probe caches) so the cache
    # never depends on hints.
    return _tight_sample_size_cached.__wrapped__(
        epsilon, delta, grid, refine, backend, hint
    )


# Per-(delta, tol, grid, refine) anchors: the most recent tight-epsilon
# results by n, reused to warm-start the bisection bracket of *nearby*
# testset sizes.  Entries never warm-start their own n (the memo above
# already covers exact repeats, and backend cross-checks must stay
# independent computations).
_EPSILON_ANCHORS = register_cache(
    "stats.tight_bounds.epsilon_anchors", LRUCache(maxsize=256)
)
_ANCHORS_PER_KEY = 64


def _nearest_anchor(n: int, key: tuple) -> float | None:
    entries = _EPSILON_ANCHORS.get(key)
    if not entries:
        return None
    best_eps, best_dist = None, None
    log_n = math.log(n)
    for anchor_n, anchor_eps in entries:
        if anchor_n == n:
            continue
        dist = abs(math.log(anchor_n) - log_n)
        if best_dist is None or dist < best_dist:
            best_dist, best_eps = dist, anchor_eps
    return best_eps


def _record_anchor(n: int, eps: float, key: tuple) -> None:
    entries = _EPSILON_ANCHORS.get(key) or ()
    entries = tuple(e for e in entries if e[0] != n) + ((n, eps),)
    _EPSILON_ANCHORS.put(key, entries[-_ANCHORS_PER_KEY:])


def _export_epsilon_anchors():
    """Manifest codec export: anchor entries per reliability-spec key."""
    return _EPSILON_ANCHORS.items()


def _merge_epsilon_anchors(entries) -> None:
    """Manifest codec merge: union anchors per key (min epsilon on ties).

    Anchors are advisory warm-start hints, so union semantics beat the
    default pick-one rule: two workers sweeping disjoint size ranges both
    contribute.  The union keeps, per ``n``, the smallest epsilon seen
    (a commutative, idempotent join) and caps at the ``_ANCHORS_PER_KEY``
    largest sizes; a merge that changes nothing leaves the cache
    untouched.
    """
    for key, incoming in entries:
        existing = _EPSILON_ANCHORS.peek(key) or ()
        merged = {int(n): float(eps) for n, eps in existing}
        for n, eps in incoming:
            n, eps = int(n), float(eps)
            merged[n] = min(eps, merged.get(n, eps))
        combined = tuple(sorted(merged.items()))[-_ANCHORS_PER_KEY:]
        if set(combined) != set(existing):
            _EPSILON_ANCHORS.put(key, combined)


register_manifest_codec(
    "stats.tight_bounds.epsilon_anchors",
    _export_epsilon_anchors,
    _merge_epsilon_anchors,
)


@memoize("stats.tight_bounds.tight_epsilon", maxsize=4096)
def _tight_epsilon_cached(
    n: int, delta: float, tol: float, grid: int, refine: int, backend: str
) -> float:
    if backend == "scalar":
        def exceeds(eps: float) -> bool:
            return _scan_scalar(n, eps, grid, refine)[0] > delta
    else:
        def exceeds(eps: float) -> bool:
            return _exceeds_delta_batch(n, eps, delta, grid, refine)

    lo, hi = 0.0, 1.0
    anchor = _nearest_anchor(n, (delta, tol, grid, refine))
    if anchor is not None:
        # Warm-start the bracket around the neighbor's epsilon, expanding
        # until both ends are certified by real probes; the bisection
        # invariants (lo exceeds, hi does not) are identical to the cold
        # path, so the warm result agrees with the cold one within tol.
        warm_hi = min(1.0, 1.25 * anchor)
        while warm_hi < 1.0 and exceeds(warm_hi):
            warm_hi = min(1.0, 2.0 * warm_hi)
        warm_lo = 0.8 * anchor
        while warm_lo > tol and not exceeds(warm_lo):
            warm_lo /= 2.0
        if warm_lo <= tol:
            warm_lo = 0.0
        lo, hi = warm_lo, warm_hi
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if not exceeds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def tight_epsilon(
    n: int,
    delta: float,
    *,
    tol: float = 1e-6,
    grid: int = 256,
    refine: int = 2,
    backend: str = "batch",
) -> float:
    """Smallest tolerance guaranteed by ``n`` samples at failure prob ``delta``.

    Bisection on ``epsilon``; the failure probability is decreasing in
    ``epsilon``.  Memoized per ``(n, delta, tol, grid, refine, backend)``.

    The bisection bracket is warm-started from the nearest previously
    computed ``(n', delta)`` anchor (shared across backends and with
    :func:`tight_epsilon_many`): the neighbor's epsilon seeds a narrow
    bracket whose ends are certified by real probes before bisecting, so
    a planning service sweeping related testset sizes pays roughly a
    third fewer worst-case scans per size.  Warm-started results satisfy
    the same bracket certificate as cold ones — the returned epsilon does
    not exceed ``delta`` under the worst-case probe while ``tol`` below
    it does — but because the probe is not perfectly monotone in epsilon
    (refinement windows move with the coarse argmax), bisections from
    different brackets can land on different points of the narrow
    crossing band; the first result computed in a process is memoized and
    returned for every subsequent identical call.  Exact repeats never
    re-enter the warm-start path, and a same-``n`` anchor never seeds its
    own bracket, so scalar/batch backend cross-checks remain independent
    computations.
    """
    n = check_positive_int(n, "n")
    check_probability(delta, "delta")
    _check_backend(backend)
    eps = _tight_epsilon_cached(n, delta, tol, grid, refine, backend)
    _record_anchor(n, eps, (delta, tol, grid, refine))
    return eps


# ---------------------------------------------------------------------------
# Multi-n probe API and the batched epsilon planner
# ---------------------------------------------------------------------------

# Probe-grade windows for the epsilon-side machinery: the omitted tail
# mass is ~exp(-sigmas^2/2) (1.5e-8 at 6 sigma, 4e-11 at 7), always an
# *under*-estimate — so exceedance certificates stay sound — and far below
# the delta-scale slack every threshold comparison here enjoys.  Advisory
# probes (bracket positioning) use the cheap grade; the certification
# probes that pin the returned epsilon use the near-reference grade.
_ADVISORY_SIGMAS, _ADVISORY_SLACK = 6.0, 24
_VERIFY_SIGMAS, _VERIFY_SLACK = 6.5, 28


def _pairs_f(ns, ps, epsilons, sigmas=None, slack=None):
    return exact_coverage_failure_probability_pairs(
        ns, ps, epsilons, window_sigmas=sigmas, window_slack=slack
    )


def _level0_values(ns, epsilons, offsets, grid, sigmas, slack) -> np.ndarray:
    """Level-0 grid values over ``[0, 1]`` for each probe, one dispatch.

    Exploits the exact binomial symmetry ``f(n, p, eps) = f(n, 1-p, eps)``:
    only the left half of the (symmetric) level-0 lattice is evaluated and
    the right half is mirrored, halving the widest dispatch of every scan.
    """
    count = len(ns)
    step = 1.0 / grid
    if grid % 2:
        points = np.broadcast_to(offsets * step, (count, grid + 1))
        return _pairs_f(
            np.repeat(ns, grid + 1),
            points.ravel(),
            np.repeat(epsilons, grid + 1),
            sigmas,
            slack,
        ).reshape(count, grid + 1)
    half = grid // 2
    points = np.broadcast_to(offsets[: half + 1] * step, (count, half + 1))
    left = _pairs_f(
        np.repeat(ns, half + 1),
        points.ravel(),
        np.repeat(epsilons, half + 1),
        sigmas,
        slack,
    ).reshape(count, half + 1)
    return np.concatenate([left, left[:, :half][:, ::-1]], axis=1)


def exceeds_delta_many(
    ns,
    epsilons,
    delta: float,
    *,
    grid: int = 256,
    refine: int = 2,
    window_sigmas: float | None = None,
    window_slack: int | None = None,
) -> np.ndarray:
    """Vectorized ``max_p f(n_i, p, eps_i) > delta`` for a vector of probes.

    The multi-``n`` counterpart of the per-call worst-case probe: every
    ``(n_i, eps_i)`` pair runs the *same* grid-scan trajectory as the
    scalar/batch backends (identical grids, refinement windows and
    first-strict-improvement tie-breaks), but all probes advance in
    lockstep and each refinement level is one
    :func:`~repro.stats.batch.exact_coverage_failure_probability_pairs`
    dispatch across every still-undecided probe.  Probes whose running
    maximum already exceeds ``delta`` drop out early (refinement only
    raises the maximum).

    This is the kernel behind :func:`tight_epsilon_many` and the building
    block for sharded planning services that probe many testset sizes per
    request.
    """
    ns = np.atleast_1d(np.asarray(ns)).astype(np.int64)
    eps = np.atleast_1d(np.asarray(epsilons, dtype=np.float64))
    ns, eps = np.broadcast_arrays(ns, eps)
    ns = ns.copy()
    eps = eps.copy()
    if ns.size == 0:
        return np.zeros(0, dtype=bool)
    if np.any(ns < 1):
        raise InvalidParameterError("ns must contain positive integers")
    if np.any(eps <= 0.0):
        raise InvalidParameterError("epsilons must be positive")
    check_probability(delta, "delta")
    grid = check_positive_int(grid, "grid")
    offsets = np.arange(grid + 1, dtype=np.float64)

    count = len(ns)
    lo = np.zeros(count)
    hi = np.ones(count)
    best_p = np.full(count, 0.5)
    best_f = np.zeros(count)
    undecided = np.ones(count, dtype=bool)
    for level in range(refine + 1):
        active = np.flatnonzero(undecided)
        if not len(active):
            break
        step = (hi[active] - lo[active]) / grid
        points = lo[active][:, None] + offsets[None, :] * step[:, None]
        if level == 0:
            values = _level0_values(
                ns[active],
                eps[active],
                offsets,
                grid,
                window_sigmas,
                window_slack,
            )
        else:
            values = _pairs_f(
                np.repeat(ns[active], grid + 1),
                points.ravel(),
                np.repeat(eps[active], grid + 1),
                window_sigmas,
                window_slack,
            ).reshape(len(active), grid + 1)
        arg = np.argmax(values, axis=1)
        rows = np.arange(len(active))
        peak = values[rows, arg]
        improve = peak > best_f[active]
        improved = active[improve]
        best_f[improved] = peak[improve]
        best_p[improved] = points[rows[improve], arg[improve]]
        exceeded = best_f[active] > delta
        undecided[active[exceeded]] = False
        rest = active[~exceeded]
        rest_step = step[~exceeded]
        lo[rest] = np.maximum(0.0, best_p[rest] - 2.0 * rest_step)
        hi[rest] = np.minimum(1.0, best_p[rest] + 2.0 * rest_step)
    return best_f > delta


def _record_scan_anchors(
    ns: np.ndarray,
    epsilons: np.ndarray,
    delta: float,
    grid: int,
    refine: int,
    top_k: int,
) -> np.ndarray:
    """Full trajectory scans (lockstep) returning each probe's top-k ``p``.

    The anchors are the highest-failure-probability points across every
    refinement level — the raw material for the cutoff-tracking witnesses
    of :func:`tight_epsilon_many`.  Shape ``(len(ns), top_k)``.  The
    recording is purely advisory: anchors only position later probes.
    """
    count = len(ns)
    offsets = np.arange(grid + 1, dtype=np.float64)
    lo = np.zeros(count)
    hi = np.ones(count)
    best_p = np.full(count, 0.5)
    best_f = np.zeros(count)
    all_points: list[np.ndarray] = []
    all_values: list[np.ndarray] = []
    for level in range(refine + 1):
        # The recording is advisory, so refinement levels run at half the
        # grid: anchor resolution stays far below the 1/n cutoff-line
        # spacing the tracked witnesses need.
        level_grid = grid if level == 0 else max(64, grid // 2)
        level_offsets = offsets[: level_grid + 1]
        step = (hi - lo) / level_grid
        points = lo[:, None] + level_offsets[None, :] * step[:, None]
        if level == 0:
            values = _level0_values(
                ns,
                epsilons,
                offsets,
                grid,
                _ADVISORY_SIGMAS,
                _ADVISORY_SLACK,
            )
        else:
            values = _pairs_f(
                np.repeat(ns, level_grid + 1),
                points.ravel(),
                np.repeat(epsilons, level_grid + 1),
                _ADVISORY_SIGMAS,
                _ADVISORY_SLACK,
            ).reshape(count, level_grid + 1)
        all_points.append(points)
        all_values.append(values)
        arg = np.argmax(values, axis=1)
        rows = np.arange(count)
        peak = values[rows, arg]
        improve = peak > best_f
        best_f[improve] = peak[improve]
        best_p[improve] = points[rows, arg][improve]
        lo = np.maximum(0.0, best_p - 2.0 * step)
        hi = np.minimum(1.0, best_p + 2.0 * step)
    points = np.hstack(all_points)
    values = np.hstack(all_values)
    order = np.argsort(-values, axis=1)[:, :top_k]
    return np.take_along_axis(points, order, axis=1)


def _tracked_witness_crossing(
    ns: np.ndarray,
    anchors: np.ndarray,
    anchor_eps: np.ndarray,
    center_points: np.ndarray,
    delta: float,
    lo: np.ndarray,
    hi: np.ndarray,
    tol: float,
) -> np.ndarray:
    """Lockstep bisection on the cutoff-tracking witness maximum.

    The worst-case ``p`` rides the cutoff-boundary lines ``p = k/n ± eps``
    (slope ``±1`` in epsilon), so each anchor point contributes three
    moving witnesses: itself and its two translates along those lines.
    The crossing of the witness maximum tracks the true worst-case
    crossing to within a few ``tol`` — good enough to position the
    certification probes.  Translate and anchor witnesses are advisory
    only, but the ``center_points`` are level-0 *lattice* points — an
    exceedance there is a sound certificate for the full trajectory probe
    (the level-0 scan always evaluates them, and the advisory window only
    under-estimates).  Returns ``(crossing, sound_lo)`` where ``sound_lo``
    is the largest epsilon at which a lattice witness certified an
    exceedance (``-inf`` when none did).
    """
    lo = lo.copy()
    hi = hi.copy()
    count, top_k = anchors.shape
    n_center = len(center_points)
    width = n_center + 3 * top_k
    base = np.empty((count, width), dtype=np.float64)
    base[:, :n_center] = center_points[None, :]
    base[:, n_center : n_center + top_k] = anchors
    flat_ns = np.repeat(ns, width)
    sound_lo = np.full(count, -np.inf)
    while True:
        open_idx = np.flatnonzero((hi - lo) > tol)
        if not len(open_idx):
            break
        mids = (lo + hi) / 2.0
        shift = (mids - anchor_eps)[:, None]
        base[:, n_center + top_k : n_center + 2 * top_k] = anchors + shift
        base[:, n_center + 2 * top_k :] = anchors - shift
        points = base[open_idx]
        # Out-of-range translates are parked at the boundary, where the
        # failure probability is exactly zero — never a certificate.
        np.clip(points, 0.0, 1.0, out=points)
        values = _pairs_f(
            flat_ns.reshape(count, width)[open_idx].ravel(),
            points.ravel(),
            np.repeat(mids[open_idx], width),
            _ADVISORY_SIGMAS,
            _ADVISORY_SLACK,
        ).reshape(len(open_idx), width)
        witnessed = np.any(values > delta, axis=1)
        # Tiny guard above delta: the advisory window under-estimates by
        # up to ~1e-14, so a razor-thin exceedance is not certified.
        lattice_certified = np.any(values[:, :n_center] > delta + 1e-12, axis=1)
        certified_idx = open_idx[lattice_certified]
        sound_lo[certified_idx] = np.maximum(
            sound_lo[certified_idx], mids[certified_idx]
        )
        lo[open_idx[witnessed]] = mids[open_idx[witnessed]]
        hi[open_idx[~witnessed]] = mids[open_idx[~witnessed]]
    return hi, sound_lo


_TIGHT_EPSILON_MANY_CACHE = register_cache(
    "stats.tight_bounds.tight_epsilon_many", LRUCache(maxsize=256)
)


def tight_epsilon_many(
    ns,
    delta: float,
    *,
    tol: float = 1e-6,
    grid: int = 256,
    refine: int = 2,
) -> np.ndarray:
    """:func:`tight_epsilon` for a whole vector of testset sizes at once.

    Built for sharded planning services that size many testsets per
    request: instead of ``len(ns)`` independent epsilon bisections (each
    ~20 full worst-case scans), the batched planner runs three lockstep
    phases over all sizes simultaneously —

    1. a normal-approximation seed plus one *recording* trajectory scan
       per size, collecting the top worst-case ``p`` anchors;
    2. a cheap bisection on the cutoff-tracking witness maximum (the
       anchors translated along the ``p = k/n ± eps`` cutoff lines),
       which positions the crossing to within a few ``tol`` using probes
       that cost a few dozen points instead of full scans;
    3. a certification pass with genuine trajectory probes
       (:func:`exceeds_delta_many`): the returned epsilon is certified
       not-exceeding, and a point at most ``tol`` below it is certified
       exceeding — the same bracket contract the scalar bisection
       provides, so every element agrees with scalar/batch
       :func:`tight_epsilon` within ``tol``.

    Results are memoized per ``(ns, delta, tol, grid, refine)`` and each
    element feeds the warm-start anchor registry used by
    :func:`tight_epsilon`.
    """
    ns_arr = _validate_sweep_sizes(ns, delta, tol)
    if ns_arr.size == 0:
        return np.zeros(0, dtype=np.float64)
    cached = _TIGHT_EPSILON_MANY_CACHE.get(
        (tuple(ns_arr.tolist()), delta, tol, grid, refine)
    )
    if cached is not None:
        return cached.copy()
    return _compute_epsilon_sweep(ns_arr, delta, tol, grid, refine)


def _compute_epsilon_sweep(
    ns_arr: np.ndarray,
    delta: float,
    tol: float,
    grid: int,
    refine: int,
) -> np.ndarray:
    """Run and memoize a sweep, *without* probing the cache first.

    Callers (the public function above, the parallel executor's serial
    fallback) own the single recorded cache lookup per logical call, so
    the operator-visible hit/miss counters stay one-to-one with calls.
    ``ns_arr`` must already be validated.
    """
    unique, inverse = np.unique(ns_arr, return_inverse=True)
    eps_unique = _tight_epsilon_many_impl(unique, delta, tol, grid, refine)
    key = (tuple(ns_arr.tolist()), delta, tol, grid, refine)
    return _adopt_sweep(key, unique, inverse, eps_unique)


def _validate_sweep_sizes(ns, delta: float, tol: float) -> np.ndarray:
    ns_arr = np.atleast_1d(np.asarray(ns)).astype(np.int64)
    if ns_arr.ndim != 1:
        raise InvalidParameterError("ns must be one-dimensional")
    if ns_arr.size and np.any(ns_arr < 1):
        raise InvalidParameterError("ns must contain positive integers")
    check_probability(delta, "delta")
    check_positive(tol, "tol")
    return ns_arr


def _adopt_sweep(
    key: tuple, unique: np.ndarray, inverse: np.ndarray, eps_unique: np.ndarray
) -> np.ndarray:
    """Memoize a finished sweep and plant its anchors (the serial tail)."""
    result = eps_unique[inverse]
    anchor_key = key[1:]
    for n, eps in zip(unique.tolist(), eps_unique.tolist()):
        _record_anchor(int(n), float(eps), anchor_key)
    stored = result.copy()
    stored.flags.writeable = False
    _TIGHT_EPSILON_MANY_CACHE.put(key, stored)
    return result


def cached_epsilon_sweep(
    ns,
    delta: float,
    *,
    tol: float = 1e-6,
    grid: int = 256,
    refine: int = 2,
) -> np.ndarray | None:
    """The memoized :func:`tight_epsilon_many` result, or ``None``.

    A pure lookup — never computes — but a *counted* one: it records the
    hit or miss a logical sweep request implies.  The parallel executor
    consults this before paying shard dispatch for a sweep the process
    already owns (and then computes probe-free, so each executor call
    still records exactly one lookup).
    """
    ns_arr = _validate_sweep_sizes(ns, delta, tol)
    if ns_arr.size == 0:
        return np.zeros(0, dtype=np.float64)
    cached = _TIGHT_EPSILON_MANY_CACHE.get(
        (tuple(ns_arr.tolist()), delta, tol, grid, refine)
    )
    return cached.copy() if cached is not None else None


def adopt_epsilon_sweep(
    ns,
    delta: float,
    unique,
    eps_unique,
    *,
    tol: float = 1e-6,
    grid: int = 256,
    refine: int = 2,
) -> np.ndarray:
    """Adopt a sweep computed elsewhere (worker shards) as if run serially.

    ``unique`` must be exactly ``np.unique(ns)`` and ``eps_unique`` its
    per-size epsilons (the concatenation of shard results).  Plants the
    same anchors, memoizes under the same key, and returns the same
    per-request vector the serial :func:`tight_epsilon_many` would —
    element-wise identical because the underlying kernels are
    batch-composition invariant.
    """
    ns_arr = _validate_sweep_sizes(ns, delta, tol)
    unique_arr = np.asarray(unique, dtype=np.int64)
    eps_arr = np.asarray(eps_unique, dtype=np.float64)
    expected, inverse = np.unique(ns_arr, return_inverse=True)
    if not np.array_equal(expected, unique_arr):
        raise InvalidParameterError(
            "adopt_epsilon_sweep: unique does not match np.unique(ns)"
        )
    if eps_arr.shape != unique_arr.shape:
        raise InvalidParameterError(
            "adopt_epsilon_sweep: eps_unique must align with unique"
        )
    key = (tuple(ns_arr.tolist()), delta, tol, grid, refine)
    return _adopt_sweep(key, unique_arr, inverse, eps_arr)


# ---------------------------------------------------------------------------
# Shard planning (the parallel executor's work splitter)
# ---------------------------------------------------------------------------

def estimate_probe_cost(ns, *, grid: int = 256, refine: int = 2) -> np.ndarray:
    """Relative cost estimate of one testset size's share of a sweep.

    The work per probe is dominated by the tail-window pmf matrix —
    ``grid + 1`` candidate means times an ``O(sqrt(n))`` window per
    refinement level — so cost scales as
    ``(refine + 1) * (grid + 1) * sqrt(n)``.  Only the ratios matter:
    the shard planner balances cost *sums* across chunks.
    """
    ns_arr = np.atleast_1d(np.asarray(ns, dtype=np.float64))
    return (refine + 1.0) * (grid + 1.0) * np.sqrt(ns_arr)


def epsilon_sweep_shards(
    ns, shards: int, *, grid: int = 256, refine: int = 2
) -> list[np.ndarray]:
    """Contiguous, cost-balanced partition of the unique testset sizes.

    Returns at most ``shards`` non-empty int64 arrays whose concatenation
    is exactly ``np.unique(ns)``; chunk boundaries are placed so each
    chunk carries a near-equal share of :func:`estimate_probe_cost`.
    Because the planning kernels are batch-composition invariant, each
    shard's lockstep scan is bit-identical to its rows of the full serial
    scan — stitching shard results back together reproduces the serial
    sweep element-wise, whatever the partition.
    """
    if shards < 1:
        raise InvalidParameterError(f"shards must be >= 1, got {shards}")
    unique = np.unique(np.atleast_1d(np.asarray(ns)).astype(np.int64))
    if unique.size == 0:
        return []
    shards = min(int(shards), len(unique))
    cost = estimate_probe_cost(unique, grid=grid, refine=refine)
    cum = np.cumsum(cost)
    targets = cum[-1] * np.arange(1, shards) / shards
    # A size stays in the left chunk while its cumulative cost fits the
    # chunk's target; duplicate or degenerate boundaries collapse to
    # fewer (never empty) shards.
    bounds = np.searchsorted(cum, targets, side="right")
    return [piece for piece in np.split(unique, bounds) if len(piece)]


def _tight_epsilon_many_impl(
    unique: np.ndarray,
    delta: float,
    tol: float,
    grid: int,
    refine: int,
) -> np.ndarray:
    count = len(unique)
    nf = unique.astype(np.float64)
    hoeffding = np.sqrt(math.log(2.0 / delta) / (2.0 * nf))
    upper = np.minimum(1.0, hoeffding)  # certified not-exceeding (Hoeffding)
    # Normal-approximation seed for the recording scans: worst case near
    # p = 1/2, eps ~ z_{1-delta/2} / (2 sqrt(n)).
    z = NormalDist().inv_cdf(1.0 - delta / 2.0)
    seeds = np.minimum(upper * (1.0 - 1e-9), z / (2.0 * np.sqrt(nf)))
    seeds = np.maximum(seeds, np.minimum(0.5, 1.0 / nf))

    anchors = _record_scan_anchors(
        unique, seeds, delta, grid, refine, top_k=8
    )
    step0 = (1.0 - 0.0) / grid
    center = grid // 2
    center_points = np.array(
        [(center + o) * step0 for o in (-2, -1, 0, 1, 2)], dtype=np.float64
    )
    bracket_lo = np.maximum(0.0, seeds - 4096.0 * tol)
    bracket_hi = np.minimum(upper, seeds + 4096.0 * tol)
    bracket_hi = np.maximum(bracket_hi, np.minimum(upper, 2.0 * seeds))
    estimate, sound_lo = _tracked_witness_crossing(
        unique,
        anchors,
        seeds,
        center_points,
        delta,
        bracket_lo,
        bracket_hi,
        tol / 4.0,
    )

    # Certification: find, per n, an epsilon whose trajectory probe is
    # False while tol below it is True.  Sizes whose tracked phase
    # produced a *lattice* exceedance already own a sound lower
    # certificate (however far below the estimate it sits — the certified
    # bisection below closes the bracket in lockstep); the rest probe the
    # expected bracket directly, galloping on the rare misses.
    lo_cert = np.full(count, -1.0)  # certified exceeding (or 0 = by convention)
    hi_cert = np.full(count, -1.0)  # certified not exceeding
    lo_try = np.maximum(estimate - 0.75 * tol, 0.0)
    hi_try = estimate.copy()
    prefilled = np.isfinite(sound_lo) & (sound_lo >= 0.0)
    lo_cert[prefilled] = sound_lo[prefilled]
    gallop = np.full(count, 16.0 * tol)
    for _ in range(64):  # far above any realistic repair depth
        need_lo = lo_cert < 0.0
        need_hi = hi_cert < 0.0
        # By convention epsilon 0 is "exceeding" (the scalar bisection
        # never probes its lower bracket end either).
        trivial = need_lo & (lo_try <= 0.0)
        lo_cert[trivial] = 0.0
        need_lo = lo_cert < 0.0
        if not (np.any(need_lo) or np.any(need_hi)):
            break
        probe_ns = np.concatenate([unique[need_lo], unique[need_hi]])
        probe_eps = np.concatenate([lo_try[need_lo], hi_try[need_hi]])
        exceeded = exceeds_delta_many(
            probe_ns,
            probe_eps,
            delta,
            grid=grid,
            refine=refine,
            window_sigmas=_VERIFY_SIGMAS,
            window_slack=_VERIFY_SLACK,
        )
        lo_half = exceeded[: int(np.sum(need_lo))]
        hi_half = exceeded[int(np.sum(need_lo)):]
        lo_idx = np.flatnonzero(need_lo)
        hi_idx = np.flatnonzero(need_hi)
        # Lower certificates: exceeding probes certify; non-exceeding ones
        # tighten the upper certificate and gallop further down.
        for j, i in enumerate(lo_idx.tolist()):
            if lo_half[j]:
                lo_cert[i] = lo_try[i]
            else:
                hi_cert[i] = min(hi_cert[i], lo_try[i]) if hi_cert[i] >= 0 else lo_try[i]
                lo_try[i] = max(0.0, lo_try[i] - gallop[i])
                gallop[i] *= 4.0
        for j, i in enumerate(hi_idx.tolist()):
            if not hi_half[j]:
                hi_cert[i] = hi_try[i]
            else:
                lo_cert[i] = max(lo_cert[i], hi_try[i])
                hi_try[i] = min(1.0, hi_try[i] + gallop[i])
                gallop[i] *= 4.0
    else:  # pragma: no cover - defensive
        raise InvalidParameterError("tight_epsilon_many certification diverged")

    # Narrow any bracket still wider than tol with certified bisection.
    while True:
        wide = (hi_cert - lo_cert) > tol
        if not np.any(wide):
            break
        mids = (lo_cert + hi_cert) / 2.0
        exceeded = exceeds_delta_many(
            unique[wide],
            mids[wide],
            delta,
            grid=grid,
            refine=refine,
            window_sigmas=_VERIFY_SIGMAS,
            window_slack=_VERIFY_SLACK,
        )
        idx = np.flatnonzero(wide)
        for j, i in enumerate(idx.tolist()):
            if exceeded[j]:
                lo_cert[i] = mids[i]
            else:
                hi_cert[i] = mids[i]
    return hi_cert

"""Vectorized kernels for the exact coverage failure probability.

:mod:`repro.stats.binomial` keeps a scalar interface — one ``(k, n, p)``
triple at a time, full float64 precision via ``math.lgamma``.  The
planning hot path, however, is intrinsically batched: the §4.3 tight
bound scans hundreds of candidate means ``p`` per refinement pass, for a
dozen bisection probes over ``n``, per clause, per plan.  This module
provides NumPy-native kernels for exactly that shape:

* :func:`exact_coverage_failure_probability_vec` — the tight-bound inner
  loop, evaluating ``Pr[|Binomial(n,p)/n - p| > eps]`` for an entire grid
  of ``p`` in one shot.  Each tail is summed over a window of
  ``O(sqrt(n))`` terms around its cutoff (the probability mass outside
  the window is below ~1.5e-14, far under the 1e-10 agreement the tests
  enforce; see ``_WINDOW_SIGMAS``), so a grid scan costs a few blocks
  of ``exp`` calls instead of thousands of Python-level loops.  Every
  call reads one padded ``log C(n, .)`` row, cached per ``n``;
* :func:`coverage_failure_bounds` — certified lower and upper bounds on
  the grid kernel's values at a fraction of its cost: the first few
  terms of each tail window, plus a geometric bound on the rest.  The
  worst-case scan in :mod:`repro.stats.tight_bounds` bounds a whole
  refinement level this way and sends only the points that can still be
  the argmax through the exact kernel, both from one set-up of the
  level's tails (``_GridTails``; a subset taken with ``.take`` sums
  bit-identically to the same points of the whole level).

Both sum their windows in one chunked loop (``_window_sums``) with
fixed-order row reductions.  The grid kernel is cross-checked against
the scalar implementation in ``tests/stats/test_batch.py`` (agreement
to ``<= 1e-10`` including the ``p in {0, 1}`` boundaries), bit for bit
against the unchunked loop written there, and against exact tails
(``mpmath``, ``fractions``) in ``tests/stats/test_accuracy.py``.

These are the *planning-side* kernels; the *serving-side* batching —
evaluating many committed models against one baseline — lives in
:class:`repro.stats.estimation.PairedSampleBatch` and
:meth:`repro.core.evaluation.ConditionEvaluator.evaluate_batch`.  The
process-wide state this module keeps (the log-factorial table and the
per-``n`` log-binomial rows) self-registers in :mod:`repro.stats.cache`,
so :func:`repro.stats.cache.clear_all_caches` covers it.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.stats.cache import LRUCache, register_cache
from repro.utils.validation import check_positive, check_positive_int

__all__ = [
    "log_factorial_table",
    "exact_coverage_failure_probability_vec",
    "coverage_failure_bounds",
]

# Cells of the window loop's work matrix per chunk: without the chunk, a
# large level's whole matrix would raise the planner's peak memory.
_CHUNK_CELLS = 1 << 15

# Tail windows reach 8 standard deviations past the mean plus slack; by
# Bernstein the binomial mass beyond that is < 1.5e-14 for every n (the
# exponent tends to -(8 sigma)^2 / 2 sigma^2 = -32 from below), invisible
# at the 1e-10 tolerance the batch kernels promise.
_WINDOW_SIGMAS = 8.0
_WINDOW_SLACK = 40

# Log-pmf value planted in the padding cells outside [0, n]; exp() of it is
# exactly 0.0, so padded window positions never contribute to a tail sum.
_LOG_ZERO = -1e30


# ---------------------------------------------------------------------------
# Shared log-factorial table
# ---------------------------------------------------------------------------

_TABLE_LOCK = threading.Lock()
_LOG_FACTORIAL = np.zeros(1, dtype=np.float64)  # entry m holds lgamma(m + 1)

# Real serve/grow counters for the table (the hottest shared structure in
# the process): a "hit" is a call the existing table already covered, a
# "miss" is a call that had to grow it.  Surfaced by ``repro ops``.  A
# log-binomial row build is counted by the row cache, not here: it only
# ever grows the table (a miss).
_TABLE_STATS = {"hits": 0, "misses": 0}


def _grown_table(limit: int) -> np.ndarray:
    """The shared table, grown first if it does not reach ``limit``."""
    global _LOG_FACTORIAL
    table = _LOG_FACTORIAL
    if len(table) > limit:
        return table
    with _TABLE_LOCK:
        table = _LOG_FACTORIAL
        if len(table) <= limit:
            _TABLE_STATS["misses"] += 1
            new_size = max(limit + 1, 2 * len(table))
            grown = np.empty(new_size, dtype=np.float64)
            grown[: len(table)] = table
            grown[len(table) :] = np.fromiter(
                map(math.lgamma, range(len(table) + 1, new_size + 1)),
                dtype=np.float64,
                count=new_size - len(table),
            )
            _LOG_FACTORIAL = table = grown
    return table


def log_factorial_table(limit: int) -> np.ndarray:
    """``lgamma(m + 1)`` for ``m = 0 .. limit`` as one shared array.

    Grown geometrically and never shrunk (except via
    :func:`repro.stats.cache.clear_all_caches`, which resets it).  Entries
    are produced by ``math.lgamma`` so that batch log-pmf values match the
    scalar implementation bit for bit.
    """
    limit = check_positive_int(limit + 1, "limit") - 1  # allow limit = 0
    if len(_LOG_FACTORIAL) > limit:
        _TABLE_STATS["hits"] += 1
    return _grown_table(limit)


class _TableResetProxy:
    """Adapter letting the registry clear the log-factorial table."""

    maxsize = 1

    def clear(self) -> None:
        global _LOG_FACTORIAL
        with _TABLE_LOCK:
            _LOG_FACTORIAL = np.zeros(1, dtype=np.float64)
            _TABLE_STATS["hits"] = 0
            _TABLE_STATS["misses"] = 0

    def info(self):
        from repro.stats.cache import CacheInfo

        with _TABLE_LOCK:
            return CacheInfo(
                hits=_TABLE_STATS["hits"],
                misses=_TABLE_STATS["misses"],
                maxsize=1,
                currsize=len(_LOG_FACTORIAL),
            )


register_cache("stats.batch.log_factorial_table", _TableResetProxy())  # type: ignore[arg-type]


# The padded ``log C(n, .)`` rows, per ``n``: a served row is a hit, a
# built one a miss.  A row is reused within one probe's scan (both passes
# of every level); a search almost never revisits an ``n``, so more rows
# only hold memory (half a megabyte each at planning scale).
_LOG_COMB_ROWS = register_cache("stats.batch.log_comb_rows", LRUCache(maxsize=4))


def _row_pad(n: int) -> int:
    """Cells of ``_LOG_ZERO`` padding on each side of a cached row.

    A grid-kernel window is at most ``min(n + 1, ceil(8 * sqrt(n / 4)) +
    slack + 2)`` cells wide (``p * (1 - p) <= 1/4``) and, with empty tails
    clamped to the cutoffs ``-1`` and ``n + 1``, reaches at most one
    window length past either end of ``[0, n]``; the bound pass reads one
    cell further.  The rest of the ``+ 8`` absorbs the rounding of the two
    square roots.
    """
    return min(n + 2, int(math.ceil(4.0 * math.sqrt(n))) + 2 * _WINDOW_SLACK + 8)


def _padded_log_comb_row(n: int) -> np.ndarray:
    """``log C(n, k)`` for ``k = 0 .. n``, padded by ``_row_pad(n)`` cells.

    Cached for the last few ``n``; the row is read-only.
    """
    row = _LOG_COMB_ROWS.get(n)
    if row is not None:
        return row
    table = _grown_table(n)
    pad = _row_pad(n)
    row = np.empty(n + 1 + 2 * pad, dtype=np.float64)
    row[:pad] = _LOG_ZERO
    row[pad + n + 1 :] = _LOG_ZERO
    body = row[pad : pad + n + 1]
    np.subtract(table[n], table[: n + 1], out=body)
    body -= table[n::-1]
    row.flags.writeable = False
    _LOG_COMB_ROWS.put(n, row)
    return row


# ---------------------------------------------------------------------------
# The tight-bound inner loop
# ---------------------------------------------------------------------------

def _window_sums(
    src: np.ndarray,
    starts: np.ndarray,
    logit: np.ndarray,
    const: np.ndarray,
    width: int,
) -> np.ndarray:
    """Row ``r`` sums ``exp(src[starts[r] + j] + logit[r] * j + const[r])``.

    The sum runs over ``j < width``: the inner loop of both coverage
    kernels.  A window is ``width`` *consecutive* cells of ``src`` (one
    contiguous float64 row), so each chunk's gather is one C-level copy
    of sliding-window rows, which the loop then updates, exponentiates
    and reduces in place.
    """
    # The sliding-window view of ``src``, built directly: a tenth of the
    # cost of ``sliding_window_view`` at the sizes the scans dispatch.
    step = src.strides[0]
    windows = np.ndarray((len(src) - width + 1, width), src.dtype, src, 0, (step, step))
    offsets = np.arange(width, dtype=np.float64)
    sums = np.empty(len(starts), dtype=np.float64)
    chunk = max(1, _CHUNK_CELLS // width)
    for begin in range(0, len(starts), chunk):
        sl = slice(begin, begin + chunk)
        work = windows[starts[sl]]  # a fresh copy
        work += logit[sl, None] * offsets
        work += const[sl, None]
        np.exp(work, out=work)
        # Per-row pairwise reduction (not a BLAS matvec): the summation
        # order depends only on the row width, keeping each element's
        # value batch-composition invariant.
        sums[sl] = np.add.reduce(work, axis=1)
        # Freed before the next chunk's gather: with two chunks live,
        # cold-plan's peak RSS measured 0.2-0.3 MB higher.
        del work
    return sums


class _GridTails:
    """Interior grid points and the set-up of their two tail windows.

    Array-like as its points, so a prepared grid can stand in for
    ``p_grid`` in :func:`exact_coverage_failure_probability_vec`: the
    worst-case scan sets up each refinement level once and hands the
    bound pass and the exact pass the same cutoffs and window length.
    """

    __slots__ = ("p", "lo_cut", "hi_cut", "logit", "log1mp", "length")

    def __init__(self, p, lo_cut, hi_cut, logit, log1mp, length):
        self.p = p  # the points, all in (0, 1)
        self.lo_cut = lo_cut  # last k of each lower tail (-1 when empty)
        self.hi_cut = hi_cut  # first k of each upper tail (n + 1 when empty)
        self.logit = logit
        self.log1mp = log1mp
        self.length = length  # the kernel's window length, common to every row

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.p, dtype=dtype)

    def take(self, rows) -> "_GridTails":
        """The tails of the points ``rows``, at the same window length."""
        return _GridTails(
            self.p[rows],
            self.lo_cut[rows],
            self.hi_cut[rows],
            self.logit[rows],
            self.log1mp[rows],
            self.length,
        )


def _window_length(n: int, variance: float, epsilon: float) -> int:
    """The grid kernel's window length for the largest ``p (1 - p)``.

    The cut sits ~ ``epsilon * n`` draws from the mean already, so the
    window only needs to cover the remaining distance out to
    ``_WINDOW_SIGMAS`` sigma + slack (and never more than the full
    support).  Non-decreasing in ``variance``.
    """
    depth = int(math.ceil(_WINDOW_SIGMAS * math.sqrt(n * variance))) + _WINDOW_SLACK
    return int(min(n + 1, max(_WINDOW_SLACK, depth - math.floor(epsilon * n) + 2)))


def _grid_tails(n: int, pi: np.ndarray, epsilon: float, variance: float) -> _GridTails:
    """The tail windows of the interior points ``pi`` (no validation).

    Empty tails have their cutoff clamped to ``-1`` or ``n + 1``, so their
    windows lie wholly in the row padding and still sum to exactly zero.
    ``variance`` sets the window length; it must be at least the largest
    ``p (1 - p)`` of ``pi``.
    """
    # Identical cutoff arithmetic to the scalar implementation.
    lo_cut = (np.ceil(n * (pi - epsilon) - 1e-12) - 1).astype(np.int64)
    hi_cut = (np.floor(n * (pi + epsilon) + 1e-12) + 1).astype(np.int64)
    np.maximum(lo_cut, -1, out=lo_cut)
    np.minimum(hi_cut, n + 1, out=hi_cut)
    log1mp = np.log1p(-pi)
    logit = np.log(pi) - log1mp
    length = _window_length(n, variance, epsilon)
    return _GridTails(pi, lo_cut, hi_cut, logit, log1mp, length)


def _checked_grid(n, p_grid, epsilon: float) -> tuple[int, np.ndarray, np.ndarray]:
    """Validated ``(n, p, interior mask)`` of a public kernel call."""
    n = check_positive_int(n, "n")
    check_positive(epsilon, "epsilon")
    p = np.atleast_1d(np.asarray(p_grid, dtype=np.float64))
    # NaN fails both comparisons.
    if len(p) and not (p.min() >= 0.0 and p.max() <= 1.0):
        raise InvalidParameterError("p_grid must lie in [0, 1]")
    return n, p, (p > 0.0) & (p < 1.0)


def _max_variance(pi: np.ndarray) -> float:
    return float(np.max(pi * (1.0 - pi))) if len(pi) else 0.0


def _tail_windows(n: int, t: _GridTails, width: int):
    """``(starts, logit2, const)`` of ``width``-cell windows, both tails.

    Rows are the lower tails, then the upper tails; each window is
    anchored at its cutoff (a lower window *ends* at ``lo_cut``, an upper
    window *starts* at ``hi_cut``).  ``starts`` are k-space positions.
    """
    starts = np.concatenate([t.lo_cut - (width - 1), t.hi_cut])
    logit2 = np.concatenate([t.logit, t.logit])
    const = logit2 * starts + n * np.concatenate([t.log1mp, t.log1mp])
    return starts, logit2, const


def _exact_sums(n: int, t: _GridTails) -> np.ndarray:
    """The grid kernel's values at the points of ``t``."""
    starts, logit2, const = _tail_windows(n, t, t.length)
    # The pad is sized so every start index lands inside the row.
    sums = _window_sums(
        _padded_log_comb_row(n), starts + _row_pad(n), logit2, const, t.length
    )
    m = len(t.p)
    return np.minimum(1.0, sums[:m] + sums[m:])


def exact_coverage_failure_probability_vec(
    n: int, p_grid, epsilon: float
) -> np.ndarray:
    """Exact ``Pr[|Binomial(n, p)/n - p| > epsilon]`` for a vector of ``p``.

    The batch counterpart of
    :func:`repro.stats.tight_bounds.exact_coverage_failure_probability`,
    evaluating an entire worst-case-``p`` grid in one shot.  Cutoffs use
    the same guarded arithmetic as the scalar code.

    Each tail is summed over a window of terms adjacent to its cutoff.
    The window is sized so it reaches at least ``_WINDOW_SIGMAS`` standard
    deviations (plus slack) past the mean on the tail's side, where the
    remaining binomial mass is below ~1.5e-14 by Bernstein — far under
    the 1e-10 agreement the tests enforce.  The per-term log-pmf
    separates as
    ``log C(n,k) + k*logit(p) + n*log(1-p)``, so every tail is a window of
    one shared, padded ``log C(n, .)`` row (cached per ``n``) plus an
    affine term, summed by the chunked window loop with
    fixed-order per-row reductions and no per-element Python work.
    Positions outside ``[0, n]`` hit padding cells whose ``exp`` is
    exactly zero.

    The window length follows the largest ``p * (1 - p)`` on the grid.
    ``p_grid`` may also be a grid the worst-case scan already validated
    and set up (``_GridTails``); its windows are summed as they are, so a
    subset taken from a level with ``.take`` gets values bit-identical to
    the whole level's.
    """
    if isinstance(p_grid, _GridTails):
        return _exact_sums(n, p_grid)
    n, p, interior = _checked_grid(n, p_grid, epsilon)
    out = np.zeros(p.shape, dtype=np.float64)
    pi = p[interior]
    if len(pi):
        out[interior] = _exact_sums(n, _grid_tails(n, pi, epsilon, _max_variance(pi)))
    return out


def _bound_sums(n: int, t: _GridTails, terms: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`coverage_failure_bounds` at the points of ``t``."""
    m = len(t.p)
    width = min(terms, t.length)
    row, pad = _padded_log_comb_row(n), _row_pad(n)
    starts, logit2, const = _tail_windows(n, t, width)
    partial = _window_sums(row, starts + pad, logit2, const, width)

    # The first term each partial window leaves out sits at offset -1 of
    # a lower window and ``width`` of an upper one.  Outside [0, n] it
    # reads a padding cell, so its exp, and the rest of that tail, is 0.
    offset = np.empty(2 * m, dtype=np.float64)
    offset[:m] = -1.0
    offset[m:] = width
    k = starts + offset
    first = np.exp(row[k.astype(np.int64) + pad] + logit2 * offset + const)
    # Ratio of the next term to that one: k q / ((n - k + 1) p) going
    # down, (n - k) p / ((k + 1) q) going up.  Past the window 1 - ratio
    # stays above about 2/sqrt(n), so rounding it moves the bound far
    # less than the scan's margin.
    ratio = np.empty(2 * m, dtype=np.float64)
    np.divide(k[:m], n + 1.0 - k[:m], out=ratio[:m])
    np.divide(n - k[m:], k[m:] + 1.0, out=ratio[m:])
    logit2[:m] *= -1.0
    # Odds past e^700 (p below ~1e-304) only make the ratio huge; capping
    # them keeps exp finite and 0 * odds at 0 where a tail ends.
    np.minimum(logit2, 700.0, out=logit2)
    ratio *= np.exp(logit2)
    gap = 1.0 - ratio
    rest = first / np.where(gap > 0.0, gap, 1.0)
    rest[gap <= 0.0] = np.inf
    lower = np.minimum(1.0, partial[:m] + partial[m:])
    upper = np.minimum(1.0, (partial[:m] + rest[:m]) + (partial[m:] + rest[m:]))
    return lower, upper


def coverage_failure_bounds(
    n: int, p_grid, epsilon: float, terms: int
) -> tuple[np.ndarray, np.ndarray]:
    """Certified ``(lower, upper)`` bounds on the grid kernel's values.

    ``lower`` sums the first ``min(terms, window)`` terms of each tail
    window next to its cutoff, through the same window loop; those terms
    are a subset of the kernel's window, so ``lower`` is at most the
    kernel's value up to rounding.  ``upper`` adds a geometric bound on
    the rest of each tail: past the cutoff the ratio of successive terms,
    ``b(k+1)/b(k) = (n-k)p / ((k+1)(1-p))`` for the upper tail (mirrored
    for the lower one), only falls, so the terms from the first omitted
    one ``b(k)`` on sum to at most ``b(k) / (1 - ratio(k))`` — or
    infinity when that ratio is not below one.  ``upper`` bounds the
    exact tails, and the kernel's windows only ever cut them shorter, so
    it also bounds the kernel's value up to rounding.  Both are clamped
    at 1 as the kernel clamps; ``p`` in ``{0, 1}`` gets ``(0, 0)``.
    """
    terms = check_positive_int(terms, "terms")
    n, p, interior = _checked_grid(n, p_grid, epsilon)
    lower = np.zeros(p.shape, dtype=np.float64)
    upper = np.zeros(p.shape, dtype=np.float64)
    pi = p[interior]
    if len(pi):
        tails = _grid_tails(n, pi, epsilon, _max_variance(pi))
        lower[interior], upper[interior] = _bound_sums(n, tails, terms)
    return lower, upper

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
  level's tails;
* :func:`exact_coverage_failure_probability_pairs` — the heterogeneous
  counterpart over element-wise ``(n, p, epsilon)`` triples.  The
  per-``n`` padded log-binomial rows are concatenated into one array and
  every tail window gathers from it, whatever its ``n``.  No plan calls
  it: it is the oracle the grid kernel is tested against (its
  ``impl="reference"`` loop) and the yardstick of the fused loop's
  bandwidth benchmark.

All three sum their windows in one cache-blocked fused loop with
fixed-order row reductions.  Both kernels are cross-checked against the
scalar implementation in ``tests/stats/test_batch.py`` (agreement to
``<= 1e-10`` including the ``p in {0, 1}`` boundaries).

These are the *planning-side* kernels; the *serving-side* batching —
evaluating many committed models against one baseline — lives in
:class:`repro.stats.estimation.PairedSampleBatch` and
:meth:`repro.core.evaluation.ConditionEvaluator.evaluate_batch`.  The
process-wide state this module keeps (the log-factorial table and the
per-``n`` log-binomial rows, the pairs-kernel segment layout)
self-registers in :mod:`repro.stats.cache`, so
:func:`repro.stats.cache.clear_all_caches` covers it.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.stats.cache import register_cache
from repro.utils.validation import check_positive, check_positive_int

__all__ = [
    "log_factorial_table",
    "exact_coverage_failure_probability_vec",
    "coverage_failure_bounds",
    "exact_coverage_failure_probability_pairs",
]

# How many rows x columns the reference pairs loop's work matrix may hold
# before it chunks.
_MAX_MATRIX_CELLS = 4_000_000

# Inner-loop implementations of the pairs kernel.  "fused" (default)
# streams gather + affine + exp + reduce over L2-sized blocks;
# "reference" materializes the full (rows, window) intermediate per
# chunk (the pre-fusion baseline, kept as the benchmark yardstick and
# oracle).
_PAIRS_IMPLS = ("fused", "reference")

# Cache-block size (in cells) of the fused loop: the float64 work buffer
# plus its temporary stay within a typical L2 slice.
_FUSED_BLOCK_CELLS = 1 << 15

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
# "miss" is a call that had to grow it.  Surfaced by ``repro ops``.
_TABLE_STATS = {"hits": 0, "misses": 0}



def log_factorial_table(limit: int) -> np.ndarray:
    """``lgamma(m + 1)`` for ``m = 0 .. limit`` as one shared array.

    Grown geometrically and never shrunk (except via
    :func:`repro.stats.cache.clear_all_caches`, which resets it).  Entries
    are produced by ``math.lgamma`` so that batch log-pmf values match the
    scalar implementation bit for bit.
    """
    global _LOG_FACTORIAL
    limit = check_positive_int(limit + 1, "limit") - 1  # allow limit = 0
    table = _LOG_FACTORIAL
    if len(table) <= limit:
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
            else:
                _TABLE_STATS["hits"] += 1
    else:
        _TABLE_STATS["hits"] += 1
    return table


class _TableResetProxy:
    """Adapter letting the registry clear the log-factorial table."""

    maxsize = 1

    def clear(self) -> None:
        global _LOG_FACTORIAL
        with _TABLE_LOCK:
            _LOG_FACTORIAL = np.zeros(1, dtype=np.float64)
            _LOG_COMB_CACHE.clear()
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


_LOG_COMB_CACHE: OrderedDict[int, np.ndarray] = OrderedDict()
# A row is reused within one probe's scan (both passes of every level);
# a search almost never revisits an ``n``, so more rows only hold memory
# (half a megabyte each at planning scale).
_LOG_COMB_CACHE_SIZE = 4


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
    with _TABLE_LOCK:
        row = _LOG_COMB_CACHE.get(n)
        if row is not None:
            _LOG_COMB_CACHE.move_to_end(n)
            return row
    table = log_factorial_table(n)
    pad = _row_pad(n)
    row = np.empty(n + 1 + 2 * pad, dtype=np.float64)
    row[:pad] = _LOG_ZERO
    row[pad + n + 1 :] = _LOG_ZERO
    body = row[pad : pad + n + 1]
    np.subtract(table[n], table[: n + 1], out=body)
    body -= table[n::-1]
    row.flags.writeable = False
    with _TABLE_LOCK:
        _LOG_COMB_CACHE[n] = row
        while len(_LOG_COMB_CACHE) > _LOG_COMB_CACHE_SIZE:
            _LOG_COMB_CACHE.popitem(last=False)
    return row


# ---------------------------------------------------------------------------
# The tight-bound inner loop
# ---------------------------------------------------------------------------

def _fused_window_sums(
    src: np.ndarray,
    starts: np.ndarray,
    logit: np.ndarray,
    const: np.ndarray,
    width: int,
) -> np.ndarray:
    """Fused gather + affine + exp + row sum over equal-width windows.

    Row ``r`` sums ``exp(src[starts[r] + j] + logit[r] * j + const[r])``
    over ``j < width``: the inner loop of both coverage kernels.  Windows
    stream through in blocks sized to stay inside a typical L2 slice, so
    each block's work matrix is touched while hot instead of
    materializing the full ``(rows, width)`` intermediate.  A window is
    ``width`` *consecutive* cells of ``src``, so each block's gather is
    one C-level copy of sliding-window rows — no index matrix.  Element
    arithmetic and the per-row fixed-order reduction match the pairs
    kernel's reference loop, so the two are bit-identical.  ``src`` must
    be one contiguous float64 row.
    """
    block = max(1, min(len(starts), _FUSED_BLOCK_CELLS // width))
    # The sliding-window view of ``src``, built directly: a tenth of the
    # cost of ``sliding_window_view`` at the sizes the scans dispatch.
    step = src.strides[0]
    windows = np.ndarray((len(src) - width + 1, width), src.dtype, src, 0, (step, step))
    offs_f = np.arange(width, dtype=np.float64)
    work = np.empty((block, width), dtype=np.float64)
    affine = np.empty((block, width), dtype=np.float64)
    sums = np.empty(len(starts), dtype=np.float64)
    for begin in range(0, len(starts), block):
        rows = min(block, len(starts) - begin)
        sl = slice(begin, begin + rows)
        view = work[:rows]
        np.multiply(logit[sl, None], offs_f[None, :], out=affine[:rows])
        # The gathered rows feed the add directly: one copy, not two.
        np.add(windows[starts[sl]], affine[:rows], out=view)
        view += const[sl, None]
        np.exp(view, out=view)
        # Per-row pairwise reduction (not a BLAS matvec): the summation
        # order depends only on the row width, keeping each element's
        # value batch-composition invariant.
        sums[sl] = np.add.reduce(view, axis=1)
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
    sums = _fused_window_sums(
        _padded_log_comb_row(n), starts + _row_pad(n), logit2, const, t.length
    )
    m = len(t.p)
    return np.minimum(1.0, sums[:m] + sums[m:])


def exact_coverage_failure_probability_vec(
    n: int, p_grid, epsilon: float, *, window_variance: float | None = None
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
    affine term: the sums run through the same cache-blocked fused window
    loop as :func:`exact_coverage_failure_probability_pairs`, with
    fixed-order per-row reductions and no per-element Python work.
    Positions outside ``[0, n]`` hit padding cells whose ``exp`` is
    exactly zero.

    The window length follows the largest ``p * (1 - p)`` on the grid.
    ``window_variance`` raises that to at least the given value (at most
    1/4): evaluating a subset of a grid with the whole grid's maximum
    returns values bit-identical to the whole-grid call.  ``p_grid`` may
    also be a grid the worst-case scan already validated and set up
    (``_GridTails``); its windows are summed as they are.
    """
    if isinstance(p_grid, _GridTails):
        return _exact_sums(n, p_grid)
    n, p, interior = _checked_grid(n, p_grid, epsilon)
    pi = p[interior]
    variance = _max_variance(pi)
    if window_variance is not None:
        if not 0.0 <= window_variance <= 0.25:
            raise InvalidParameterError(
                f"window_variance must lie in [0, 1/4], got {window_variance!r}"
            )
        variance = max(variance, window_variance)
    out = np.zeros(p.shape, dtype=np.float64)
    if len(pi):
        out[interior] = _exact_sums(n, _grid_tails(n, pi, epsilon, variance))
    return out


def _bound_sums(n: int, t: _GridTails, terms: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`coverage_failure_bounds` at the points of ``t``."""
    m = len(t.p)
    width = min(terms, t.length)
    row, pad = _padded_log_comb_row(n), _row_pad(n)
    starts, logit2, const = _tail_windows(n, t, width)
    partial = _fused_window_sums(row, starts + pad, logit2, const, width)

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
    window next to its cutoff, through the same fused loop; those terms
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


_PAIRS_LAYOUT_CACHE: OrderedDict[tuple, tuple] = OrderedDict()
_PAIRS_LAYOUT_CACHE_SIZE = 8
_PAIRS_LAYOUT_STATS = {"hits": 0, "misses": 0}


class _PairsLayoutProxy:
    """Adapter letting the registry clear the pairs-kernel layout cache."""

    maxsize = _PAIRS_LAYOUT_CACHE_SIZE

    def clear(self) -> None:
        with _TABLE_LOCK:
            _PAIRS_LAYOUT_CACHE.clear()
            _PAIRS_LAYOUT_STATS["hits"] = 0
            _PAIRS_LAYOUT_STATS["misses"] = 0

    def info(self):
        from repro.stats.cache import CacheInfo

        with _TABLE_LOCK:
            return CacheInfo(
                hits=_PAIRS_LAYOUT_STATS["hits"],
                misses=_PAIRS_LAYOUT_STATS["misses"],
                maxsize=self.maxsize,
                currsize=len(_PAIRS_LAYOUT_CACHE),
            )


register_cache("stats.batch.pairs_layout", _PairsLayoutProxy())  # type: ignore[arg-type]


def _pairs_layout(unique_ns: tuple, pad: int) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated padded log-comb segments for a set of ``n`` (cached).

    Keys are ``(tuple_of_python_ints, int)``; each entry is
    ``(concat, seg_bases)``.
    """
    key = (unique_ns, pad)
    with _TABLE_LOCK:
        entry = _PAIRS_LAYOUT_CACHE.get(key)
        if entry is not None:
            _PAIRS_LAYOUT_CACHE.move_to_end(key)
            _PAIRS_LAYOUT_STATS["hits"] += 1
            return entry
        _PAIRS_LAYOUT_STATS["misses"] += 1
    ns_arr = np.asarray(unique_ns, dtype=np.int64)
    seg_sizes = ns_arr + 1 + 2 * pad
    seg_offsets = np.concatenate([[0], np.cumsum(seg_sizes)[:-1]])
    seg_bases = seg_offsets + pad
    concat = np.full(int(seg_sizes.sum()), _LOG_ZERO)
    for g, nv in enumerate(unique_ns):
        base, row_pad = int(seg_bases[g]), _row_pad(nv)
        row = _padded_log_comb_row(nv)
        concat[base : base + nv + 1] = row[row_pad : row_pad + nv + 1]
    concat.flags.writeable = False
    with _TABLE_LOCK:
        _PAIRS_LAYOUT_CACHE[key] = (concat, seg_bases)
        while len(_PAIRS_LAYOUT_CACHE) > _PAIRS_LAYOUT_CACHE_SIZE:
            _PAIRS_LAYOUT_CACHE.popitem(last=False)
    return concat, seg_bases


def exact_coverage_failure_probability_pairs(
    ns,
    p_values,
    epsilons,
    *,
    impl: str | None = None,
):
    """Element-wise exact ``Pr[|Binomial(n_i, p_i)/n_i - p_i| > eps_i]``.

    The heterogeneous counterpart of
    :func:`exact_coverage_failure_probability_vec`: every element carries
    its own ``(n, p, epsilon)`` triple, and a whole vector costs one
    kernel dispatch regardless of how many distinct ``n`` appear.

    The padded ``log C(n, .)`` rows of every distinct ``n`` are laid out
    in one concatenated array; each element's two tail windows gather from
    its segment at a width quantized onto an absolute power-of-two ladder
    (extra positions beyond the natural depth either fall on padding
    cells whose ``exp`` is exactly zero or pick up real-but-negligible
    terms deeper in the tail, which only *improves* accuracy).  Because
    the ladder is absolute — anchored at ``2 * _WINDOW_SLACK``, never at the
    batch maximum — an element's value is a pure function of its own
    ``(n, p, epsilon)``: **bit-identical however the surrounding batch is
    composed**.  Precision matches the vec kernel: windows reach at least
    ``_WINDOW_SIGMAS`` standard deviations past the mean, bounding the
    omitted mass below ~1.5e-14.

    ``impl`` selects the inner loop: ``"fused"`` (default —
    cache-blocked, fused gather/exp/reduce) or ``"reference"`` (the
    pre-fusion baseline, kept as the benchmark yardstick and oracle).
    The two are bit-identical, and both preserve batch-composition
    invariance.
    """
    impl = "fused" if impl is None else impl
    if impl not in _PAIRS_IMPLS:
        raise InvalidParameterError(
            f"impl must be one of {_PAIRS_IMPLS}, got {impl!r}"
        )
    ns = np.atleast_1d(np.asarray(ns))
    p = np.atleast_1d(np.asarray(p_values, dtype=np.float64))
    eps = np.atleast_1d(np.asarray(epsilons, dtype=np.float64))
    ns, p, eps = np.broadcast_arrays(ns, p, eps)
    ns = ns.astype(np.int64)
    if ns.size == 0:
        return np.zeros(0, dtype=np.float64)
    if np.any(ns < 1):
        raise InvalidParameterError("n must contain positive integers")
    if np.any(eps <= 0.0) or not np.all(np.isfinite(eps)):
        raise InvalidParameterError("epsilon must contain positive finite values")
    if np.any((p < 0.0) | (p > 1.0)) or not np.all(np.isfinite(p)):
        raise InvalidParameterError("p must lie in [0, 1]")
    out = np.zeros(p.shape, dtype=np.float64)
    interior = (p > 0.0) & (p < 1.0)
    if not np.any(interior):
        return out
    ni, pi, ei = ns[interior], p[interior], eps[interior]

    # Identical cutoff arithmetic to the scalar implementation.
    nf = ni.astype(np.float64)
    lo_cut = (np.ceil(nf * (pi - ei) - 1e-12) - 1).astype(np.int64)
    hi_cut = (np.floor(nf * (pi + ei) + 1e-12) + 1).astype(np.int64)
    log1mp = np.log1p(-pi)
    logit = np.log(pi) - log1mp

    # Per-element natural window depth, then quantized onto an *absolute*
    # power-of-two ladder anchored at 2*slack: a row's summation width
    # depends only on its own (n, p, eps) — never on what else happens to
    # share the dispatch — so every value is bit-identical however the
    # batch is split or ordered.
    # Widening a window past its natural depth only adds padding cells
    # (whose ``exp`` is exactly zero) or real-but-negligible deeper-tail
    # terms, so quantization never weakens a row's accuracy guarantee.
    sigma = np.sqrt(nf * pi * (1.0 - pi))
    depth = np.ceil(_WINDOW_SIGMAS * sigma).astype(np.int64) + _WINDOW_SLACK
    natural = np.minimum(
        ni + 1,
        np.maximum(_WINDOW_SLACK, depth - np.floor(ei * nf).astype(np.int64) + 2),
    )
    ladder = [2 * _WINDOW_SLACK]
    while ladder[-1] < int(natural.max()):
        ladder.append(2 * ladder[-1])
    ladder_arr = np.asarray(ladder, dtype=np.int64)
    max_width = int(ladder_arr[-1])

    # One concatenated array of padded log-comb segments, one per unique n.
    # The pad covers the deepest window any element can ask for; it is
    # quantized upward to a power of two so that repeated dispatches over
    # the same ns (slightly different windows) share one cached layout
    # instead of rebuilding the concatenation every call.
    unique_ns, inv = np.unique(ni, return_inverse=True)
    eps_max = np.zeros(len(unique_ns))
    np.maximum.at(eps_max, inv, ei)
    pad_needed = int(max_width + np.ceil(eps_max * unique_ns).max() + 4)
    pad = 1 << (pad_needed - 1).bit_length()
    concat, seg_bases = _pairs_layout(tuple(unique_ns.tolist()), pad)
    base_index = seg_bases[inv]

    # Row layout mirrors the vec kernel: lower tails, then upper tails.
    # A lower-tail window *ends* at lo_cut, an upper-tail window *starts*
    # at hi_cut, so both anchor at their cutoff and extend away from the
    # distribution's bulk only as far as their width.
    m = len(pi)
    logit2 = np.concatenate([logit, logit])
    n2 = np.concatenate([nf, nf])
    log1mp2 = np.concatenate([log1mp, log1mp])
    base2 = np.concatenate([base_index, base_index])
    lo_end = lo_cut  # k of the last cell of each lower window
    hi_start = hi_cut  # k of the first cell of each upper window

    # Bucket rows by their quantized window width: rows far from p = 1/2
    # need far smaller windows than the global maximum, and the work
    # matrix cost is rows x width.  The ladder lookup assigns each row
    # the smallest rung that covers its natural depth.
    natural2 = np.concatenate([natural, natural])
    widths2 = ladder_arr[np.searchsorted(ladder_arr, natural2)]
    sums = np.empty(2 * m, dtype=np.float64)
    for width in np.unique(widths2).tolist():
        in_bucket = np.flatnonzero(widths2 == width)
        lower_rows = in_bucket < m
        # k-space position of each window's first cell.
        first_k = np.where(
            lower_rows, lo_end[in_bucket % m] - (width - 1), hi_start[in_bucket % m]
        )
        bucket_starts = base2[in_bucket] + first_k
        bucket_logit = logit2[in_bucket]
        bucket_const = bucket_logit * first_k + n2[in_bucket] * log1mp2[in_bucket]
        if impl == "reference":
            windows = np.lib.stride_tricks.sliding_window_view(concat, width)
            offsets_in_window = np.arange(width, dtype=np.float64)
            chunk = max(1, _MAX_MATRIX_CELLS // width)
            for begin in range(0, len(in_bucket), chunk):
                sl = slice(begin, begin + chunk)
                work = windows[bucket_starts[sl]]  # fresh copy — safe to mutate
                work += bucket_logit[sl, None] * offsets_in_window[None, :]
                work += bucket_const[sl, None]
                np.exp(work, out=work)
                # Per-row pairwise reduction (not a BLAS matvec): the
                # summation order then depends only on the row width,
                # keeping each element's value batch-composition invariant.
                sums[in_bucket[sl]] = np.add.reduce(work, axis=1)
        else:
            sums[in_bucket] = _fused_window_sums(
                concat, bucket_starts, bucket_logit, bucket_const, width
            )
    out[interior] = np.minimum(1.0, sums[:m] + sums[m:])
    return out


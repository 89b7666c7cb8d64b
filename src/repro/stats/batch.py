"""Vectorized batch counterparts of the exact binomial machinery.

:mod:`repro.stats.binomial` keeps a scalar interface — one ``(k, n, p)``
triple at a time, full float64 precision via ``math.lgamma``.  The
planning hot path, however, is intrinsically batched: the §4.3 tight
bound scans hundreds of candidate means ``p`` per refinement pass, for a
dozen bisection probes over ``n``, per clause, per plan.  This module
provides NumPy-native kernels for exactly those shapes:

* :func:`binom_logpmf_vec` / :func:`binom_pmf_vec` /
  :func:`binom_cdf_vec` / :func:`binom_sf_vec` — broadcasting versions of
  the scalar functions, sharing one process-wide log-factorial table (an
  ``lgamma`` table built with ``math.lgamma`` so the log-pmf values are
  bit-identical to the scalar path);
* :func:`exact_coverage_failure_probability_vec` — the tight-bound inner
  loop, evaluating ``Pr[|Binomial(n,p)/n - p| > eps]`` for an entire grid
  of ``p`` in one shot.  Each tail is summed over a window of
  ``O(sqrt(n))`` terms around its cutoff (the probability mass outside
  the window is below ~1.5e-14, far under the 1e-10 agreement the tests
  enforce; see ``_WINDOW_SIGMAS``), so a grid scan costs a few blocks
  of ``exp`` calls instead of thousands of Python-level loops;
* :func:`exact_coverage_failure_probability_pairs` — the heterogeneous
  counterpart: element-wise ``(n, p, epsilon)`` triples, so a *vector of
  probes with different testset sizes* — the epsilon-side planning
  workload — evaluates in a single kernel dispatch.  The per-``n`` padded
  log-binomial rows are concatenated into one array and every tail window
  gathers from it, whatever its ``n``.  Both kernels sum their windows
  in one cache-blocked fused loop with fixed-order row reductions;
* vectorized exact-confidence counterparts:
  :func:`binomial_tail_inversion_upper_vec` /
  :func:`binomial_tail_inversion_lower_vec` /
  :func:`clopper_pearson_interval_vec` (element-wise bisections run in
  lockstep across the whole batch).

Every kernel is cross-checked against the scalar implementation in
``tests/stats/test_batch.py`` (agreement to ``<= 1e-10`` including the
``p in {0, 1}`` and ``k in {0, n}`` boundaries).

These are the *planning-side* kernels (sizing testsets, sweeping
epsilons); the *serving-side* batching — evaluating many committed models
against one baseline — lives in
:class:`repro.stats.estimation.PairedSampleBatch` and
:meth:`repro.core.evaluation.ConditionEvaluator.evaluate_batch`.  The
process-wide state this module keeps (the log-factorial table, the
pairs-kernel segment layout) self-registers in :mod:`repro.stats.cache`,
so :func:`repro.stats.cache.clear_all_caches` covers it.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.stats.cache import register_cache, register_manifest_codec
from repro.utils.validation import check_positive, check_positive_int

__all__ = [
    "log_factorial_table",
    "binom_logpmf_vec",
    "binom_pmf_vec",
    "binom_cdf_vec",
    "binom_sf_vec",
    "exact_coverage_failure_probability_vec",
    "exact_coverage_failure_probability_pairs",
    "binomial_tail_inversion_upper_vec",
    "binomial_tail_inversion_lower_vec",
    "clopper_pearson_interval_vec",
]

# How many rows x columns a pmf work matrix may hold before we chunk.
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
                for m in range(len(table), new_size):
                    grown[m] = math.lgamma(m + 1.0)
                _LOG_FACTORIAL = table = grown
            else:
                _TABLE_STATS["hits"] += 1
    else:
        _TABLE_STATS["hits"] += 1
    return table


def _ensure_table(limit: int) -> None:
    """Grow the table to cover ``limit`` without touching hit/miss stats.

    The manifest merge path uses this instead of
    :func:`log_factorial_table`: a join of two processes' coverage is not
    a lookup, and counting it would break merge idempotence (merging your
    own export must leave every observable counter unchanged).
    """
    global _LOG_FACTORIAL
    if len(_LOG_FACTORIAL) <= limit:
        with _TABLE_LOCK:
            table = _LOG_FACTORIAL
            if len(table) <= limit:
                new_size = max(limit + 1, 2 * len(table))
                grown = np.empty(new_size, dtype=np.float64)
                grown[: len(table)] = table
                for m in range(len(table), new_size):
                    grown[m] = math.lgamma(m + 1.0)
                _LOG_FACTORIAL = grown


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
_LOG_COMB_CACHE_SIZE = 48


def _log_comb_row(n: int) -> np.ndarray:
    """``log C(n, k)`` for ``k = 0 .. n`` (cached for the last few ``n``)."""
    with _TABLE_LOCK:
        row = _LOG_COMB_CACHE.get(n)
        if row is not None:
            _LOG_COMB_CACHE.move_to_end(n)
            return row
    table = log_factorial_table(n)
    row = table[n] - table[: n + 1] - table[n::-1]
    with _TABLE_LOCK:
        _LOG_COMB_CACHE[n] = row
        while len(_LOG_COMB_CACHE) > _LOG_COMB_CACHE_SIZE:
            _LOG_COMB_CACHE.popitem(last=False)
    return row


# ---------------------------------------------------------------------------
# Validation / broadcasting helpers
# ---------------------------------------------------------------------------

def _broadcast_knp(k, n, p) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    k = np.asarray(k)
    n = np.asarray(n)
    p = np.asarray(p, dtype=np.float64)
    if not np.issubdtype(k.dtype, np.integer):
        kf = np.asarray(k, dtype=np.float64)
        if not np.all(kf == np.floor(kf)):
            raise InvalidParameterError("k must contain integers")
        k = kf.astype(np.int64)
    if not np.issubdtype(n.dtype, np.integer):
        nf = np.asarray(n, dtype=np.float64)
        if not np.all(nf == np.floor(nf)):
            raise InvalidParameterError("n must contain integers")
        n = nf.astype(np.int64)
    k, n, p = np.broadcast_arrays(k, n, p)
    shape = k.shape
    k = np.atleast_1d(k).astype(np.int64).ravel()
    n = np.atleast_1d(n).astype(np.int64).ravel()
    p = np.atleast_1d(p).ravel()
    if np.any(n < 1):
        raise InvalidParameterError("n must contain positive integers")
    if np.any((k < 0) | (k > n)):
        raise InvalidParameterError("k must satisfy 0 <= k <= n")
    if np.any((p < 0.0) | (p > 1.0)) or not np.all(np.isfinite(p)):
        raise InvalidParameterError("p must lie in [0, 1]")
    return k, n, p, shape


def _restore(values: np.ndarray, shape: tuple):
    values = values.reshape(shape)
    if shape == ():
        return float(values)
    return values


# ---------------------------------------------------------------------------
# Elementwise pmf
# ---------------------------------------------------------------------------

def binom_logpmf_vec(k, n, p):
    """Vectorized ``log Pr[Binomial(n, p) = k]`` (broadcasts its arguments).

    Matches :func:`repro.stats.binomial.binom_logpmf` bit for bit on the
    interior and returns ``-inf`` for impossible boundary outcomes.
    """
    k, n, p, shape = _broadcast_knp(k, n, p)
    table = log_factorial_table(int(n.max()) if n.size else 0)
    out = np.full(k.shape, -np.inf, dtype=np.float64)
    interior = (p > 0.0) & (p < 1.0)
    if np.any(interior):
        ki, ni, pi = k[interior], n[interior], p[interior]
        log_comb = table[ni] - table[ki] - table[ni - ki]
        out[interior] = log_comb + ki * np.log(pi) + (ni - ki) * np.log1p(-pi)
    out[(p == 0.0) & (k == 0)] = 0.0
    out[(p == 1.0) & (k == n)] = 0.0
    return _restore(out, shape)


def binom_pmf_vec(k, n, p):
    """Vectorized ``Pr[Binomial(n, p) = k]``."""
    lp = np.asarray(binom_logpmf_vec(k, n, p))
    out = np.where(np.isneginf(lp), 0.0, np.exp(lp))
    return _restore(out, np.shape(lp))


# ---------------------------------------------------------------------------
# CDF / SF over batches
# ---------------------------------------------------------------------------

def _tail_sums_fixed_n(n: int, k: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower (``sum_{0..k}``) and upper (``sum_{k+1..n}``) pmf sums.

    ``p`` must be interior (0 < p < 1).  Each tail is summed directly over
    its own terms (not via ``1 - other``), preserving relative precision
    for tiny tails; rows are chunked so the work matrix stays small.
    """
    log_comb = _log_comb_row(n)
    lower = np.empty(p.shape, dtype=np.float64)
    upper = np.empty(p.shape, dtype=np.float64)
    chunk = max(1, _MAX_MATRIX_CELLS // (n + 1))
    ks = np.arange(n + 1, dtype=np.float64)
    for start in range(0, len(p), chunk):
        sl = slice(start, start + chunk)
        pc, kc = p[sl], k[sl]
        logpmf = (
            log_comb[None, :]
            + ks[None, :] * np.log(pc)[:, None]
            + (n - ks)[None, :] * np.log1p(-pc)[:, None]
        )
        pmf = np.exp(logpmf)
        prefix = np.cumsum(pmf, axis=1)
        suffix = np.cumsum(pmf[:, ::-1], axis=1)[:, ::-1]
        rows = np.arange(len(pc))
        lower[sl] = prefix[rows, kc]
        upper[sl] = np.where(kc < n, suffix[rows, np.minimum(kc + 1, n)], 0.0)
    return lower, upper


def binom_cdf_vec(k, n, p):
    """Vectorized ``Pr[Binomial(n, p) <= k]`` (broadcasts its arguments).

    Mirrors the scalar branch selection: the smaller tail is summed
    directly and the larger obtained by complement, keeping agreement with
    :func:`repro.stats.binomial.binom_cdf` to ``<= 1e-10``.  Designed for
    the moderate ``n`` of planning workloads (work is chunked at a few
    million pmf terms per slab).
    """
    k, n, p, shape = _broadcast_knp(k, n, p)
    out = np.empty(k.shape, dtype=np.float64)
    out[p == 0.0] = 1.0
    out[p == 1.0] = np.where(k[p == 1.0] == n[p == 1.0], 1.0, 0.0)
    interior = (p > 0.0) & (p < 1.0)
    for nv in np.unique(n[interior]) if np.any(interior) else ():
        sel = interior & (n == nv)
        ki, pi = k[sel], p[sel]
        lower, upper = _tail_sums_fixed_n(int(nv), ki, pi)
        mean = nv * pi
        vals = np.where(ki >= mean, np.maximum(0.0, 1.0 - upper), np.minimum(1.0, lower))
        vals = np.where(ki == nv, 1.0, vals)
        out[sel] = vals
    return _restore(np.clip(out, 0.0, 1.0), shape)


def binom_sf_vec(k, n, p):
    """Vectorized survival function ``Pr[Binomial(n, p) > k]``."""
    k, n, p, shape = _broadcast_knp(k, n, p)
    out = np.empty(k.shape, dtype=np.float64)
    out[p == 0.0] = 0.0
    out[p == 1.0] = np.where(k[p == 1.0] == n[p == 1.0], 0.0, 1.0)
    interior = (p > 0.0) & (p < 1.0)
    for nv in np.unique(n[interior]) if np.any(interior) else ():
        sel = interior & (n == nv)
        ki, pi = k[sel], p[sel]
        lower, upper = _tail_sums_fixed_n(int(nv), ki, pi)
        mean = nv * pi
        vals = np.where(ki + 1 <= mean, np.maximum(0.0, 1.0 - lower), np.minimum(1.0, upper))
        vals = np.where(ki == nv, 0.0, vals)
        out[sel] = vals
    return _restore(np.clip(out, 0.0, 1.0), shape)


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
    kernel's reference loop, so the two are bit-identical.
    """
    block = max(1, _FUSED_BLOCK_CELLS // width)
    windows = np.lib.stride_tricks.sliding_window_view(src, width)
    offs_f = np.arange(width, dtype=np.float64)
    work = np.empty((block, width), dtype=np.float64)
    temp = np.empty((block, width), dtype=np.float64)
    sums = np.empty(len(starts), dtype=np.float64)
    for begin in range(0, len(starts), block):
        rows = min(block, len(starts) - begin)
        sl = slice(begin, begin + rows)
        view = work[:rows]
        view[...] = windows[starts[sl]]
        np.multiply(logit[sl, None], offs_f[None, :], out=temp[:rows])
        view += temp[:rows]
        view += const[sl, None]
        np.exp(view, out=view)
        # Per-row pairwise reduction (not a BLAS matvec): the summation
        # order depends only on the row width, keeping each element's
        # value batch-composition invariant.
        sums[sl] = np.add.reduce(view, axis=1)
    return sums


def exact_coverage_failure_probability_vec(n: int, p_grid, epsilon: float) -> np.ndarray:
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
    one shared, padded ``log C(n, .)`` row plus an affine term: the sums
    run through the same cache-blocked fused window loop as
    :func:`exact_coverage_failure_probability_pairs`, with fixed-order
    per-row reductions and no per-element Python work.  Positions outside
    ``[0, n]`` hit padding cells whose ``exp`` is exactly zero.
    """
    n = check_positive_int(n, "n")
    check_positive(epsilon, "epsilon")
    p = np.atleast_1d(np.asarray(p_grid, dtype=np.float64))
    if np.any((p < 0.0) | (p > 1.0)) or not np.all(np.isfinite(p)):
        raise InvalidParameterError("p_grid must lie in [0, 1]")
    out = np.zeros(p.shape, dtype=np.float64)
    interior = (p > 0.0) & (p < 1.0)
    if not np.any(interior):
        return out
    pi = p[interior]
    # Identical cutoff arithmetic to the scalar implementation.
    lo_cut = (np.ceil(n * (pi - epsilon) - 1e-12) - 1).astype(np.int64)
    hi_cut = (np.floor(n * (pi + epsilon) + 1e-12) + 1).astype(np.int64)
    log1mp = np.log1p(-pi)
    logit = np.log(pi) - log1mp

    # Window length: the cut sits ~ epsilon*n draws from the mean already,
    # so the window only needs to cover the remaining distance out to
    # _WINDOW_SIGMAS sigma + slack (and never more than the full support).
    sigma_max = math.sqrt(n * float(np.max(pi * (1.0 - pi))))
    depth = int(math.ceil(_WINDOW_SIGMAS * sigma_max)) + _WINDOW_SLACK
    length = int(min(n + 1, max(_WINDOW_SLACK, depth - math.floor(epsilon * n) + 2)))

    # Pad generously: lower windows can start near -(epsilon*n + length),
    # upper windows can end near n + epsilon*n + length.
    pad = length + int(math.ceil(epsilon * n)) + 2
    padded = np.full(n + 1 + 2 * pad, _LOG_ZERO)
    padded[pad : pad + n + 1] = _log_comb_row(n)

    # Row layout: the lower tails (windows ending at lo_cut), then the
    # upper tails (windows starting at hi_cut).
    starts = np.concatenate([lo_cut - (length - 1), hi_cut])
    logit2 = np.concatenate([logit, logit])
    const = logit2 * starts + n * np.concatenate([log1mp, log1mp])
    # The pad is sized so every start index lands inside `padded`.
    sums = _fused_window_sums(padded, starts + pad, logit2, const, length)
    m = len(pi)
    out[interior] = np.minimum(1.0, sums[:m] + sums[m:])
    return out


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

    Keys are ``(tuple_of_python_ints, int)`` — plain picklable scalars —
    so layout entries travel inside cross-process cache manifests.  Each
    entry is ``(concat, seg_bases)``.
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
        base = int(seg_bases[g])
        concat[base : base + nv + 1] = _log_comb_row(nv)
    concat.flags.writeable = False
    with _TABLE_LOCK:
        _PAIRS_LAYOUT_CACHE[key] = (concat, seg_bases)
        while len(_PAIRS_LAYOUT_CACHE) > _PAIRS_LAYOUT_CACHE_SIZE:
            _PAIRS_LAYOUT_CACHE.popitem(last=False)
    return concat, seg_bases


def _export_pairs_layout() -> list[tuple[tuple, tuple[np.ndarray, np.ndarray]]]:
    """Manifest codec export: the layout entries, LRU order."""
    with _TABLE_LOCK:
        return list(_PAIRS_LAYOUT_CACHE.items())


def _merge_pairs_layout(entries) -> None:
    """Manifest codec merge: adopt layouts absent locally.

    Layout values are pure functions of their ``(ns, pad)`` key (the
    log-comb rows underneath are bit-deterministic), so adopt-if-absent
    is idempotent and commutative — an entry present on both sides is
    already identical.
    """
    for key, value in entries:
        concat, seg_bases = value
        key = (tuple(int(n) for n in key[0]), int(key[1]))
        concat = np.asarray(concat, dtype=np.float64)
        if concat.flags.writeable:
            concat.flags.writeable = False
        seg_bases = np.asarray(seg_bases, dtype=np.int64)
        with _TABLE_LOCK:
            if key not in _PAIRS_LAYOUT_CACHE:
                _PAIRS_LAYOUT_CACHE[key] = (concat, seg_bases)
                while len(_PAIRS_LAYOUT_CACHE) > _PAIRS_LAYOUT_CACHE_SIZE:
                    _PAIRS_LAYOUT_CACHE.popitem(last=False)


def _export_log_factorial() -> int:
    """Manifest codec export: the table's coverage (highest ``m`` covered)."""
    return len(_LOG_FACTORIAL) - 1


def _merge_log_factorial(limit) -> None:
    """Manifest codec merge: grow the table to cover the manifest's limit.

    The table contents are a pure function of the limit (``math.lgamma``
    is deterministic), so growing to the max of both sides is the join.
    """
    limit = int(limit)
    if limit > 0:
        _ensure_table(limit)


register_manifest_codec(
    "stats.batch.pairs_layout", _export_pairs_layout, _merge_pairs_layout
)
register_manifest_codec(
    "stats.batch.log_factorial_table", _export_log_factorial, _merge_log_factorial
)


def exact_coverage_failure_probability_pairs(
    ns,
    p_values,
    epsilons,
    *,
    window_sigmas: float | None = None,
    window_slack: int | None = None,
    impl: str | None = None,
):
    """Element-wise exact ``Pr[|Binomial(n_i, p_i)/n_i - p_i| > eps_i]``.

    The heterogeneous counterpart of
    :func:`exact_coverage_failure_probability_vec`: every element carries
    its own ``(n, p, epsilon)`` triple, so a whole vector of planning
    probes — e.g. one bisection midpoint per testset size — costs one
    kernel dispatch regardless of how many distinct ``n`` appear.

    The padded ``log C(n, .)`` rows of every distinct ``n`` are laid out
    in one concatenated array; each element's two tail windows gather from
    its segment at a width quantized onto an absolute power-of-two ladder
    (extra positions beyond the natural depth either fall on padding
    cells whose ``exp`` is exactly zero or pick up real-but-negligible
    terms deeper in the tail, which only *improves* accuracy).  Because
    the ladder is absolute — anchored at ``2 * slack``, never at the
    batch maximum — an element's value is a pure function of its own
    ``(n, p, epsilon, sigmas, slack)``: **bit-identical however the
    surrounding batch is composed**, which is what lets the parallel
    planning executor shard sweeps across processes without perturbing a
    single probe.  Default precision matches the vec kernel: windows
    reach at least ``_WINDOW_SIGMAS`` standard deviations past the mean,
    bounding the omitted mass below ~1.5e-14.

    ``window_sigmas`` / ``window_slack`` trade accuracy for speed: the
    omitted tail mass is below ``~exp(-window_sigmas**2 / 2)``, and the
    truncation only ever *under*-estimates the failure probability — a
    one-sided error the epsilon-side probe machinery relies on (a
    truncated-window exceedance certificate is sound for the full-window
    value).

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
    sigmas = _WINDOW_SIGMAS if window_sigmas is None else float(window_sigmas)
    slack = _WINDOW_SLACK if window_slack is None else int(window_slack)
    if sigmas <= 0 or slack < 1:
        raise InvalidParameterError("window_sigmas and window_slack must be positive")
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
    # depends only on its own (n, p, eps, sigmas, slack) — never on what
    # else happens to share the dispatch — so every probe value is
    # bit-identical however a planning sweep is batched, chunked, or
    # sharded across worker processes.  Widening a window past its
    # natural depth only adds padding cells (whose ``exp`` is exactly
    # zero) or real-but-negligible deeper-tail terms, so quantization
    # never weakens a row's accuracy guarantee.
    sigma = np.sqrt(nf * pi * (1.0 - pi))
    depth = np.ceil(sigmas * sigma).astype(np.int64) + slack
    natural = np.minimum(
        ni + 1,
        np.maximum(slack, depth - np.floor(ei * nf).astype(np.int64) + 2),
    )
    ladder = [2 * slack]
    while ladder[-1] < int(natural.max()):
        ladder.append(2 * ladder[-1])
    ladder_arr = np.asarray(ladder, dtype=np.int64)
    max_width = int(ladder_arr[-1])

    # One concatenated array of padded log-comb segments, one per unique n.
    # The pad covers the deepest window any element can ask for; it is
    # quantized upward to a power of two so that the many dispatches of a
    # planning sweep (same ns, slightly different windows) share one
    # cached layout instead of rebuilding the concatenation every call.
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


# ---------------------------------------------------------------------------
# Vectorized exact confidence machinery
# ---------------------------------------------------------------------------

def _bisect_vec(k, n, delta, predicate_hi, lo, hi, tol):
    """Lockstep bisection: keep ``lo`` where the predicate holds at mid."""
    # Brackets have width <= 1, so ceil(log2(1/tol)) iterations suffice.
    iterations = max(1, int(math.ceil(math.log2(max(2.0, 1.0 / tol)))))
    for _ in range(iterations):
        if not np.any(hi - lo > tol):
            break
        mid = (lo + hi) / 2.0
        keep = predicate_hi(k, n, mid, delta)
        lo = np.where(keep, mid, lo)
        hi = np.where(keep, hi, mid)
    return lo, hi


def binomial_tail_inversion_upper_vec(k, n, delta, *, tol: float = 1e-12):
    """Vectorized Langford upper bound ``max {p : Pr[Bin(n,p) <= k] >= delta}``.

    Broadcasts ``(k, n, delta)``; agrees with the scalar
    :func:`repro.stats.binomial.binomial_tail_inversion_upper` to the
    bisection tolerance.
    """
    delta_arr = np.asarray(delta, dtype=np.float64)
    if np.any((delta_arr <= 0.0) | (delta_arr >= 1.0)):
        raise InvalidParameterError("delta must lie in (0, 1)")
    k, n, delta_b, shape = _broadcast_knp(k, n, delta_arr)
    lo = k / n
    hi = np.ones_like(lo)
    at_mle = np.asarray(binom_cdf_vec(k, n, lo))
    lo = np.where(np.atleast_1d(at_mle).ravel() < delta_b, 0.0, lo)

    def keep(kk, nn, mid, dd):
        return np.atleast_1d(np.asarray(binom_cdf_vec(kk, nn, mid))).ravel() >= dd

    lo, hi = _bisect_vec(k, n, delta_b, keep, lo, hi, tol)
    out = np.where(k == n, 1.0, lo)
    return _restore(out, shape)


def binomial_tail_inversion_lower_vec(k, n, delta, *, tol: float = 1e-12):
    """Vectorized lower bound ``min {p : Pr[Bin(n,p) >= k] >= delta}``."""
    delta_arr = np.asarray(delta, dtype=np.float64)
    if np.any((delta_arr <= 0.0) | (delta_arr >= 1.0)):
        raise InvalidParameterError("delta must lie in (0, 1)")
    k, n, delta_b, shape = _broadcast_knp(k, n, delta_arr)
    zero = k == 0
    ks = np.maximum(k, 1)  # bisection operand for the non-degenerate rows
    lo = np.zeros(k.shape, dtype=np.float64)
    hi = k / n
    at_mle = np.atleast_1d(np.asarray(binom_sf_vec(ks - 1, n, np.where(zero, 0.5, hi)))).ravel()
    hi = np.where((~zero) & (at_mle < delta_b), 1.0, hi)

    def keep_lo(kk, nn, mid, dd):
        # Mirrored roles: lo advances exactly when the SF predicate fails
        # at mid (hi shrinks onto the smallest p where it still holds).
        return np.atleast_1d(np.asarray(binom_sf_vec(kk - 1, nn, mid))).ravel() < dd

    lo, hi = _bisect_vec(ks, n, delta_b, keep_lo, lo, hi, tol)
    out = np.where(zero, 0.0, hi)
    return _restore(out, shape)


def clopper_pearson_interval_vec(k, n, delta, *, tol: float = 1e-12):
    """Vectorized exact two-sided Clopper–Pearson interval.

    Returns ``(lower, upper)`` arrays; each side inverts its binomial tail
    at level ``delta / 2`` exactly like the scalar
    :func:`repro.stats.binomial.clopper_pearson_interval`.
    """
    delta_arr = np.asarray(delta, dtype=np.float64)
    lower = binomial_tail_inversion_lower_vec(k, n, delta_arr / 2.0, tol=tol)
    upper = binomial_tail_inversion_upper_vec(k, n, delta_arr / 2.0, tol=tol)
    return lower, upper

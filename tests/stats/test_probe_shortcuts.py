"""Decision parity and work of a planning probe's shortcuts.

A bisection probe (``tight_bounds._exceeds_delta_batch``) only asks
whether the scan's maximum exceeds ``delta``.  Two shortcuts answer it
with less work: the level-0 midpoint certificate
(``_midpoint_exceeds``), which settles "exceeds" from the first terms of
one point's tails without a scan, and the scan's last level, which
evaluates exactly only the points whose upper bound can still exceed the
threshold.  Both must give the decision of ``full_grid_scan``, the scan
with every point of every level through the exact kernel.
"""

import math

import numpy as np
import pytest
import scipy.stats

import repro.stats.batch as batch
import repro.stats.tight_bounds as tight_bounds
from repro.stats.cache import clear_all_caches
from tests.stats.test_scan_pruning import full_grid_scan
from tests.stats.test_tight_bounds import PINNED_PLANNING_SIZES

probe = tight_bounds._exceeds_delta_batch.__wrapped__  # no memo


def _cases(seed, count):
    rng = np.random.default_rng([seed, 24])
    for _ in range(count):
        if rng.random() < 0.25:
            # Below 80 the kernel's window is the whole support.
            n = int(rng.integers(1, 80))
        else:
            n = int(round(math.exp(rng.uniform(0.0, math.log(1e5)))))
        epsilon = float(math.exp(rng.uniform(math.log(0.005), math.log(0.6))))
        grid = int(rng.choice((2, 3, 8, 256)))
        refine = int(rng.integers(0, 3))
        yield n, epsilon, grid, refine, rng


@pytest.mark.parametrize("seed", range(8))
def test_probe_decisions_match_the_full_grid(seed):
    # 8 x 260 = 2080 cases, five thresholds each.
    fired = 0
    for n, epsilon, grid, refine, rng in _cases(seed, 260):
        worst = full_grid_scan(n, epsilon, grid, refine)[0]
        thresholds = [float(math.exp(rng.uniform(math.log(1e-12), math.log(0.3))))]
        if worst > 0.0:
            thresholds += [
                worst * (1 + 1e-9), worst * (1 - 1e-9), worst * (1 - 1e-7), worst / 2,
            ]
        for threshold in thresholds:
            exceeds = worst > threshold
            case = (n, epsilon, grid, refine, threshold)
            if tight_bounds._midpoint_exceeds(n, epsilon, threshold, grid):
                fired += 1
                assert exceeds, case
            assert probe(n, epsilon, threshold, grid, refine) == exceeds, case
    # The certificate is not vacuous: it settles many of the sweep's probes.
    assert fired > 200


def test_certificate_at_the_size_cap():
    # grid=2, refine=0 evaluates one interior point, p = 1/2, so the full
    # scan's maximum is the exact f(n, 1/2); scipy gives it without the
    # kernel's 2^24-entry tables.
    n, epsilon = tight_bounds._MAX_N, 3e-4
    lo_cut = math.ceil(n * (0.5 - epsilon) - 1e-12) - 1
    hi_cut = math.floor(n * (0.5 + epsilon) + 1e-12) + 1
    worst = float(
        scipy.stats.binom.cdf(lo_cut, n, 0.5) + scipy.stats.binom.sf(hi_cut - 1, n, 0.5)
    )
    assert 1e-3 < worst < 0.1
    assert tight_bounds._midpoint_exceeds(n, epsilon, worst / 2, 2)
    assert probe(n, epsilon, worst / 2, 2, 0)
    # The first ceil(1/epsilon) terms hold less than the whole tail.
    assert not tight_bounds._midpoint_exceeds(n, epsilon, worst * (1 - 1e-3), 2)


# Work of the 72 pinned searches from cold caches before the shortcuts
# (window-loop cells and calls, and worst-case scans), counted the same way.
UNSHORTENED_CELLS = 65_679_020
UNSHORTENED_CALLS = 2_885
UNSHORTENED_SCANS = 822


def test_pinned_searches_do_less_kernel_work(monkeypatch):
    work = {"cells": 0, "calls": 0, "scans": 0}
    fused = batch._window_sums
    scan = tight_bounds._scan_batch

    def counting_fused(src, starts, logit, const, width):
        work["cells"] += len(starts) * width
        work["calls"] += 1
        return fused(src, starts, logit, const, width)

    def counting_scan(*args, **kwargs):
        work["scans"] += 1
        return scan(*args, **kwargs)

    clear_all_caches()
    monkeypatch.setattr(batch, "_window_sums", counting_fused)
    monkeypatch.setattr(tight_bounds, "_scan_batch", counting_scan)
    for epsilon, delta, size in PINNED_PLANNING_SIZES:
        assert tight_bounds.tight_sample_size(epsilon, delta) == size
    monkeypatch.undo()
    clear_all_caches()
    assert work["cells"] <= 0.70 * UNSHORTENED_CELLS, work
    assert work["calls"] <= 0.80 * UNSHORTENED_CALLS, work
    assert 0 < work["scans"] < UNSHORTENED_SCANS, work

"""Seeded property tests for the grid kernel's batch-composition contract.

Plain stdlib ``random`` drives the generation (no new dependencies); every
trial is wrapped so a failure names its seed — rerun with that seed to
reproduce exactly.

The worst-case scan sets up a refinement level once
(``repro.stats.batch._grid_tails``) and sends only some of its points
through :func:`~repro.stats.batch.exact_coverage_failure_probability_vec`,
taken with ``_GridTails.take``.  It relies on every point's value being a
pure function of its own ``p`` and the level's window length: evaluate a
random level whole, split it at random boundaries, permute it, take its
points one at a time — bit-identical results however the call is
composed.
"""

from __future__ import annotations

import random

import numpy as np

from repro.stats.batch import (
    _grid_tails,
    _max_variance,
    exact_coverage_failure_probability_vec,
)

TRIAL_SEEDS = range(10)


def _seeded(trial, seed: int) -> None:
    """Run ``trial(rng)``; on failure, re-raise with the seed attached."""
    try:
        trial(random.Random(seed))
    except AssertionError as err:
        raise AssertionError(f"[reproduce with seed={seed}] {err}") from err


# ---------------------------------------------------------------------------
# Grid-kernel batch-composition invariance
# ---------------------------------------------------------------------------


def _random_level(rng: random.Random, size: int):
    """``(values, whole)``: a level's ``rows -> values`` and all its values."""
    n = rng.randrange(1, 2000)
    epsilon = rng.uniform(1e-4, 0.5)
    points = np.asarray([rng.uniform(1e-6, 1 - 1e-6) for _ in range(size)])
    tails = _grid_tails(n, points, epsilon, _max_variance(points))

    def values(rows):
        return exact_coverage_failure_probability_vec(n, tails.take(rows), epsilon)

    return values, values(np.arange(size))


def _random_partition(rng: random.Random, size: int) -> list[slice]:
    cuts = sorted(rng.sample(range(1, size), k=min(rng.randrange(1, 6), size - 1)))
    bounds = [0, *cuts, size]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def test_pairs_kernel_is_invariant_under_batch_splits():
    def trial(rng: random.Random) -> None:
        size = rng.randrange(8, 64)
        values, whole = _random_level(rng, size)
        chunked = np.concatenate(
            [values(np.arange(size)[part]) for part in _random_partition(rng, size)]
        )
        assert np.array_equal(whole, chunked), (
            f"split changed {np.sum(whole != chunked)} of {size} points "
            f"(max delta {np.max(np.abs(whole - chunked)):.3e})"
        )

    for seed in TRIAL_SEEDS:
        _seeded(trial, seed)


def test_pairs_kernel_is_invariant_under_permutation():
    def trial(rng: random.Random) -> None:
        size = rng.randrange(8, 64)
        values, whole = _random_level(rng, size)
        order = list(range(size))
        rng.shuffle(order)
        idx = np.asarray(order)
        unshuffled = np.empty_like(whole)
        unshuffled[idx] = values(idx)
        assert np.array_equal(whole, unshuffled), (
            f"permutation changed {np.sum(whole != unshuffled)} of {size} points"
        )

    for seed in TRIAL_SEEDS:
        _seeded(trial, seed)


def test_pairs_kernel_singletons_match_fused_batch():
    """The extreme split: every point alone equals its value in the level."""

    def trial(rng: random.Random) -> None:
        size = rng.randrange(4, 16)
        values, whole = _random_level(rng, size)
        for i in range(size):
            alone = values(np.arange(i, i + 1))
            assert alone[0] == whole[i], (
                f"point {i}: alone={alone[0]!r} in the level={whole[i]!r}"
            )

    for seed in TRIAL_SEEDS:
        _seeded(trial, seed)

"""Seeded property tests for the pairs kernel's batch-composition contract.

Plain stdlib ``random`` drives the generation (no new dependencies); every
trial is wrapped so a failure names its seed — rerun with that seed to
reproduce exactly.

The docstring promise of
:func:`~repro.stats.batch.exact_coverage_failure_probability_pairs` is
that every element's value is a pure function of its own
``(n, p, epsilon)``: fuse a random batch, split it at random boundaries,
permute it — bit-identical results however the surrounding batch is
composed.
"""

from __future__ import annotations

import random

import numpy as np

from repro.stats.batch import exact_coverage_failure_probability_pairs

TRIAL_SEEDS = range(10)


def _seeded(trial, seed: int) -> None:
    """Run ``trial(rng)``; on failure, re-raise with the seed attached."""
    try:
        trial(random.Random(seed))
    except AssertionError as err:
        raise AssertionError(f"[reproduce with seed={seed}] {err}") from err


# ---------------------------------------------------------------------------
# Pairs-kernel batch-composition invariance
# ---------------------------------------------------------------------------


def _random_triples(rng: random.Random, size: int):
    ns, ps, epss = [], [], []
    for _ in range(size):
        ns.append(rng.randrange(1, 2000))
        roll = rng.random()
        if roll < 0.05:
            ps.append(0.0)  # boundary: probability mass collapses to zero
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


def test_pairs_kernel_is_invariant_under_batch_splits():
    def trial(rng: random.Random) -> None:
        size = rng.randrange(8, 64)
        ns, ps, epss = _random_triples(rng, size)
        fused = exact_coverage_failure_probability_pairs(ns, ps, epss)
        pieces = [
            exact_coverage_failure_probability_pairs(ns[part], ps[part], epss[part])
            for part in _random_partition(rng, size)
        ]
        chunked = np.concatenate(pieces)
        assert np.array_equal(fused, chunked), (
            f"split changed {np.sum(fused != chunked)} of {size} elements "
            f"(max delta {np.max(np.abs(fused - chunked)):.3e})"
        )

    for seed in TRIAL_SEEDS:
        _seeded(trial, seed)


def test_pairs_kernel_is_invariant_under_permutation():
    def trial(rng: random.Random) -> None:
        size = rng.randrange(8, 64)
        ns, ps, epss = _random_triples(rng, size)
        fused = exact_coverage_failure_probability_pairs(ns, ps, epss)
        order = list(range(size))
        rng.shuffle(order)
        idx = np.asarray(order)
        shuffled = exact_coverage_failure_probability_pairs(ns[idx], ps[idx], epss[idx])
        unshuffled = np.empty_like(shuffled)
        unshuffled[idx] = shuffled
        assert np.array_equal(fused, unshuffled), (
            f"permutation changed {np.sum(fused != unshuffled)} of {size} elements"
        )

    for seed in TRIAL_SEEDS:
        _seeded(trial, seed)


def test_pairs_kernel_singletons_match_fused_batch():
    """The extreme split: every element alone equals its fused value."""

    def trial(rng: random.Random) -> None:
        size = rng.randrange(4, 16)
        ns, ps, epss = _random_triples(rng, size)
        fused = exact_coverage_failure_probability_pairs(ns, ps, epss)
        for i in range(size):
            alone = exact_coverage_failure_probability_pairs(
                ns[i : i + 1], ps[i : i + 1], epss[i : i + 1]
            )
            assert alone[0] == fused[i], (
                f"element {i} (n={ns[i]}, p={ps[i]:.6f}, eps={epss[i]:.6f}): "
                f"alone={alone[0]!r} fused={fused[i]!r}"
            )

    for seed in TRIAL_SEEDS:
        _seeded(trial, seed)

"""Seeded property tests for the pairs kernel's batch-composition contract.

Plain stdlib ``random`` drives the generation (no new dependencies); every
trial is wrapped so a failure names its seed — rerun with that seed to
reproduce exactly.

The docstring promise of
:func:`~repro.stats.batch.exact_coverage_failure_probability_pairs` is
that every element's value is a pure function of its own
``(n, p, epsilon, sigmas, slack)``: fuse a random batch, split it at
random boundaries, permute it — bit-identical results however the
surrounding batch is composed.  That, plus lockstep phases with no
cross-size state, keeps a
:func:`~repro.stats.tight_bounds.tight_epsilon_many` sweep independent of
which testset sizes it is asked about together — checked here too.
"""

from __future__ import annotations

import random

import numpy as np

from repro.stats.batch import exact_coverage_failure_probability_pairs
from repro.stats.cache import clear_all_caches
from repro.stats.tight_bounds import tight_epsilon_many

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


def _random_window(rng: random.Random):
    """Either the default window or a random-but-shared (sigmas, slack)."""
    if rng.random() < 0.5:
        return {}
    return {
        "window_sigmas": rng.uniform(3.0, 10.0),
        "window_slack": rng.randrange(1, 8),
    }


def _random_partition(rng: random.Random, size: int) -> list[slice]:
    cuts = sorted(rng.sample(range(1, size), k=min(rng.randrange(1, 6), size - 1)))
    bounds = [0, *cuts, size]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def test_pairs_kernel_is_invariant_under_batch_splits():
    def trial(rng: random.Random) -> None:
        size = rng.randrange(8, 64)
        ns, ps, epss = _random_triples(rng, size)
        window = _random_window(rng)
        fused = exact_coverage_failure_probability_pairs(ns, ps, epss, **window)
        pieces = [
            exact_coverage_failure_probability_pairs(
                ns[part], ps[part], epss[part], **window
            )
            for part in _random_partition(rng, size)
        ]
        chunked = np.concatenate(pieces)
        assert np.array_equal(fused, chunked), (
            f"split changed {np.sum(fused != chunked)} of {size} elements "
            f"(max delta {np.max(np.abs(fused - chunked)):.3e}, window={window})"
        )

    for seed in TRIAL_SEEDS:
        _seeded(trial, seed)


def test_pairs_kernel_is_invariant_under_permutation():
    def trial(rng: random.Random) -> None:
        size = rng.randrange(8, 64)
        ns, ps, epss = _random_triples(rng, size)
        window = _random_window(rng)
        fused = exact_coverage_failure_probability_pairs(ns, ps, epss, **window)
        order = list(range(size))
        rng.shuffle(order)
        idx = np.asarray(order)
        shuffled = exact_coverage_failure_probability_pairs(
            ns[idx], ps[idx], epss[idx], **window
        )
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


def test_epsilon_sweep_is_invariant_under_batch_splits():
    """A sweep's per-size epsilons do not depend on its other sizes."""

    def trial(rng: random.Random) -> None:
        ns = np.asarray(rng.sample(range(50, 1500), k=rng.randrange(4, 9)))
        delta = rng.choice([1e-2, 1e-3])
        clear_all_caches()
        fused = tight_epsilon_many(ns, delta, tol=1e-5)
        order = list(range(len(ns)))
        rng.shuffle(order)
        pieces = np.empty_like(fused)
        for part in _random_partition(rng, len(ns)):
            idx = np.asarray(order[part])
            clear_all_caches()
            pieces[idx] = tight_epsilon_many(ns[idx], delta, tol=1e-5)
        assert np.array_equal(fused, pieces), (
            f"split changed {np.sum(fused != pieces)} of {len(ns)} epsilons "
            f"(ns={ns.tolist()}, delta={delta})"
        )

    for seed in range(4):
        _seeded(trial, seed)

"""Perf benchmark: scalar vs. batch planning kernels, cold vs. warm plans.

Times the layers the vectorized-kernel work optimizes —

1. ``worst_case_failure_probability`` (one full worst-case-``p`` scan),
2. ``tight_sample_size`` (the §4.3 search, the planning hot path),
3. ``SampleSizeEstimator.plan`` cold (cache cleared) vs. warm (served from
   the process-wide plan cache),
4. the **bandwidth-bound section**: one large-``n`` heterogeneous pairs
   dispatch (~1k probes at ``n ~ 2e5``, ``p`` near 1/2) per inner loop — the pre-fusion ``reference`` loop
   and the cache-blocked fused kernel — with bytes-touched accounting:
   gathered window cells x per-cell bytes, and the effective gather
   bandwidth each loop sustains,

— and writes the numbers to ``BENCH_perf_kernels.json`` in the repo root
so future PRs have a trajectory.  Asserts the acceptance criteria:
batch ``tight_sample_size`` at ``epsilon=0.02, delta=1e-3`` is >= 20x
faster than the scalar baseline with the identical result, and a warm
plan call is served in under a millisecond.  The bandwidth section's fused kernel must be
>= 2x the reference kernel at the full large-``n`` workload (skipped in
``--quick``, whose shrunken probes don't exercise the bandwidth wall),
while the identity gate (fused bit-identical to reference) is enforced
everywhere.

Run via ``make bench-perf`` or directly:

    PYTHONPATH=src python benchmarks/bench_perf_kernels.py

``--quick`` (what ``make ci`` runs) is the smoke mode: the cheapest case
per section, correctness assertions kept, the timing gates skipped —
hosted CI runners are too noisy to enforce speedups, but the JSON
artifact must still be produced and schema-valid
(``benchmarks/check_bench_schema.py``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from pathlib import Path

import numpy as np

from repro.core.estimators.api import SampleSizeEstimator
from repro.stats.batch import (
    _WINDOW_SIGMAS,
    _WINDOW_SLACK,
    exact_coverage_failure_probability_pairs,
)
from repro.stats.cache import all_cache_info, clear_all_caches
from repro.stats.tight_bounds import tight_sample_size, worst_case_failure_probability

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_perf_kernels.json"

# Paper-scale parameters: the acceptance point plus a spread.
TIGHT_CASES = [
    {"epsilon": 0.05, "delta": 1e-3},
    {"epsilon": 0.02, "delta": 1e-3},  # acceptance criterion case
    {"epsilon": 0.03, "delta": 1e-4},
]
WORST_CASES = [
    {"n": 1090, "epsilon": 0.05},
    {"n": 6800, "epsilon": 0.02},
]
PLAN_CONDITION = "n - o > 0.02 +/- 0.01 /\\ n > 0.8 +/- 0.05"
PLAN_KWARGS = {"reliability": 0.9999, "adaptivity": "full", "steps": 32}

# The bandwidth-bound workload: a batch of probes at n ~ 2e5 with p near 1/2 (the widest tail windows the ladder hands
# out), where the pairs kernel's cost is dominated by streaming the
# gathered log-comb windows through memory rather than by arithmetic.
PAIRS_SEED = 20260807
PAIRS_ELEMENTS = 1024
PAIRS_BASE_N = 200_000


def _timed(fn, *, repeats: int = 3, cold: bool = True) -> tuple[float, object]:
    """Median wall time over ``repeats`` runs (caches cleared when cold)."""
    times, result = [], None
    for _ in range(repeats):
        if cold:
            clear_all_caches()
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def bench_worst_case(cases=WORST_CASES) -> list[dict]:
    rows = []
    for case in cases:
        n, eps = case["n"], case["epsilon"]
        t_scalar, f_scalar = _timed(
            lambda: worst_case_failure_probability(n, eps, backend="scalar"), repeats=1
        )
        t_batch, f_batch = _timed(
            lambda: worst_case_failure_probability(n, eps, backend="batch")
        )
        rows.append(
            {
                **case,
                "scalar_seconds": t_scalar,
                "batch_seconds": t_batch,
                "speedup": t_scalar / t_batch,
                "scalar_value": f_scalar,
                "batch_value": f_batch,
                "abs_difference": abs(f_scalar - f_batch),
            }
        )
    return rows


def bench_tight_sample_size(cases=TIGHT_CASES) -> list[dict]:
    rows = []
    for case in cases:
        eps, delta = case["epsilon"], case["delta"]
        t_scalar, n_scalar = _timed(
            lambda: tight_sample_size(eps, delta, backend="scalar"), repeats=1
        )
        t_batch, n_batch = _timed(lambda: tight_sample_size(eps, delta, backend="batch"))
        t_warm, n_warm = _timed(
            lambda: tight_sample_size(eps, delta, backend="batch"), cold=False
        )
        rows.append(
            {
                **case,
                "scalar_seconds": t_scalar,
                "batch_cold_seconds": t_batch,
                "batch_warm_seconds": t_warm,
                "speedup_cold": t_scalar / t_batch,
                "scalar_n": n_scalar,
                "batch_n": n_batch,
                "results_equal": n_scalar == n_batch == n_warm,
            }
        )
    return rows


def bench_plan_cache() -> dict:
    estimator = SampleSizeEstimator(use_exact_binomial=True)

    def plan():
        return estimator.plan(PLAN_CONDITION, **PLAN_KWARGS)

    t_cold, plan_cold = _timed(plan)
    t_warm, plan_warm = _timed(plan, repeats=5, cold=False)
    return {
        "condition": PLAN_CONDITION,
        "spec": PLAN_KWARGS,
        "cold_seconds": t_cold,
        "warm_seconds": t_warm,
        "warm_is_sub_millisecond": t_warm < 1e-3,
        "plans_identical": plan_cold == plan_warm,
        "samples": plan_warm.samples,
    }


def _window_cells(ns, ps, eps) -> int:
    """Total gathered window cells of one pairs dispatch (both tails).

    Bench-side replica of the kernel's absolute-ladder width assignment
    (same sigma depth, same ``2 * slack`` anchor) so the bytes-touched
    accounting reflects what the kernel actually streams, without the
    bench reaching into the dispatch internals.
    """
    nf = ns.astype(np.float64)
    sigma = np.sqrt(nf * ps * (1.0 - ps))
    depth = np.ceil(_WINDOW_SIGMAS * sigma).astype(np.int64) + _WINDOW_SLACK
    natural = np.minimum(
        ns + 1,
        np.maximum(_WINDOW_SLACK, depth - np.floor(eps * nf).astype(np.int64) + 2),
    )
    ladder = [2 * _WINDOW_SLACK]
    while ladder[-1] < int(natural.max()):
        ladder.append(2 * ladder[-1])
    ladder_arr = np.asarray(ladder, dtype=np.int64)
    widths = ladder_arr[np.searchsorted(ladder_arr, natural)]
    return int(2 * widths.sum())


def bench_pairs_bandwidth(quick: bool = False) -> dict:
    """Per-loop large-``n`` pairs dispatches with bytes-touched accounting.

    Times ``exact_coverage_failure_probability_pairs`` on one batch of
    per-element ``(n, p, eps)`` triples at ``n ~ 2e5``, ``p`` near 1/2 —
    for each inner loop: the pre-fusion
    ``reference`` loop (the yardstick and oracle) and the cache-blocked
    fused kernel (must be bit-identical and, at the full workload, beat
    reference by >= 2x).  The shared layout is built off-clock (the
    layout cache keeps it resident) and each loop's time is the
    fastest of ``repeats`` runs — the standard noise-robust estimator
    for bandwidth-bound loops.
    """
    elements = 128 if quick else PAIRS_ELEMENTS
    base_n = 20_000 if quick else PAIRS_BASE_N
    repeats = 3 if quick else 7
    rng = np.random.default_rng(PAIRS_SEED)
    ns = base_n + rng.integers(0, 50, size=elements)
    ps = rng.uniform(0.35, 0.65, size=elements)
    eps = rng.uniform(5e-4, 3e-3, size=elements)
    cells = _window_cells(ns, ps, eps)
    pairs = exact_coverage_failure_probability_pairs

    # One warm-up dispatch per loop off-clock (builds the shared layout),
    # then the loops are timed *interleaved*, round-robin, taking each
    # loop's fastest round: machine-load drift during the section hits
    # both alike instead of whichever happened to run last.
    timed_tiers = {
        "reference": lambda: pairs(ns, ps, eps, impl="reference"),
        "fused": lambda: pairs(ns, ps, eps),
    }
    results_by_tier = {name: fn() for name, fn in timed_tiers.items()}
    best = {name: float("inf") for name in timed_tiers}
    for _ in range(repeats):
        for name, fn in timed_tiers.items():
            t0 = time.perf_counter()
            results_by_tier[name] = fn()
            best[name] = min(best[name], time.perf_counter() - t0)
    t_ref, ref = best["reference"], results_by_tier["reference"]
    t_fused, fused = best["fused"], results_by_tier["fused"]

    def tier(name: str, seconds: float, bytes_per_cell: int) -> dict:
        window_bytes = cells * bytes_per_cell
        return {
            "tier": name,
            "seconds": seconds,
            "bytes_per_cell": bytes_per_cell,
            "window_bytes": window_bytes,
            "effective_gbps": window_bytes / seconds / 1e9,
            "speedup_vs_reference": t_ref / seconds,
        }

    tiers = [
        tier("reference_float64", t_ref, 8),
        tier("fused_float64", t_fused, 8),
    ]
    return {
        "elements": elements,
        "n_range": [int(ns.min()), int(ns.max())],
        "window_cells": cells,
        "tiers": tiers,
        "fused_identical_to_reference": bool(np.array_equal(fused, ref)),
        "fused_speedup": t_ref / t_fused,
        # Quick mode shrinks the probes below the bandwidth wall and runs
        # on noisy shared runners; the identity gate is asserted
        # regardless, the >= 2x gate only on the real workload.
        "speedup_gate_enforced": bool(not quick),
    }


def main(quick: bool = False) -> dict:
    # Quick mode (CI smoke): the cheapest case per section, correctness
    # still asserted, timing gates skipped — the runner is shared and
    # noisy, but the artifact must be produced and schema-valid.
    worst_cases = WORST_CASES[:1] if quick else WORST_CASES
    tight_cases = TIGHT_CASES[:1] if quick else TIGHT_CASES
    results = {
        "quick": quick,
        "worst_case_failure_probability": bench_worst_case(worst_cases),
        "tight_sample_size": bench_tight_sample_size(tight_cases),
        "sample_size_estimator_plan": bench_plan_cache(),
        "pairs_bandwidth": bench_pairs_bandwidth(quick),
        "cache_info_after": {
            name: {"hits": info.hits, "misses": info.misses, "currsize": info.currsize}
            for name, info in all_cache_info().items()
        },
    }

    # Acceptance criteria of the vectorized-kernel PR.
    headline = next(
        row
        for row in results["tight_sample_size"]
        if quick or (row["epsilon"] == 0.02 and row["delta"] == 1e-3)
    )
    assert headline["results_equal"], "batch and scalar tight_sample_size diverged"
    plan_row = results["sample_size_estimator_plan"]
    assert plan_row["plans_identical"], "cached plan differs from cold plan"
    if not quick:
        assert headline["speedup_cold"] >= 20.0, (
            f"tight_sample_size speedup {headline['speedup_cold']:.1f}x is below "
            "the required 20x"
        )
        assert plan_row["warm_is_sub_millisecond"], (
            f"warm plan took {plan_row['warm_seconds'] * 1e3:.3f} ms (>= 1 ms)"
        )

    # Bandwidth-section gates: identity always, >= 2x on the full
    # large-n workload only (quick probes sit below the wall).
    bandwidth = results["pairs_bandwidth"]
    assert bandwidth["fused_identical_to_reference"], (
        "fused pairs kernel diverged bit-wise from the reference loop"
    )
    if bandwidth["speedup_gate_enforced"]:
        assert bandwidth["fused_speedup"] >= 2.0, (
            f"fused pairs kernel speedup {bandwidth['fused_speedup']:.2f}x "
            "over the reference kernel is below the required 2x"
        )

    OUTPUT.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {OUTPUT}")
    print(
        f"tight_sample_size({headline['epsilon']}, {headline['delta']}): "
        f"scalar {headline['scalar_seconds']:.3f}s, "
        f"batch {headline['batch_cold_seconds'] * 1e3:.1f}ms "
        f"({headline['speedup_cold']:.0f}x), "
        f"warm {headline['batch_warm_seconds'] * 1e6:.0f}us"
    )
    print(
        f"plan cold {plan_row['cold_seconds'] * 1e3:.2f}ms, "
        f"warm {plan_row['warm_seconds'] * 1e6:.0f}us"
    )
    tier_notes = ", ".join(
        f"{row['tier']} {row['seconds'] * 1e3:.1f}ms "
        f"({row['speedup_vs_reference']:.2f}x, {row['effective_gbps']:.1f} GB/s)"
        for row in bandwidth["tiers"]
    )
    print(
        f"pairs bandwidth over {bandwidth['elements']} probes "
        f"({bandwidth['window_cells']} window cells): {tier_notes}"
    )
    return results


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: cheapest cases, timing gates skipped",
    )
    args = parser.parse_args()
    main(quick=args.quick)

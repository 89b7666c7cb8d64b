"""Perf benchmark: scalar vs. batch planning kernels, cold vs. warm plans.

Times the layers the vectorized-kernel work optimizes —

1. ``worst_case_failure_probability`` (one full worst-case-``p`` scan)
   against the scalar reference scan (``tight_bounds._scan_scalar``),
2. ``tight_sample_size`` (the §4.3 search, the planning hot path)
   against the same search over the scalar scan,
3. ``SampleSizeEstimator.plan`` cold (cache cleared) vs. warm (served from
   the process-wide plan cache),

— and writes the numbers to ``BENCH_perf_kernels.json`` in the repo root
(with an ``environment`` block: cpus, python, numpy, platform) so future
PRs have a trajectory.  Asserts the acceptance criteria: batch
``tight_sample_size`` at ``epsilon=0.02, delta=1e-3`` is >= 20x faster
than the scalar search with the identical result, and a warm plan call
is served in under a millisecond.  The grid kernel's window loop is
checked bit for bit against an unchunked loop in
``tests/stats/test_batch.py``, not here.

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

from repro.core.estimators.api import SampleSizeEstimator
from repro.stats import tight_bounds
from repro.stats.cache import all_cache_info, clear_all_caches
from repro.stats.tight_bounds import tight_sample_size, worst_case_failure_probability

from environment import describe_environment

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
            lambda: tight_bounds._scan_scalar(n, eps, 512, 3)[0], repeats=1
        )
        t_batch, f_batch = _timed(lambda: worst_case_failure_probability(n, eps))
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


def scalar_tight_sample_size(epsilon: float, delta: float) -> int:
    """:func:`tight_sample_size`'s search over the scalar reference scan."""
    return tight_bounds._bisect_crossing(
        tight_bounds._hoeffding_anchor(epsilon, delta),
        lambda n: tight_bounds._scan_scalar(n, epsilon, 256, 2)[0] > delta,
    )


def bench_tight_sample_size(cases=TIGHT_CASES) -> list[dict]:
    rows = []
    for case in cases:
        eps, delta = case["epsilon"], case["delta"]
        t_scalar, n_scalar = _timed(
            lambda: scalar_tight_sample_size(eps, delta), repeats=1
        )
        t_batch, n_batch = _timed(lambda: tight_sample_size(eps, delta))
        t_warm, n_warm = _timed(lambda: tight_sample_size(eps, delta), cold=False)
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


def main(quick: bool = False) -> dict:
    # Quick mode (CI smoke): the cheapest case per section, correctness
    # still asserted, timing gates skipped — the runner is shared and
    # noisy, but the artifact must be produced and schema-valid.
    worst_cases = WORST_CASES[:1] if quick else WORST_CASES
    tight_cases = TIGHT_CASES[:1] if quick else TIGHT_CASES
    results = {
        "quick": quick,
        "environment": describe_environment(),
        "worst_case_failure_probability": bench_worst_case(worst_cases),
        "tight_sample_size": bench_tight_sample_size(tight_cases),
        "sample_size_estimator_plan": bench_plan_cache(),
        "cache_info_after": {
            name: {"hits": info.hits, "misses": info.misses, "currsize": info.currsize}
            for name, info in all_cache_info().items()
        },
    }

    headline = next(
        row
        for row in results["tight_sample_size"]
        if quick or (row["epsilon"] == 0.02 and row["delta"] == 1e-3)
    )
    plan_row = results["sample_size_estimator_plan"]
    # The artifact records the run whatever the gates below decide.
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

    # Acceptance criteria of the vectorized-kernel PR.
    assert headline["results_equal"], "batch and scalar tight_sample_size diverged"
    assert plan_row["plans_identical"], "cached plan differs from cold plan"
    if not quick:
        assert headline["speedup_cold"] >= 20.0, (
            f"tight_sample_size speedup {headline['speedup_cold']:.1f}x is below "
            "the required 20x"
        )
        assert plan_row["warm_is_sub_millisecond"], (
            f"warm plan took {plan_row['warm_seconds'] * 1e3:.3f} ms (>= 1 ms)"
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

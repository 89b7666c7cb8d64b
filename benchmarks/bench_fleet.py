"""Fleet benchmark: the multi-tenant parity gate plus overload accounting.

Three legs, all gated on correctness in addition to being timed:

1. **Parity under churn** — 100+ simulated tenants (``--quick``: 12)
   split across all three adaptivity modes, their traffic interleaved
   round-robin through one :class:`~repro.fleet.CIFleet` whose residency
   cap is far smaller than the tenant count, so every submission evicts
   and rehydrates an engine (no residency policy helps cyclic traffic).
   The gate: every tenant's build fingerprint is element-wise identical
   to an isolated ``CIService`` run of the same world.  The artifact
   records the hydration/eviction churn, the hit ratio and the gateway's
   overhead against the N-isolated-services baseline, as both times and
   their ratio (``fleet_isolated_ratio``, recorded only).

2. **Parity under skew** — the same tenants and the same number of
   submissions, but each tenant gets its Zipf(1.1) share of them in a
   seeded order, so a few hot tenants carry most of the traffic.  Same
   gate; the artifact records hydrations and the hit ratio, which the
   frequency-aware residency policy raises by keeping hot tenants live.

Both parity legs also record the tenant logs' size once the stream is
done — ``log_bytes_per_submission`` (bytes of every tenant's one log,
its journal, divided by the leg's submissions) — and the artifact
carries an ``environment`` block (cpus, python, numpy, platform).

3. **Overload shedding** — a hot-tenant burst exceeding both admission
   bounds.  The gate: every submission is either durably accepted (and
   eventually processed) or rejected with a typed admission error —
   accepted + rejected == attempted, none silently dropped.

Run directly or via ``make bench-fleet`` / ``make bench-smoke``:

    PYTHONPATH=src python benchmarks/bench_fleet.py --quick
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.ci.repository import ModelRepository
from repro.ci.service import CIService
from repro.core.estimators.api import SampleSizeEstimator
from repro.core.script.config import CIScript
from repro.core.testset import Testset, TestsetPool
from repro.exceptions import AdmissionError
from repro.fleet import AdmissionPolicy, CIFleet
from repro.ml.models.base import FixedPredictionModel
from repro.ml.models.simulated import (
    ModelPairSpec,
    evolve_predictions,
    simulate_model_pair,
)
from repro.stats.cache import clear_all_caches

REPO_ROOT = Path(__file__).resolve().parent.parent

CONDITION = "d < 0.25 +/- 0.1 /\\ n - o > 0.05 +/- 0.1"
ADAPTIVITY_MODES = ["full", "none -> third-party@example.com", "firstChange"]


def make_script(adaptivity):
    return CIScript.from_dict(
        {
            "script": "./test_model.py",
            "condition": CONDITION,
            "reliability": 0.999,
            "mode": "fp-free",
            "adaptivity": adaptivity,
            "steps": 4,
        }
    )


def make_world(script, commits, seed, generations=2):
    plan = SampleSizeEstimator().plan(
        script.condition,
        delta=script.delta,
        adaptivity=script.adaptivity,
        steps=script.steps,
        known_variance_bound=script.variance_bound,
    )
    pair = simulate_model_pair(
        ModelPairSpec(old_accuracy=0.80, new_accuracy=0.80, difference=0.0),
        n_examples=plan.pool_size,
        seed=seed,
    )
    labels = pair.labels
    models, current = [], pair.old_model.predictions
    for index in range(commits):
        target = 0.88 if index % 3 == 1 else 0.81
        predictions = evolve_predictions(
            current,
            labels,
            target_accuracy=target,
            difference=0.12,
            seed=1000 * seed + index,
        )
        models.append(FixedPredictionModel(predictions, name=f"m{index}"))
        if index % 3 == 1:
            current = predictions
    rng = np.random.default_rng(seed + 1)
    pool = [
        Testset(labels=rng.integers(0, 2, size=plan.pool_size), name=f"gen-{g}")
        for g in range(1, generations + 1)
    ]
    return Testset(labels=labels, name="gen-0"), pool, pair.old_model, models


def fingerprint(service):
    return [
        (
            build.build_number,
            build.commit.commit_id,
            build.commit.status.value,
            build.generation,
            build.result.promoted if build.result else None,
            build.result.testset_uses if build.result else None,
        )
        for build in service.builds
    ]


def run_fleet_leg(scripts, worlds, order, max_resident) -> dict:
    """Submit ``order`` (tenant ids) through one fleet; gate on parity.

    Each tenant's ``k``-th appearance in ``order`` submits its ``k``-th
    model.  Returns the churn counts, timings and the parity verdict.
    """
    clear_all_caches()
    with tempfile.TemporaryDirectory() as tmp:
        fleet = CIFleet(
            Path(tmp) / "fleet", max_resident=max_resident, sync=False
        )
        start = time.perf_counter()
        for tenant_id, (mode, world) in worlds.items():
            testset, pool, baseline, _ = world
            fleet.register(
                tenant_id,
                scripts[mode],
                testset,
                baseline,
                repository=ModelRepository(nonce=f"bench-{tenant_id}"),
                pool=TestsetPool(pool),
            )
        sent = dict.fromkeys(worlds, 0)
        for tenant_id in order:
            index = sent[tenant_id]
            sent[tenant_id] += 1
            fleet.submit(tenant_id, worlds[tenant_id][1][3][index], message=f"c{index}")
        fleet_seconds = time.perf_counter() - start
        hits, hydrations, evictions = fleet.hits, fleet.hydrations, fleet.evictions
        log_bytes = sum(
            path.stat().st_size for path in fleet.root.glob("tenants/*/journal.jsonl")
        ) / len(order)
        assert evictions > 0, "residency never churned; max_resident too generous"

        fleet_prints = {
            tenant_id: fingerprint(fleet.service(tenant_id))
            for tenant_id in worlds
        }

    clear_all_caches()
    start = time.perf_counter()
    identical = True
    for tenant_id, (mode, world) in worlds.items():
        testset, pool, baseline, models = world
        service = CIService(
            scripts[mode],
            testset,
            baseline,
            repository=ModelRepository(nonce=f"bench-{tenant_id}"),
        )
        service.install_testset_pool(TestsetPool(pool))
        for index, model in enumerate(models):
            service.repository.commit(model, message=f"c{index}")
        identical = identical and fingerprint(service) == fleet_prints[tenant_id]
    isolated_seconds = time.perf_counter() - start
    assert identical, "fleet diverged from isolated per-tenant services"

    return {
        "tenants": len(worlds),
        "modes": len(ADAPTIVITY_MODES),
        "submissions": len(order),
        "max_resident": max_resident,
        "hydrations": hydrations,
        "evictions": evictions,
        # Lookups the residency policy served without a hydration.
        "hit_ratio": hits / (hits + hydrations),
        "fleet_seconds": fleet_seconds,
        "isolated_seconds": isolated_seconds,
        # Recorded, not gated: the gateway's wall-time overhead factor.
        "fleet_isolated_ratio": fleet_seconds / isolated_seconds,
        "results_identical": identical,
        "log_bytes_per_submission": log_bytes,
    }


def fleet_shape(quick: bool) -> tuple[int, int, int]:
    """(tenants, commits per tenant on average, max_resident)."""
    return (12, 2, 3) if quick else (102, 3, 8)


def bench_parity(quick: bool) -> dict:
    tenants, commits, max_resident = fleet_shape(quick)
    scripts = {mode: make_script(mode) for mode in ADAPTIVITY_MODES}
    worlds = {}
    for index in range(tenants):
        mode = ADAPTIVITY_MODES[index % len(ADAPTIVITY_MODES)]
        worlds[f"t-{index:03d}"] = (
            mode,
            make_world(scripts[mode], commits, seed=index),
        )
    # Mixed traffic: round-robin interleaving, so every consecutive
    # pair of submissions hits a different tenant and residency churns.
    order = [tenant_id for _ in range(commits) for tenant_id in worlds]
    leg = run_fleet_leg(scripts, worlds, order, max_resident)
    leg["commits_per_tenant"] = commits
    return leg


def zipf_counts(tenants: int, total: int) -> list[int]:
    """Each tenant's Zipf(1.1) share of ``total`` (largest remainders)."""
    weights = 1.0 / np.arange(1, tenants + 1) ** 1.1
    shares = total * weights / weights.sum()
    counts = np.floor(shares).astype(int)
    short = total - int(counts.sum())
    counts[np.argsort(counts - shares, kind="stable")[:short]] += 1
    return [int(count) for count in counts]


def bench_skewed(quick: bool, seed: int = 7) -> dict:
    tenants, commits, max_resident = fleet_shape(quick)
    counts = zipf_counts(tenants, tenants * commits)
    scripts = {mode: make_script(mode) for mode in ADAPTIVITY_MODES}
    worlds = {}
    for index, count in enumerate(counts):
        mode = ADAPTIVITY_MODES[index % len(ADAPTIVITY_MODES)]
        # Every commit may retire a generation in firstChange mode.
        worlds[f"t-{index:03d}"] = (
            mode,
            make_world(scripts[mode], count, seed=index, generations=count + 2),
        )
    order = [
        tenant_id
        for tenant_id, (_, world) in worlds.items()
        for _ in range(len(world[3]))
    ]
    order = [order[i] for i in np.random.default_rng(seed).permutation(len(order))]
    leg = run_fleet_leg(scripts, worlds, order, max_resident)
    leg["hottest_tenant_submissions"] = max(counts)
    return leg


def bench_overload(quick: bool) -> dict:
    burst = 24 if quick else 96
    script = make_script("full")
    testset, pool, baseline, models = make_world(script, 2, seed=7)

    clear_all_caches()
    with tempfile.TemporaryDirectory() as tmp:
        fleet = CIFleet(
            Path(tmp) / "fleet",
            sync=False,
            admission=AdmissionPolicy(
                max_pending_per_tenant=8, max_pending_total=16
            ),
        )
        fleet.register(
            "hot",
            script,
            testset,
            baseline,
            repository=ModelRepository(nonce="bench-hot"),
            pool=TestsetPool(pool),
        )
        accepted = rejected = 0
        start = time.perf_counter()
        for index in range(burst):
            try:
                fleet.enqueue("hot", models[index % 2], message=f"b{index}")
                accepted += 1
            except AdmissionError:
                rejected += 1
        burst_seconds = time.perf_counter() - start
        processed = len(fleet.drain("hot").builds["hot"])

    none_dropped = accepted + rejected == burst and processed == accepted
    assert rejected > 0, "the burst never exceeded the admission bounds"
    assert none_dropped, "a submission was silently dropped"

    return {
        "attempted": burst,
        "accepted": accepted,
        "rejected": rejected,
        "processed": processed,
        "burst_seconds": burst_seconds,
        "none_dropped": none_dropped,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="smoke mode: smaller fleet"
    )
    args = parser.parse_args()

    payload = {
        "quick": args.quick,
        "environment": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "parity": bench_parity(args.quick),
        "skewed": bench_skewed(args.quick),
        "overload": bench_overload(args.quick),
    }
    artifact = REPO_ROOT / "BENCH_fleet.json"
    artifact.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    overload = payload["overload"]
    for name in ("parity", "skewed"):
        leg = payload[name]
        print(
            f"{name}: {leg['tenants']} tenants, {leg['submissions']} "
            f"submissions across {leg['modes']} modes, residency cap "
            f"{leg['max_resident']} ({leg['hydrations']} hydration(s), "
            f"{leg['evictions']} eviction(s), hit ratio "
            f"{leg['hit_ratio']:.2f}): fleet {leg['fleet_seconds']:.3f}s vs "
            f"isolated {leg['isolated_seconds']:.3f}s "
            f"({leg['fleet_isolated_ratio']:.1f}x), "
            f"identical={leg['results_identical']}; tenant logs "
            f"{leg['log_bytes_per_submission']:.0f}B per submission"
        )
    print(
        f"overload: {overload['attempted']} attempted -> {overload['accepted']} "
        f"accepted, {overload['rejected']} rejected, {overload['processed']} "
        f"processed in {overload['burst_seconds']:.3f}s, "
        f"none_dropped={overload['none_dropped']}"
    )
    print(f"wrote {artifact.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Perf benchmark: batched commit evaluation across testset generations.

Times the hot paths the batched-evaluation and testset-pool PRs optimize —

1. **Commit throughput**: a 64-commit queue drained through
   ``CIEngine.submit_many`` (one prediction per model, one vectorized
   ``evaluate_batch`` per comparison baseline, lazy result
   materialization) versus the sequential ``submit`` loop.  The batched
   results must be element-wise identical to the sequential engine —
   signals, promotions, alarms, budget — and the speedup must be >= 10x.
2. **Sustained multi-generation throughput**: a 128-commit queue with a
   per-generation budget of 32, so draining it crosses >= 3 testset
   rotations.  The pool-aware ``submit_many`` (rotate on
   exhaustion, re-batch the remainder on the fresh generation) is timed
   against the caller-side idiom it replaces — a sequential ``submit``
   loop that catches ``TestsetExhaustedError`` and hand-rolls
   ``install_testset``.  Results must stay element-wise identical and the
   batched path must hold >= 8x across the rotations (each rotation
   forces a re-prediction + re-batch of the in-flight remainder, so some
   of the single-generation win is genuinely spent).

Run via ``make bench-throughput`` or directly:

    PYTHONPATH=src python benchmarks/bench_commit_throughput.py

``--quick`` (what ``make ci`` runs) is the smoke mode: smaller queues,
fewer timing repeats, the correctness assertions kept (element-wise
identity, >= 3 rotations) and the speedup gates skipped — hosted CI
runners are too noisy to enforce throughput ratios, but the JSON artifact
must still be produced and schema-valid (``benchmarks/check_bench_schema.py``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from pathlib import Path

import numpy as np

from repro.core.engine import CIEngine
from repro.core.estimators.api import SampleSizeEstimator
from repro.core.script.config import CIScript
from repro.core.testset import Testset, TestsetPool
from repro.exceptions import TestsetExhaustedError
from repro.ml.models.base import FixedPredictionModel
from repro.ml.models.simulated import (
    ModelPairSpec,
    evolve_predictions,
    simulate_model_pair,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_commit_throughput.json"

BATCH = 64
# A production-style guardrail stack: absolute quality floors for both
# models, churn limits, and bounded gain from several angles.  Every
# clause adds scalar clause-walk work to the sequential path; the batched
# evaluator widens each one with a handful of vector operations.
CONDITION = (
    "n > 0.5 +/- 0.2 /\\ n > 0.45 +/- 0.22 /\\ o > 0.5 +/- 0.2 /\\ "
    "o > 0.45 +/- 0.22 /\\ d < 0.4 +/- 0.2 /\\ d < 0.45 +/- 0.22 /\\ "
    "n - o > 0.02 +/- 0.2 /\\ n - o < 0.4 +/- 0.22"
)
SCRIPT_FIELDS = {
    "script": "./test_model.py",
    "condition": CONDITION,
    "reliability": 0.999,
    "mode": "fp-free",
    "adaptivity": "none -> integration-team@example.com",
    "steps": BATCH,
}

MULTI_BATCH = 128  # sustained scenario: a longer queue spanning the pool
GENERATION_STEPS = 32  # per-generation budget: 128 commits -> 3 rotations
GENERATIONS = MULTI_BATCH // GENERATION_STEPS


class _CachedPredictionModel:
    """A committed model whose testset predictions are precomputed.

    High-throughput CI deployments score a commit once and evaluate the
    stored prediction vector; this wrapper models that serving setup (the
    same arrangement ``figure5`` uses to share predictions across its
    three queries), so the benchmark isolates the evaluation pipeline
    that this PR optimizes rather than model-inference cost, which is
    workload-specific and identical on both paths.
    """

    def __init__(self, predictions, name):
        self._predictions = predictions
        self.name = name

    def predict(self, features):
        return self._predictions


def build_world(batch=BATCH, steps=None):
    """A `batch`-commit queue with a genuine improvement inside."""
    script = CIScript.from_dict({**SCRIPT_FIELDS, "steps": steps or batch})
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
        seed=7,
    )
    labels = pair.labels
    models, current = [], pair.old_model.predictions
    for i in range(batch):
        target = 0.90 if i == 30 else 0.82
        predictions = evolve_predictions(
            current, labels, target_accuracy=target, difference=0.12, seed=100 + i
        )
        models.append(_CachedPredictionModel(predictions, name=f"commit-{i}"))
        if i == 30:
            current = predictions
    baseline = _CachedPredictionModel(pair.old_model.predictions, name="baseline")
    return script, labels, baseline, models


def fresh_engine(script, labels, baseline):
    return CIEngine(script, Testset(labels=labels), baseline)


def bench_commit_throughput(quick: bool = False) -> dict:
    batch = 16 if quick else BATCH
    seq_runs, batch_runs = (2, 3) if quick else (9, 15)
    script, labels, baseline, models = build_world(batch=batch)

    def run_sequential():
        engine = fresh_engine(script, labels, baseline)
        return engine, [engine.submit(model) for model in models]

    def run_batched():
        engine = fresh_engine(script, labels, baseline)
        return engine, engine.submit_many(models)

    # Warm both paths (plan cache, numpy, allocator), then time each in
    # its own block — interleaving the two would let the sequential
    # path's working set evict the batch path's between measurements.
    run_sequential()
    run_batched()
    sequential_times, batched_times = [], []
    for _ in range(seq_runs):
        t0 = time.perf_counter()
        _, sequential_results = run_sequential()
        sequential_times.append(time.perf_counter() - t0)
    for _ in range(batch_runs):
        t0 = time.perf_counter()
        _, batched_results = run_batched()
        batched_times.append(time.perf_counter() - t0)
    t_seq = statistics.median(sequential_times)
    t_batch = statistics.median(batched_times)

    identical = len(sequential_results) == len(batched_results) and all(
        a == b for a, b in zip(sequential_results, batched_results)
    )
    return {
        "condition": CONDITION,
        "batch_size": batch,
        "pool_size": int(len(labels)),
        "promotions": sum(r.promoted for r in batched_results),
        "sequential_seconds": t_seq,
        "batched_seconds": t_batch,
        "sequential_commits_per_sec": batch / t_seq,
        "batched_commits_per_sec": batch / t_batch,
        "speedup": t_seq / t_batch,
        "results_identical": identical,
    }


def build_generations(labels, count, seed=23):
    """`count` equally-sized testset generations; gen-0 is the real world."""
    rng = np.random.default_rng(seed)
    testsets = [Testset(labels=labels, name="gen-0")]
    for g in range(1, count):
        testsets.append(
            Testset(labels=rng.integers(0, 2, size=len(labels)), name=f"gen-{g}")
        )
    return testsets


def bench_multi_generation_throughput(quick: bool = False) -> dict:
    multi_batch = 32 if quick else MULTI_BATCH
    generation_steps = 8 if quick else GENERATION_STEPS
    seq_runs, batch_runs = (2, 3) if quick else (9, 15)
    script, labels, baseline, models = build_world(
        batch=multi_batch, steps=generation_steps
    )
    testsets = build_generations(labels, multi_batch // generation_steps)

    def run_sequential():
        """The caller-side idiom the pool replaces: catch, install, retry."""
        engine = CIEngine(script, testsets[0], baseline)
        results, next_generation = [], 1
        for model in models:
            while True:
                try:
                    results.append(engine.submit(model))
                    break
                except TestsetExhaustedError:
                    engine.install_testset(testsets[next_generation])
                    next_generation += 1
        return engine, results

    def run_batched():
        engine = CIEngine(
            script, testsets[0], baseline, testset_pool=TestsetPool(testsets[1:])
        )
        return engine, engine.submit_many(models)

    run_sequential()
    run_batched()
    sequential_times, batched_times = [], []
    for _ in range(seq_runs):
        t0 = time.perf_counter()
        _, sequential_results = run_sequential()
        sequential_times.append(time.perf_counter() - t0)
    for _ in range(batch_runs):
        t0 = time.perf_counter()
        engine, batched_results = run_batched()
        batched_times.append(time.perf_counter() - t0)
    t_seq = statistics.median(sequential_times)
    t_batch = statistics.median(batched_times)

    identical = len(sequential_results) == len(batched_results) and all(
        a == b for a, b in zip(sequential_results, batched_results)
    )
    return {
        "condition": CONDITION,
        "batch_size": multi_batch,
        "generation_budget": generation_steps,
        "generations_served": int(engine.manager.generation),
        "rotations": len(engine.rotations),
        "pool_size": int(len(labels)),
        "sequential_seconds": t_seq,
        "batched_seconds": t_batch,
        "sequential_commits_per_sec": multi_batch / t_seq,
        "batched_commits_per_sec": multi_batch / t_batch,
        "speedup": t_seq / t_batch,
        "results_identical": identical,
    }


def main(quick: bool = False) -> dict:
    throughput = bench_commit_throughput(quick)
    multi_generation = bench_multi_generation_throughput(quick)
    results = {
        "quick": quick,
        "commit_throughput": throughput,
        "multi_generation_throughput": multi_generation,
    }

    # Correctness gates hold in every mode; the speedup gates only on the
    # full run (quick mode is a CI smoke on a shared, noisy runner).
    assert throughput["results_identical"], (
        "submit_many diverged from the sequential engine"
    )
    assert multi_generation["results_identical"], (
        "pool-aware submit_many diverged from the manual rotate-and-resubmit loop"
    )
    assert multi_generation["rotations"] >= 3, (
        f"sustained scenario only crossed {multi_generation['rotations']} "
        "rotations; the benchmark requires >= 3"
    )
    if not quick:
        assert throughput["speedup"] >= 10.0, (
            f"batched commit throughput {throughput['speedup']:.1f}x is below "
            "the required 10x"
        )
        assert multi_generation["speedup"] >= 8.0, (
            f"multi-generation batched throughput {multi_generation['speedup']:.1f}x "
            "is below the required 8x"
        )

    OUTPUT.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {OUTPUT}")
    print(
        f"commits/sec: sequential {throughput['sequential_commits_per_sec']:,.0f}, "
        f"batched {throughput['batched_commits_per_sec']:,.0f} "
        f"({throughput['speedup']:.1f}x)"
    )
    print(
        f"sustained across {multi_generation['rotations']} rotations: "
        f"sequential {multi_generation['sequential_commits_per_sec']:,.0f}, "
        f"pooled batched {multi_generation['batched_commits_per_sec']:,.0f} "
        f"commits/sec ({multi_generation['speedup']:.1f}x)"
    )
    return results


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: smaller queues, speedup gates skipped",
    )
    main(quick=parser.parse_args().quick)

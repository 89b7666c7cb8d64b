"""Fault-recovery benchmark: what surviving a failure actually costs.

**Snapshot-fallback restore**, timed against its undisturbed twin and
gated on the recovery invariant (results element-wise identical — fault
tolerance may cost time, never correctness): a persisted commit run
whose newest snapshot is corrupted on disk.  A resume must quarantine
the damage, fall back to the previous snapshot generation and replay the
longer journal tail — producing exactly the builds of a clean resume.
The artifact records both restore times and both replay depths (measured
read-only with ``fsck_state_dir`` before restoring).

Run directly or via ``make bench-smoke`` (``--quick``):

    PYTHONPATH=src python benchmarks/bench_fault_recovery.py --quick

The correctness gates (parity, quarantine) are asserted in both modes; ``--quick`` only shrinks the workload — there
are no timing ratios to gate, recovery cost is recorded for the
trajectory, not thresholded.
"""

from __future__ import annotations

import argparse
import json
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.ci.repository import ModelRepository
from repro.ci.service import CIService
from repro.core.estimators.api import SampleSizeEstimator
from repro.core.script.config import CIScript
from repro.core.testset import Testset, TestsetPool
from repro.ml.models.base import FixedPredictionModel
from repro.ml.models.simulated import (
    ModelPairSpec,
    evolve_predictions,
    simulate_model_pair,
)
from repro.reliability.events import clear_events, reliability_events
from repro.reliability.fsck import fsck_state_dir
from repro.stats.cache import clear_all_caches

from environment import describe_environment

REPO_ROOT = Path(__file__).resolve().parent.parent

CONDITION = "d < 0.25 +/- 0.1 /\\ n - o > 0.05 +/- 0.1"


def make_script(steps=4):
    return CIScript.from_dict(
        {
            "script": "./test_model.py",
            "condition": CONDITION,
            "reliability": 0.999,
            "mode": "fp-free",
            "adaptivity": "full",
            "steps": steps,
        }
    )


def make_world(script, commits, generations=3, seed=0):
    plan = SampleSizeEstimator().plan(
        script.condition,
        delta=script.delta,
        adaptivity=script.adaptivity,
        steps=script.steps,
    )
    pair = simulate_model_pair(
        ModelPairSpec(old_accuracy=0.80, new_accuracy=0.80, difference=0.0),
        n_examples=plan.pool_size,
        seed=seed,
    )
    labels = pair.labels
    models, current = [], pair.old_model.predictions
    for index in range(commits):
        target = 0.88 if index % 4 == 2 else 0.81
        predictions = evolve_predictions(
            current, labels, target_accuracy=target, difference=0.12, seed=100 + index
        )
        models.append(FixedPredictionModel(predictions, name=f"m{index}"))
        if index % 4 == 2:
            current = predictions
    rng = np.random.default_rng(seed + 1)
    testsets = [Testset(labels=labels, name="gen-0")]
    for generation in range(1, generations):
        testsets.append(
            Testset(
                labels=rng.integers(0, 2, size=plan.pool_size),
                name=f"gen-{generation}",
            )
        )
    return testsets, pair.old_model, models


def make_service(script, testsets, baseline):
    service = CIService(
        script,
        testsets[0],
        baseline,
        repository=ModelRepository(nonce="bench-nonce"),
    )
    service.install_testset_pool(TestsetPool(testsets[1:]))
    return service


def build_fingerprint(service):
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


def timed_resume(state_dir):
    clear_all_caches()
    start = time.perf_counter()
    service = CIService.resume(state_dir)
    return service, time.perf_counter() - start


def bench_snapshot_fallback(quick: bool) -> dict:
    commits = 8 if quick else 16
    script = make_script()
    testsets, baseline, models = make_world(script, commits)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        service = make_service(script, testsets, baseline)
        service.persist_to(tmp / "state", snapshot_every=3)
        for model in models:
            service.repository.commit(model, message=model.name)
        reference = build_fingerprint(service)

        clean_dir = tmp / "clean"
        damaged_dir = tmp / "damaged"
        shutil.copytree(tmp / "state", clean_dir)
        shutil.copytree(tmp / "state", damaged_dir)
        snapshots = sorted((damaged_dir / "snapshots").glob("*.pkl"))
        assert len(snapshots) > 1, "cadence produced no fallback generation"
        snapshots[-1].write_bytes(snapshots[-1].read_bytes()[:80])

        depth_clean = fsck_state_dir(clean_dir)
        depth_damaged = fsck_state_dir(damaged_dir)
        assert depth_damaged.replay_commits > depth_clean.replay_commits

        clear_events()
        restored_clean, clean_seconds = timed_resume(clean_dir)
        restored_damaged, damaged_seconds = timed_resume(damaged_dir)

        identical = (
            build_fingerprint(restored_clean) == reference
            and build_fingerprint(restored_damaged) == reference
        )
        assert identical, "fallback restore diverged from the clean run"
        quarantined = restored_damaged._state_store.snapshots.quarantined()
        assert len(quarantined) == 1
        assert reliability_events("snapshot-fallback")

    return {
        "commits": commits,
        "clean_restore_seconds": clean_seconds,
        "fallback_restore_seconds": damaged_seconds,
        "replay_commits_clean": depth_clean.replay_commits,
        "replay_commits_fallback": depth_damaged.replay_commits,
        "quarantined_files": len(quarantined),
        "results_identical": identical,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="smoke mode: smaller workloads"
    )
    args = parser.parse_args()

    payload = {
        "quick": args.quick,
        "environment": describe_environment(),
        "snapshot_fallback": bench_snapshot_fallback(args.quick),
    }
    artifact = REPO_ROOT / "BENCH_fault_recovery.json"
    artifact.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    fallback = payload["snapshot_fallback"]
    print(
        f"snapshot fallback: clean restore {fallback['clean_restore_seconds']:.3f}s "
        f"({fallback['replay_commits_clean']} commits replayed) vs "
        f"fallback {fallback['fallback_restore_seconds']:.3f}s "
        f"({fallback['replay_commits_fallback']} commits, "
        f"{fallback['quarantined_files']} quarantined)"
    )
    print(f"wrote {artifact.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

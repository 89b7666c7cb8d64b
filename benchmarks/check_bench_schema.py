"""Validate the BENCH_*.json artifacts: present, parseable, schema-valid.

The last step of ``make ci``: after the ``--quick`` benchmark smoke runs,
assert each artifact exists, parses as JSON, and carries every required
field with a value of the required type.  The schemas are the stable
cross-PR contract of the benchmark trajectory — a field rename here must
be deliberate, not an accident a smoke run silently tolerates.

Usage:

    PYTHONPATH=src python benchmarks/check_bench_schema.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

NUMBER = (int, float)

# artifact -> {dotted.path: required type}.  `[]` marks "every element of
# this list", so `a.[].b` checks field `b` on each row of list `a`.
SCHEMAS = {
    "BENCH_perf_kernels.json": {
        "quick": bool,
        "environment.cpus": int,
        "environment.python": str,
        "environment.numpy": str,
        "environment.platform": str,
        "worst_case_failure_probability": list,
        "worst_case_failure_probability.[].n": int,
        "worst_case_failure_probability.[].epsilon": NUMBER,
        "worst_case_failure_probability.[].scalar_seconds": NUMBER,
        "worst_case_failure_probability.[].batch_seconds": NUMBER,
        "worst_case_failure_probability.[].speedup": NUMBER,
        "worst_case_failure_probability.[].abs_difference": NUMBER,
        "tight_sample_size": list,
        "tight_sample_size.[].epsilon": NUMBER,
        "tight_sample_size.[].delta": NUMBER,
        "tight_sample_size.[].scalar_seconds": NUMBER,
        "tight_sample_size.[].batch_cold_seconds": NUMBER,
        "tight_sample_size.[].speedup_cold": NUMBER,
        "tight_sample_size.[].results_equal": bool,
        "sample_size_estimator_plan.cold_seconds": NUMBER,
        "sample_size_estimator_plan.warm_seconds": NUMBER,
        "sample_size_estimator_plan.plans_identical": bool,
        "sample_size_estimator_plan.samples": int,
        "grid_bandwidth.shapes": list,
        "grid_bandwidth.shapes.[].shape": str,
        "grid_bandwidth.shapes.[].n": int,
        "grid_bandwidth.shapes.[].epsilon": NUMBER,
        "grid_bandwidth.shapes.[].points": int,
        "grid_bandwidth.shapes.[].window_cells": int,
        "grid_bandwidth.shapes.[].rounds": int,
        "grid_bandwidth.shapes.[].tiers": list,
        "grid_bandwidth.shapes.[].tiers.[].tier": str,
        "grid_bandwidth.shapes.[].tiers.[].seconds": NUMBER,
        "grid_bandwidth.shapes.[].tiers.[].bytes_per_cell": int,
        "grid_bandwidth.shapes.[].tiers.[].window_bytes": int,
        "grid_bandwidth.shapes.[].tiers.[].effective_gbps": NUMBER,
        "grid_bandwidth.shapes.[].tiers.[].speedup_vs_reference": NUMBER,
        "grid_bandwidth.shapes.[].fused_identical_to_reference": bool,
        "grid_bandwidth.shapes.[].fused_speedup": NUMBER,
        "grid_bandwidth.shapes.[].speedup_gate_enforced": bool,
        "grid_bandwidth.fused_identical_to_reference": bool,
        "grid_bandwidth.fused_speedup": NUMBER,
        "grid_bandwidth.speedup_gate_enforced": bool,
        "cache_info_after": dict,
    },
    "BENCH_commit_throughput.json": {
        "quick": bool,
        "commit_throughput.batch_size": int,
        "commit_throughput.pool_size": int,
        "commit_throughput.sequential_commits_per_sec": NUMBER,
        "commit_throughput.batched_commits_per_sec": NUMBER,
        "commit_throughput.speedup": NUMBER,
        "commit_throughput.results_identical": bool,
        "multi_generation_throughput.batch_size": int,
        "multi_generation_throughput.generation_budget": int,
        "multi_generation_throughput.rotations": int,
        "multi_generation_throughput.speedup": NUMBER,
        "multi_generation_throughput.results_identical": bool,
    },
    "BENCH_fault_recovery.json": {
        "quick": bool,
        "snapshot_fallback.commits": int,
        "snapshot_fallback.clean_restore_seconds": NUMBER,
        "snapshot_fallback.fallback_restore_seconds": NUMBER,
        "snapshot_fallback.replay_commits_clean": int,
        "snapshot_fallback.replay_commits_fallback": int,
        "snapshot_fallback.quarantined_files": int,
        "snapshot_fallback.results_identical": bool,
    },
    "BENCH_storage.json": {
        "quick": bool,
        "compaction.commits": int,
        "compaction.rotations": int,
        "compaction.snapshot_every": int,
        "compaction.keep_snapshots": int,
        "compaction.compaction_passes": int,
        "compaction.passes": list,
        "compaction.passes.[].bytes_before": int,
        "compaction.passes.[].bytes_after": int,
        "compaction.journal_bytes_peak": int,
        "compaction.journal_bytes_final": int,
        "compaction.journal_bytes_uncompacted": int,
        "compaction.state_dir_bytes_final": int,
        "compaction.state_dir_bytes_uncompacted": int,
        "compaction.compacted_through": int,
        "compaction.snapshots_on_disk": int,
        "compaction.bytes_bounded": bool,
        "compaction.results_identical": bool,
        "compaction.offline_compaction_pause_seconds": NUMBER,
        "compaction.offline_pass_dropped_records": int,
        "compaction.offline_pass_pruned_snapshots": int,
        "compaction.governor_check_seconds": NUMBER,
        "compaction.governor_level": str,
    },
    "BENCH_fleet.json": {
        "quick": bool,
        "environment.cpus": int,
        "environment.python": str,
        "environment.numpy": str,
        "environment.platform": str,
        "parity.tenants": int,
        "parity.modes": int,
        "parity.commits_per_tenant": int,
        "parity.submissions": int,
        "parity.max_resident": int,
        "parity.hydrations": int,
        "parity.evictions": int,
        "parity.hit_ratio": NUMBER,
        "parity.fleet_seconds": NUMBER,
        "parity.isolated_seconds": NUMBER,
        "parity.fleet_isolated_ratio": NUMBER,
        "parity.results_identical": bool,
        "parity.journal_bytes_per_submission": NUMBER,
        "parity.intake_bytes_per_submission": NUMBER,
        "skewed.tenants": int,
        "skewed.modes": int,
        "skewed.submissions": int,
        "skewed.hottest_tenant_submissions": int,
        "skewed.max_resident": int,
        "skewed.hydrations": int,
        "skewed.evictions": int,
        "skewed.hit_ratio": NUMBER,
        "skewed.fleet_seconds": NUMBER,
        "skewed.isolated_seconds": NUMBER,
        "skewed.fleet_isolated_ratio": NUMBER,
        "skewed.results_identical": bool,
        "skewed.journal_bytes_per_submission": NUMBER,
        "skewed.intake_bytes_per_submission": NUMBER,
        "overload.attempted": int,
        "overload.accepted": int,
        "overload.rejected": int,
        "overload.processed": int,
        "overload.burst_seconds": NUMBER,
        "overload.none_dropped": bool,
    },
}


def resolve(payload, dotted: str):
    """Yield every value at ``dotted`` (fanning out at `[]` segments)."""
    values = [payload]
    for segment in dotted.split("."):
        next_values = []
        for value in values:
            if segment == "[]":
                if not isinstance(value, list):
                    raise KeyError(f"expected a list before '[]' in {dotted!r}")
                next_values.extend(value)
            else:
                if not isinstance(value, dict) or segment not in value:
                    raise KeyError(f"missing field {dotted!r}")
                next_values.append(value[segment])
        values = next_values
    return values


def check_artifact(path: Path, schema: dict) -> list[str]:
    if not path.exists():
        return [f"{path.name}: artifact not produced"]
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        return [f"{path.name}: not valid JSON ({exc})"]
    problems = []
    for dotted, required in schema.items():
        try:
            values = resolve(payload, dotted)
        except KeyError as exc:
            problems.append(f"{path.name}: {exc.args[0]}")
            continue
        if not values and "[]" in dotted:
            problems.append(f"{path.name}: {dotted!r} matched no rows (empty list)")
        for value in values:
            # bool is an int subclass; an int-typed field must not be a bool.
            if isinstance(value, bool) and required is not bool:
                problems.append(
                    f"{path.name}: {dotted!r} is a bool, expected {required}"
                )
            elif not isinstance(value, required):
                problems.append(
                    f"{path.name}: {dotted!r} has type "
                    f"{type(value).__name__}, expected {required}"
                )
    return problems


def main() -> int:
    problems = []
    for name, schema in SCHEMAS.items():
        problems.extend(check_artifact(REPO_ROOT / name, schema))
    if problems:
        for problem in problems:
            print(f"SCHEMA ERROR: {problem}", file=sys.stderr)
        return 1
    for name in SCHEMAS:
        print(f"{name}: schema OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python
"""Smoke-run the repository benchmark: both workloads, one second each.

``perfbench/run.py`` imports the library from ``./src`` and its tracer
binds library callables by name (``repro.stats.tight_bounds``'s
``exact_coverage_failure_probability_vec``, ``CIFleet.submit``, ...), so
a refactor that renames one breaks the benchmark without failing a unit
test.  This runs

* ``--workload cold-plan --seconds 1 --trace 1`` (installs every tracer
  wrapper and runs the tracer self-test), and
* ``--workload fleet-churn --seconds 1 --trace 0``,

and fails on a non-zero exit, ``"correct": false``, or any failed
operation.  The traced ``cold-plan`` run must also have timed at least
one coverage-kernel call, or the tracer's binding went stale.  Timings
are not gated: one second is far too short to compare them.

Run from the repository root: ``python tools/perfbench_smoke.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = (("cold-plan", 1), ("fleet-churn", 0))  # (workload, --trace)
SEED = 1


def run(workload: str, trace: int) -> list[str]:
    """Run one workload; return the problems found (empty when it passed)."""
    command = [
        sys.executable,
        "perfbench/run.py",
        "--workload",
        workload,
        "--seed",
        str(SEED),
        "--seconds",
        "1",
        "--trace",
        str(trace),
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}:\n{proc.stdout}{proc.stderr}"]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return [f"no JSON result line:\n{proc.stdout}{proc.stderr}"]
    problems = []
    if result.get("correct") is not True:
        problems.append(f"correct is {result.get('correct')!r}:\n{proc.stderr}")
    if result.get("failed") != 0:
        problems.append(f"{result.get('failed')} of {result.get('attempted')} operations failed")
    if trace:
        calls = result.get("metrics", {}).get("stats.batch.kernel_calls", {}).get("value")
        if not calls:
            problems.append("the tracer timed no stats.batch.kernel call")
    return problems


def main() -> int:
    status = 0
    for workload, trace in RUNS:
        problems = run(workload, trace)
        for problem in problems:
            print(f"perfbench-smoke: {workload}: {problem}", file=sys.stderr)
        print(f"perfbench-smoke: {workload}: {'FAILED' if problems else 'ok'}")
        status = status or int(bool(problems))
    return status


if __name__ == "__main__":
    raise SystemExit(main())

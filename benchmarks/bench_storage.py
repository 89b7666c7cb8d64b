"""Storage-governance benchmark: what bounding the disk actually costs.

A long multi-rotation commit run under the aggressive retention policy
(``snapshot_every=1``, ``keep_snapshots=2``) against a retention-off
twin, gated on the governance invariants (compaction may reclaim bytes,
never change results):

1. **Bounded bytes** — across >= 4 testset rotations the compacted
   run's journal and state directory must end smaller than the
   retention-off twin's, the snapshot store must hold exactly
   ``keep_snapshots`` generations, and every compaction pass's
   bytes-before/bytes-after pair is recorded for the trajectory.

2. **Compaction parity** — the compacted state directory must resume to
   builds element-wise identical to the in-memory reference, and so
   must the twin: retention drops only what snapshots already cover.

3. **Compaction pause** — the cost of one worst-case offline
   :func:`~repro.reliability.storage.maintain_state_dir` pass over the
   retention-off twin (the longest journal a real deployment would ever
   compact in one go), plus the per-check latency of a
   :class:`~repro.reliability.storage.StorageGovernor` measurement.

Run directly or via ``make bench-storage`` (``make bench-smoke`` uses
``--quick``):

    PYTHONPATH=src python benchmarks/bench_storage.py --quick

The correctness gates (parity, bounded bytes, rotation depth) are
asserted in both modes; ``--quick`` only shrinks the workload.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

from bench_fault_recovery import (
    build_fingerprint,
    make_script,
    make_service,
    make_world,
)

from repro.ci.service import CIService
from repro.reliability.events import clear_events, reliability_events
from repro.reliability.fsck import fsck_state_dir
from repro.reliability.storage import (
    StorageGovernor,
    directory_bytes,
    maintain_state_dir,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

SNAPSHOT_EVERY = 1
KEEP_SNAPSHOTS = 2


def run_persisted(script, testsets, baseline, models, state_dir, keep):
    service = make_service(script, testsets, baseline)
    service.persist_to(
        state_dir,
        snapshot_every=SNAPSHOT_EVERY,
        keep_snapshots=keep,
        sync=False,
    )
    journal_bytes = []
    for model in models:
        service.repository.commit(model, message=model.name)
        journal_bytes.append((state_dir / "journal.jsonl").stat().st_size)
    return service, journal_bytes


def bench_compaction(quick: bool) -> dict:
    commits = 12 if quick else 16
    script = make_script(steps=2)  # rotate the testset every ~2 builds
    testsets, baseline, models = make_world(script, commits, generations=10)

    reference = make_service(script, testsets, baseline)
    for model in models:
        reference.repository.commit(model, message=model.name)
    rotations = len(reference.engine.rotations)
    assert rotations >= 4, f"workload only rotated {rotations} times"
    expected = build_fingerprint(reference)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        clear_events()
        compacted, journal_bytes = run_persisted(
            script, testsets, baseline, models, tmp / "compacted", KEEP_SNAPSHOTS
        )
        passes = [
            {
                "bytes_before": event.detail["bytes_before"],
                "bytes_after": event.detail["bytes_after"],
            }
            for event in reliability_events("journal-compacted")
        ]
        twin, _twin_bytes = run_persisted(
            script, testsets, baseline, models, tmp / "uncompacted", None
        )

        compacted_dir_bytes = directory_bytes(tmp / "compacted")
        twin_dir_bytes = directory_bytes(tmp / "uncompacted")
        snapshots_on_disk = len(list(compacted._state_store.snapshots.sequences()))
        compacted_through = compacted._state_store.journal.compacted_through

        # Gate 1: bounded bytes.  The compacted run retains exactly
        # ``keep_snapshots`` generations and strictly fewer bytes than
        # the retention-off twin, whose footprint grows with the run.
        bounded = (
            snapshots_on_disk == KEEP_SNAPSHOTS
            and compacted_dir_bytes < twin_dir_bytes
            and journal_bytes[-1] < _twin_bytes[-1]
            and compacted_through > 0
        )
        assert bounded, (
            f"retention failed to bound the disk: {snapshots_on_disk} "
            f"snapshot(s), {compacted_dir_bytes}B vs twin {twin_dir_bytes}B"
        )
        assert passes, "no compaction pass ran during the workload"

        # Gate 2: compaction parity.  Both directories must be
        # restorable and resume to the reference builds.
        identical = True
        for directory in (tmp / "compacted", tmp / "uncompacted"):
            report = fsck_state_dir(directory)
            assert report.restorable, report.describe()
            resumed = CIService.resume(directory, record=False)
            identical = identical and build_fingerprint(resumed) == expected
        assert identical, "a compacted state dir diverged from the reference"

        # Gate 3 input: the worst-case pause — one offline maintenance
        # pass over the full-length twin journal.
        start = time.perf_counter()
        maintenance = maintain_state_dir(
            tmp / "uncompacted", keep=KEEP_SNAPSHOTS, sync=False
        )
        pause_seconds = time.perf_counter() - start
        assert fsck_state_dir(tmp / "uncompacted").restorable

        governor = StorageGovernor(soft_bytes=1, hard_bytes=10**12)
        start = time.perf_counter()
        level = governor.check(tmp / "compacted").level
        check_seconds = time.perf_counter() - start

    return {
        "commits": commits,
        "rotations": rotations,
        "snapshot_every": SNAPSHOT_EVERY,
        "keep_snapshots": KEEP_SNAPSHOTS,
        "compaction_passes": len(passes),
        "passes": passes,
        "journal_bytes_peak": max(journal_bytes),
        "journal_bytes_final": journal_bytes[-1],
        "journal_bytes_uncompacted": _twin_bytes[-1],
        "state_dir_bytes_final": compacted_dir_bytes,
        "state_dir_bytes_uncompacted": twin_dir_bytes,
        "compacted_through": compacted_through,
        "snapshots_on_disk": snapshots_on_disk,
        "bytes_bounded": bounded,
        "results_identical": identical,
        "offline_compaction_pause_seconds": pause_seconds,
        "offline_pass_dropped_records": maintenance.dropped_records,
        "offline_pass_pruned_snapshots": maintenance.pruned_snapshots,
        "governor_check_seconds": check_seconds,
        "governor_level": level,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="smoke mode: smaller workloads"
    )
    args = parser.parse_args()

    payload = {
        "quick": args.quick,
        "compaction": bench_compaction(args.quick),
    }
    artifact = REPO_ROOT / "BENCH_storage.json"
    artifact.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    data = payload["compaction"]
    print(
        f"compaction: {data['commits']} commits across {data['rotations']} "
        f"rotations — journal {data['journal_bytes_final']}B compacted vs "
        f"{data['journal_bytes_uncompacted']}B retention-off "
        f"({data['compaction_passes']} pass(es), state dir "
        f"{data['state_dir_bytes_final']}B vs {data['state_dir_bytes_uncompacted']}B)"
    )
    print(
        f"pauses: offline maintenance {data['offline_compaction_pause_seconds']:.3f}s "
        f"({data['offline_pass_dropped_records']} record(s) dropped), "
        f"governor check {data['governor_check_seconds'] * 1e3:.2f}ms"
    )
    print(f"wrote {artifact.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

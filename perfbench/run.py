"""The repository benchmark: one workload per invocation, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload commit-stream --seed 1 --seconds 12 --trace 0

The run repeats the workload from the same seeded start until
``--seconds`` have passed (at least a few repetitions), checks the
outputs, and prints a human-readable report followed, as the last line,
by one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics with tracing off;
``--trace 1`` first runs the tracer self-test, then alternates untraced
and traced repetitions and reports the per-layer metrics, the tracing
overhead and each operation's unattributed root self time.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path
from statistics import median

START = time.perf_counter()
ROOT = Path.cwd()
WORKSPACE = ROOT / ".perfbench"
FAULT_ENV = ("REPRO_FAULT_SPEC", "REPRO_FAULT_SEED")
MIN_REPS = 3
MIN_TRACED_REPS = 2

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def fail(message: str) -> "NoReturn":  # noqa: F821 - annotation only
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_library() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        fail(f"no library source at {source}; run from the repository root")
    sys.path.insert(0, str(source))
    os.environ["REPRO_PLAN_WORKERS"] = "serial"  # planning pinned serial
    import repro

    if source.resolve() not in Path(repro.__file__).resolve().parents:
        fail(f"imported repro from {repro.__file__}, not from {source}")


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` (``unknown`` outside git)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def filesystem_type(path: Path) -> str:
    """Type of the mount holding ``path`` (fsync on tmpfs is free)."""
    best, kind = "", "unknown"
    target = str(path.resolve())
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        point = fields[1]
        inside = target == point or target.startswith(point.rstrip("/") + "/")
        if inside and len(point) > len(best):
            best, kind = point, fields[2]
    return kind


def environment() -> dict:
    import numpy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "state_dir_fs": filesystem_type(WORKSPACE),
        "planning_workers": os.environ["REPRO_PLAN_WORKERS"],
        "platform": platform.platform(),
    }


def tail(samples: list[float]) -> tuple[str, float, int]:
    """The highest of p99/p95/p90 with >= 10 samples beyond it, else max."""
    import numpy

    count = len(samples)
    for percentile in (99, 95, 90):
        if count * (100 - percentile) / 100 >= 10:
            beyond = int(count * (100 - percentile) / 100)
            return f"p{percentile}", float(numpy.percentile(samples, percentile)), beyond
    return "max", max(samples), 0


class Repetition:
    """Timings of one repetition (seconds)."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.setup = 0.0
        self.wall = 0.0
        self.latencies: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.disk_bytes = 0

    def timed_call(self, operation=None):
        """``call(kind, func, *args)`` for the workload: times one operation.

        A failing operation is counted and the run goes on; the result is
        then reported as incorrect.
        """

        def call(kind, func, *args, **kwargs):
            self.attempted += 1
            began = time.perf_counter()
            try:
                if operation is None:
                    result = func(*args, **kwargs)
                else:
                    result = operation(kind, func, *args, **kwargs)
            except Exception:
                self.failed += 1
                traceback.print_exc(file=sys.stderr)
                return None
            finally:
                self.latencies.setdefault(kind, []).append(
                    time.perf_counter() - began
                )
            return result

        return call


def run_repetition(workload, directory: Path, tracer=None):
    from workloads import clear_all_caches

    import layers

    rep = Repetition(traced=tracer is not None)
    clear_all_caches()  # each set-up starts as cold as a fresh process
    gc.collect()
    trace = None
    if tracer is not None:
        # Before set-up: callables bound during set-up (the service's
        # notifier, say) must already be the wrappers.
        layers.install(tracer)
    try:
        began = time.perf_counter()
        state = workload.setup(directory)
        rep.setup = time.perf_counter() - began
        caches_before = layers.cache_counts()
        call = rep.timed_call(None if tracer is None else tracer.operation)
        began = time.perf_counter()
        workload.run(state, call)
        rep.wall = time.perf_counter() - began
        trace = (caches_before, layers.cache_counts())
        workload.restore(state, call)
    finally:
        if tracer is not None:
            tracer.remove()
    rep.disk_bytes = workload.disk_bytes(state)
    return rep, state, trace


def end_to_end(workload, reps: list[Repetition], peak_rss_mb: float) -> dict:
    op = workload.op
    # Built commits per second; plans per second where nothing is committed.
    work = workload.ops * (workload.commits_per_op or 1)
    tails = [tail(rep.latencies[op]) for rep in reps]
    return {
        "setup_s": median(rep.setup for rep in reps),
        "latency_p50_ms": median(median(rep.latencies[op]) for rep in reps) * 1e3,
        "latency_tail_ms": median(value for _, value, _ in tails) * 1e3,
        "throughput_per_s": median(work / rep.wall for rep in reps),
        "peak_rss_mb": peak_rss_mb,
        "_tail": tails[0],
    }


def report(workload, reps, e2e, attempted, failed) -> None:
    op = workload.op
    count = len(reps[0].latencies[op])
    label, _, beyond = e2e["_tail"]
    unit = "plans" if workload.op == "plan" else "commits"
    print(
        f"workload {workload.name}: {len(reps)} repetition(s) of {count} "
        f"{op}(s), closed loop, one client thread"
    )
    lines = [
        ("setup_s", e2e["setup_s"], "s", f"median of {len(reps)} set-ups"),
        ("latency_p50_ms", e2e["latency_p50_ms"], "ms", f"median {op} latency"),
        (
            "latency_tail_ms",
            e2e["latency_tail_ms"],
            "ms",
            f"{label} of {count} {op}s per repetition, {beyond} beyond it",
        ),
        (f"{unit}_per_s", e2e["throughput_per_s"], "1/s", "reported as throughput_per_s"),
    ]
    if workload.restores:
        restore = median(median(rep.latencies["restore"]) for rep in reps) * 1e3
        lines.append(
            ("restore_p50_ms", restore, "ms", f"{workload.restores} cold read-only resumes")
        )
    commits = workload.ops * workload.commits_per_op
    if workload.op != "plan":
        disk = median(rep.disk_bytes for rep in reps) / commits
        lines.append(("disk_bytes_per_commit", disk, "B", "state dir after the stream"))
    lines.append(
        ("error_rate", failed / max(attempted, 1), "ratio", f"{failed} of {attempted} failed")
    )
    lines.append(("peak_rss_mb", e2e["peak_rss_mb"], "MB", "ru_maxrss after the first repetition"))
    for name, value, unit_name, note in lines:
        print(f"  {name:<24} {value:>14.4f} {unit_name:<6} ({note})")


def traced_metrics(workload, reps, traces, e2e, seed: int) -> dict:
    """Per-layer metrics, tracing overhead and the span dump of a traced run."""
    from layers import PER_LAYER, per_layer_metrics

    traced = [rep for rep in reps if rep.traced]
    commits = workload.ops * workload.commits_per_op
    metrics = per_layer_metrics(
        [tracer for tracer, _ in traces],
        [deltas for _, deltas in traces],
        root=workload.op,
        ops=workload.ops * len(traced),
        commits=commits * len(traced),
        disk_bytes_per_commit=median(rep.disk_bytes for rep in traced) / max(commits, 1),
    )
    traced_p50 = median(median(rep.latencies[workload.op]) for rep in traced) * 1e3
    overhead = traced_p50 - e2e["latency_p50_ms"]
    metrics["bench.trace_overhead_ms"] = overhead
    metrics["bench.trace_overhead_pct"] = 100 * overhead / e2e["latency_p50_ms"]

    dump = WORKSPACE / f"trace-{workload.name}-seed{seed}.json"
    dump.write_text(
        json.dumps(
            [{"repetition": i, "spans": tracer.export()} for i, (tracer, _) in enumerate(traces)]
        )
    )
    spans = sum(len(tracer.spans) for tracer, _ in traces)
    print(
        f"traced: {len(traced)} traced repetition(s), {spans} spans written to "
        f"{dump.relative_to(ROOT)}; latency_p50_ms {traced_p50:.4f} traced vs "
        f"{e2e['latency_p50_ms']:.4f} untraced"
    )
    for name, value in metrics.items():
        note = "" if value else "  (no such calls on this workload)"
        print(f"  {name:<46} {value:>14.4f} {PER_LAYER[name][0]}{note}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for name in FAULT_ENV:
        if os.environ.get(name):
            fail(f"{name} is set; fault injection would distort every timing")
    import_library()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS, CheckFailed

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    # A fixed path: journal records embed it, so a per-process name would
    # make the byte counts differ between runs of one seed.
    directory = WORKSPACE / workload.name
    WORKSPACE.mkdir(exist_ok=True)
    shutil.rmtree(directory, ignore_errors=True)  # state left by a killed run
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))

    if args.trace:
        from selftest import self_test

        self_test()
        print("tracer self-test: passed")

    from tracer import Tracer

    reps: list[Repetition] = []
    traces: list[tuple[Tracer, tuple]] = []
    deadline = START + args.seconds
    state = None
    try:
        while True:
            traced = sum(rep.traced for rep in reps)
            if args.trace:
                done = min(traced, len(reps) - traced) >= MIN_TRACED_REPS
            else:
                done = len(reps) >= MIN_REPS
            if done and time.perf_counter() >= deadline:
                break
            if state is not None:
                workload.teardown(state, directory)
                state = None
            # Traced and untraced repetitions alternate, untraced first.
            tracer = Tracer() if args.trace and len(reps) % 2 else None
            rep, state, trace = run_repetition(workload, directory, tracer)
            reps.append(rep)
            if tracer is not None:
                traces.append((tracer, trace))
            if len(reps) == 1:
                # Read after the first repetition: later ones add only
                # allocator drift, which would tie the peak to run length.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        try:
            workload.check(state)
            correct = True
        except CheckFailed as exc:
            print(f"perfbench: check failed: {exc}", file=sys.stderr)
            correct = False
    finally:
        if state is not None:
            workload.teardown(state, directory)
        shutil.rmtree(directory, ignore_errors=True)

    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    correct = correct and failed == 0
    plain = [rep for rep in reps if not rep.traced]
    e2e = end_to_end(workload, plain, peak_rss_mb)
    report(workload, plain, e2e, attempted, failed)

    if args.trace:
        from layers import PER_LAYER

        metrics = traced_metrics(workload, reps, traces, e2e, args.seed)
        units = PER_LAYER
    else:
        metrics = {name: e2e[name] for name in END_TO_END}
        units = {name: (unit, None) for name, unit in END_TO_END.items()}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line interface: the sample-size estimator as a shell utility.

The paper frames the Sample Size Estimator as a *system utility* the
integration team runs before collecting data (§2.3).  This CLI exposes it:

``python -m repro plan``
    Size a condition given reliability/adaptivity/steps — prints the plan
    (labels, unlabeled pool, per-commit active-labeling cost) followed by
    the planning-cache deltas the derivation produced.  The process-wide
    caches are left warm, so operators can pre-pay planning cost before
    traffic arrives.

``python -m repro validate <script.yml>``
    Parse and validate a ``.travis.yml``-style script's ``ml:`` section,
    printing the normalized configuration and its plan.

``python -m repro figure2``
    Regenerate the paper's Figure 2 table on stdout.

``python -m repro ops <state-dir>``
    Restore a persisted CI service (snapshot + journal replay, without
    mutating the journal) and print its operations report — pool runway,
    generation budgets, cache statistics, journal lag, reliability
    counters.  ``--json`` emits the machine-readable form.  ``--fsck``
    instead runs the read-only state-directory doctor
    (:mod:`repro.reliability.fsck`): snapshot classification, quarantined
    files, replay depth — exit code 2 when nothing is restorable.

Examples
--------
::

    python -m repro plan --condition "n - o > 0.02 +/- 0.01 /\\ d < 0.1 +/- 0.01" \\
        --reliability 0.9999 --adaptivity full --steps 32
    python -m repro plan --condition "n - o > 0.02 +/- 0.02" \\
        --reliability 0.998 --steps 7 --variance-bound 0.1
    python -m repro validate .travis.yml
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.estimators.api import SampleSizeEstimator
from repro.core.script.config import CIScript
from repro.exceptions import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ease.ml/ci sample-size estimation and script validation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="size a test condition")
    plan.add_argument(
        "--condition", required=True, help="DSL condition, e.g. 'n - o > 0.02 +/- 0.01'"
    )
    group = plan.add_mutually_exclusive_group(required=True)
    group.add_argument("--reliability", type=float, help="1 - delta, e.g. 0.9999")
    group.add_argument("--delta", type=float, help="failure budget directly")
    plan.add_argument(
        "--adaptivity",
        default="none",
        choices=["none", "full", "firstChange"],
        help="interaction mode (default: none)",
    )
    plan.add_argument("--steps", type=int, default=1, help="testset lifetime H")
    plan.add_argument(
        "--variance-bound",
        type=float,
        default=None,
        help="a-priori bound on consecutive-model prediction difference "
        "(enables the Pattern 2 optimization)",
    )
    plan.add_argument(
        "--baseline",
        action="store_true",
        help="disable the Section 4 optimizations (Hoeffding only)",
    )
    plan.add_argument(
        "--exact-binomial",
        action="store_true",
        help="size single-variable clauses by exact binomial inversion (§4.3)",
    )

    validate = sub.add_parser("validate", help="validate a script file")
    validate.add_argument("script", type=Path, help="path to the .travis.yml-style file")

    sub.add_parser("figure2", help="regenerate the paper's Figure 2 table")

    ops = sub.add_parser(
        "ops", help="operations report of a persisted CI service"
    )
    ops.add_argument(
        "state_dir",
        type=Path,
        help="state directory written by CIService.persist_to()",
    )
    ops.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable report instead of the table",
    )
    ops.add_argument(
        "--fsck",
        action="store_true",
        help="integrity-check the state directory instead of restoring it: "
        "classify snapshots, list quarantined files, measure replay depth "
        "(read-only — never repairs, truncates or journals)",
    )

    fleet = sub.add_parser(
        "fleet", help="operations report of a multi-tenant fleet root"
    )
    fleet.add_argument(
        "root",
        type=Path,
        help="fleet root directory owned by CIFleet (contains tenants/)",
    )
    fleet.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable report instead of the table",
    )
    fleet.add_argument(
        "--fsck",
        action="store_true",
        help="integrity-sweep every tenant state directory "
        "instead of reporting operations (read-only — never repairs)",
    )
    fleet.add_argument(
        "--tenant",
        metavar="ID",
        help="report one tenant's full CIService operations report instead "
        "of the fleet summary",
    )

    experiments = sub.add_parser(
        "experiments", help="run all E1-E9 experiments, writing JSON artifacts"
    )
    experiments.add_argument(
        "--output", type=Path, default=Path("results"), help="artifact directory"
    )
    experiments.add_argument(
        "--quick", action="store_true", help="shrink Monte-Carlo workloads"
    )
    return parser


def _run_plan(args: argparse.Namespace) -> int:
    from repro.stats.cache import all_cache_info

    before = {name: info.currsize for name, info in all_cache_info().items()}
    estimator = SampleSizeEstimator(
        optimizations="none" if args.baseline else "auto",
        use_exact_binomial=args.exact_binomial,
    )
    plan = estimator.plan(
        args.condition,
        reliability=args.reliability,
        delta=args.delta,
        adaptivity=args.adaptivity,
        steps=args.steps,
        known_variance_bound=args.variance_bound,
    )
    print(plan.describe())
    print()
    print("cache deltas (this process):")
    warmed = False
    for name, info in sorted(all_cache_info().items()):
        grown = info.currsize - before.get(name, 0)
        if grown > 0:
            warmed = True
            print(f"  {name:<42} +{grown} entries ({info.currsize} total)")
    if not warmed:
        print("  (all planning caches already warm)")
    return 0


def _run_validate(args: argparse.Namespace) -> int:
    script = CIScript.from_file(args.script)
    print("script is valid:")
    print(script.describe())
    plan = SampleSizeEstimator().plan(
        script.condition,
        delta=script.delta,
        adaptivity=script.adaptivity,
        steps=script.steps,
        known_variance_bound=script.variance_bound,
    )
    print()
    print(plan.describe())
    return 0


def _run_ops(args: argparse.Namespace) -> int:
    from repro.ci.service import CIService
    from repro.utils.serialization import dumps

    if args.fsck:
        from repro.reliability.fsck import fsck_state_dir

        report = fsck_state_dir(args.state_dir)
        print(dumps(report) if args.json else report.describe())
        return 0 if report.restorable else 2
    # Restore without recording: inspection must never mutate the journal
    # (and, with record=False, never quarantines corrupt snapshots either).
    service = CIService.resume(args.state_dir, record=False)
    report = service.operations()
    print(dumps(report) if args.json else report.describe())
    return 0


def _run_fleet(args: argparse.Namespace) -> int:
    from repro.fleet import CIFleet
    from repro.utils.serialization import dumps

    fleet = CIFleet(args.root, create=False)
    if args.fsck:
        report = fleet.fsck()
        print(dumps(report) if args.json else report.describe())
        return 0 if report.healthy else 2
    if not (args.root / "tenants").is_dir():
        print(f"error: no fleet root at {args.root}", file=sys.stderr)
        return 2
    if args.tenant:
        # Full single-tenant report: restored read-only, never resident.
        report = fleet.tenant_operations(args.tenant)
    else:
        report = fleet.operations()
    print(dumps(report) if args.json else report.describe())
    return 0


def _run_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_all

    records = run_all(args.output, quick=args.quick)
    for record in records:
        print(f"{record.experiment_id:16} -> {record.path}")
    print(f"wrote {len(records)} artifacts + summary.json to {args.output}/")
    return 0


def _run_figure2(_: argparse.Namespace) -> int:
    from repro.experiments.figure2 import run_figure2
    from repro.utils.formatting import Table, format_count

    table = Table(
        ["1-delta", "eps", "F1/F4 none", "F1/F4 full", "F2/F3 none", "F2/F3 full"],
        align=[">"] * 6,
        title="Figure 2: samples required, H = 32 ('*' = impractical)",
    )
    for row in run_figure2():
        flags = row.impractical()
        table.add_row(
            [
                row.reliability,
                row.tolerance,
                format_count(row.f1_none) + ("*" if flags["f1_none"] else ""),
                format_count(row.f1_full) + ("*" if flags["f1_full"] else ""),
                format_count(row.f2_none) + ("*" if flags["f2_none"] else ""),
                format_count(row.f2_full) + ("*" if flags["f2_full"] else ""),
            ]
        )
    print(table.render())
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "plan": _run_plan,
        "validate": _run_validate,
        "figure2": _run_figure2,
        "ops": _run_ops,
        "fleet": _run_fleet,
        "experiments": _run_experiments,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

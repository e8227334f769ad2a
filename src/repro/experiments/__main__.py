"""CLI for the experiment-sweep subsystem.

Commands::

    python -m repro.experiments list
    python -m repro.experiments run <name|all>[,name...] \
        [--parallel N] [--quick] [--seed S] [--out DIR]
    python -m repro.experiments compare RUN.json BASELINE.json \
        [--tolerance F] [--perf-tolerance F] [--strict-perf]

``run`` writes ``SWEEP_<date>.json`` + ``.csv`` under ``--out``
(default ``benchmarks/experiments/``) and prints one table per
scenario.  ``compare`` diffs a sweep artifact against a baseline sweep
artifact and exits non-zero only on deterministic-metric or correctness
regressions (timing drift warns unless ``--strict-perf``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.tables import render_table
from repro.errors import ExperimentError
from repro.experiments.artifacts import (
    DEFAULT_PERF_TOLERANCE,
    DEFAULT_TOLERANCE,
    compare,
    load_artifact,
    write_artifact,
)
from repro.experiments.runner import run_sweep
from repro.experiments.scenario import get, names

DEFAULT_OUT = Path("benchmarks") / "experiments"


def _print_summary(artifact) -> None:
    for name, block in artifact["scenarios"].items():
        cases = block["cases"]
        param_names = sorted({p for case in cases for p in case["params"]})
        metric_names = sorted({m for case in cases for m in case["metrics"]})
        rows = []
        for case in cases:
            rows.append(
                [str(case["params"].get(p, "")) for p in param_names]
                + [str(case["metrics"].get(m, "")) for m in metric_names]
            )
        print()
        print(
            render_table(
                param_names + metric_names,
                rows,
                title=f"{name}: {block['title']}",
            )
        )


def _cmd_list(args) -> int:
    rows = []
    for name in names():
        scenario = get(name)
        rows.append(
            (
                name,
                scenario.case_count(quick=False),
                scenario.case_count(quick=True),
                ",".join(scenario.tags) or "-",
                scenario.title,
            )
        )
    print(
        render_table(
            ["scenario", "cases", "quick", "tags", "title"],
            rows,
            title="registered scenarios",
        )
    )
    return 0


def _cmd_run(args) -> int:
    artifact = run_sweep(
        args.scenarios,
        quick=args.quick,
        parallel=args.parallel,
        base_seed=args.seed,
    )
    _print_summary(artifact)
    json_path, csv_path = write_artifact(artifact, args.out, stem=args.stem)
    print(f"\nwrote {json_path}\nwrote {csv_path}")
    return 0


def _cmd_compare(args) -> int:
    report = compare(
        load_artifact(args.run),
        load_artifact(args.baseline),
        tolerance=args.tolerance,
        perf_tolerance=args.perf_tolerance,
        strict_perf=args.strict_perf,
        run_path=str(args.run),
        baseline_path=str(args.baseline),
    )
    print(report.render())
    return report.exit_code()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments", description=__doc__
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered scenarios")

    run_parser = sub.add_parser("run", help="run a sweep")
    run_parser.add_argument(
        "scenarios",
        nargs="+",
        help="'all', scenario names, or comma-separated lists of names",
    )
    run_parser.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (1 = serial, same results either way)",
    )
    run_parser.add_argument(
        "--quick", action="store_true", help="reduced grids / short windows"
    )
    run_parser.add_argument(
        "--seed", type=int, default=0, help="base seed for per-case seeds"
    )
    run_parser.add_argument(
        "--out",
        type=Path,
        default=DEFAULT_OUT,
        help="artifact directory (default benchmarks/experiments/)",
    )
    run_parser.add_argument(
        "--stem", default=None, help="artifact file stem (default SWEEP_<date>)"
    )

    cmp_parser = sub.add_parser("compare", help="diff a run against a baseline")
    cmp_parser.add_argument("run", type=Path, help="sweep artifact JSON")
    cmp_parser.add_argument(
        "baseline", type=Path, help="baseline sweep artifact JSON"
    )
    cmp_parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="relative drift allowed on deterministic metrics",
    )
    cmp_parser.add_argument(
        "--perf-tolerance",
        type=float,
        default=DEFAULT_PERF_TOLERANCE,
        help="relative drift on timing metrics before warning",
    )
    cmp_parser.add_argument(
        "--strict-perf",
        action="store_true",
        help="promote timing-drift warnings to failures",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_compare(args)
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

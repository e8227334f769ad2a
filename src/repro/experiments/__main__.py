"""CLI for the experiment-sweep subsystem.

Commands::

    python -m repro.experiments list
    python -m repro.experiments run <name|all>[,name...] \
        [--parallel N] [--quick] [--seed S] [--out DIR]

``run`` writes ``SWEEP_<date>.json`` + ``.csv`` under ``--out``
(default ``benchmarks/experiments/``) and prints one table per
scenario.  A scenario that checks outputs or invariants raises on a
violation, and ``run`` then exits 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.tables import render_table
from repro.errors import ExperimentError
from repro.experiments.artifacts import write_artifact
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
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        return _cmd_run(args)
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

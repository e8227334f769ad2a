"""Experiment sweeps: declare, fan out, compare.

Runs a small campaign through :mod:`repro.experiments` — the same
subsystem behind ``python -m repro.experiments`` and CI's sweeps job
— and shows the three moves: run a sweep across worker processes,
render the per-scenario tables, and diff the run against a baseline
(here: a second run of the same seeded sweep, which must match).

Run:  python examples/experiment_sweep.py
"""

import tempfile
from pathlib import Path

from repro.analysis.tables import render_table
from repro.experiments import compare, get, run_sweep, write_artifact

SPEC = ["core_scaling", "mode_mix", "table3_comparison"]


def main() -> None:
    print("sweeping:", ", ".join(SPEC))
    for name in SPEC:
        scenario = get(name)
        print(f"  {name}: {scenario.case_count(quick=True)} case(s) — {scenario.title}")

    artifact = run_sweep(SPEC, quick=True, parallel=2, base_seed=42)

    for name, block in artifact["scenarios"].items():
        params = sorted({p for case in block["cases"] for p in case["params"]})
        metrics = sorted({m for case in block["cases"] for m in case["metrics"]})
        rows = [
            [str(case["params"].get(p, "")) for p in params]
            + [str(case["metrics"].get(m, "")) for m in metrics]
            for case in block["cases"]
        ]
        print()
        print(render_table(params + metrics, rows, title=block["title"]))

    with tempfile.TemporaryDirectory() as tmp:
        json_path, csv_path = write_artifact(artifact, Path(tmp), stem="DEMO")
        print(f"\nartifacts: {json_path.name} + {csv_path.name} (in a tempdir)")

        # Re-run the same seeded sweep serially: deterministic metrics
        # must match case for case — this is what lets CI gate PRs.
        rerun = run_sweep(SPEC, quick=True, parallel=1, base_seed=42)
        report = compare(rerun, artifact)
        print(report.render())
        assert report.ok, "a seeded sweep must reproduce itself"


if __name__ == "__main__":
    main()

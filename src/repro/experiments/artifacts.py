"""Artifact emission and baseline comparison for experiment sweeps.

The artifact schema is ``repro.experiments/1``: the sweep artifact
:func:`repro.experiments.runner.run_sweep` produces (JSON, plus a flat
CSV twin for spreadsheet/pandas consumption).  :func:`compare` diffs
one sweep artifact against another.

Comparison semantics
--------------------
Deterministic metrics — simulated cycles, throughput derived from
cycles, correctness booleans, output digests — must match the baseline
within ``tolerance`` (exact for bools/strings); a mismatch is a
**failure** and :func:`ComparisonReport.exit_code` returns 1.  Metrics a
scenario declares as ``timing_metrics`` (wall-clock seconds, ops/s)
only **warn** on drift unless ``strict_perf``: shared runners make
timing noisy, and host speed is measured by ``perfbench/``, not by
sweeps.  Crypto correctness, by contrast, fails hard — that is the
point of the gate.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.errors import ExperimentError

#: Relative drift allowed on deterministic numeric metrics.
DEFAULT_TOLERANCE = 0.02
#: Relative drift on wall-clock metrics before a warning is emitted.
DEFAULT_PERF_TOLERANCE = 0.5


def write_artifact(
    artifact: Dict[str, object], out_dir, stem: Optional[str] = None
) -> Tuple[Path, Path]:
    """Write the sweep artifact as ``<stem>.json`` + ``<stem>.csv``.

    Returns ``(json_path, csv_path)``.  The default stem embeds the run
    date (``SWEEP_<date>``).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = stem or f"SWEEP_{artifact['date']}"
    json_path = out_dir / f"{stem}.json"
    csv_path = out_dir / f"{stem}.csv"
    json_path.write_text(json.dumps(artifact, indent=2) + "\n")
    with csv_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["scenario", "case", "params", "seed", "metric", "value"])
        for name, block in artifact["scenarios"].items():
            for index, case in enumerate(block["cases"]):
                params = json.dumps(case["params"], sort_keys=True)
                for metric, value in case["metrics"].items():
                    writer.writerow(
                        [name, index, params, case["seed"], metric, value]
                    )
    return json_path, csv_path


def load_artifact(path) -> Dict[str, object]:
    """Load a JSON sweep artifact."""
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ExperimentError(f"cannot load artifact {path}: {exc}") from exc


@dataclass
class ComparisonReport:
    """Outcome of a run-vs-baseline comparison."""

    run_path: str
    baseline_path: str
    checked: int = 0
    failures: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the run passed the gate (warnings allowed)."""
        return not self.failures

    def exit_code(self) -> int:
        """CLI exit status: 0 on pass (warnings allowed), 1 on failure."""
        return 0 if self.ok else 1

    def render(self) -> str:
        """Human-readable summary for the CLI / CI log."""
        lines = [
            f"compare: {self.run_path} vs baseline {self.baseline_path}",
            f"  {self.checked} metric(s) checked, "
            f"{len(self.failures)} failure(s), {len(self.warnings)} warning(s)",
        ]
        lines.extend(f"  FAIL  {msg}" for msg in self.failures)
        lines.extend(f"  warn  {msg}" for msg in self.warnings)
        lines.append("RESULT: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def _relative_drift(value: float, base: float) -> float:
    if base == 0:
        return 0.0 if value == 0 else float("inf")
    return abs(value - base) / abs(base)


def compare(
    run: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: float = DEFAULT_TOLERANCE,
    perf_tolerance: float = DEFAULT_PERF_TOLERANCE,
    strict_perf: bool = False,
    run_path: str = "<run>",
    baseline_path: str = "<baseline>",
) -> ComparisonReport:
    """Compare a sweep *run* against a *baseline* sweep artifact.

    ``strict_perf`` promotes timing-drift warnings to failures (for
    dedicated perf runners where the clock can be trusted).
    """
    report = ComparisonReport(run_path=run_path, baseline_path=baseline_path)
    if "scenarios" not in run:
        raise ExperimentError(
            "run artifact is not a sweep artifact (missing 'scenarios'); "
            "the left-hand side of compare must come from "
            "'repro.experiments run'"
        )
    if "scenarios" not in baseline:
        raise ExperimentError(
            "baseline artifact is not a sweep artifact (missing 'scenarios')"
        )
    _compare_sweep(run, baseline, tolerance, perf_tolerance, strict_perf, report)
    return report


def _compare_metric(
    where: str,
    metric: str,
    value,
    base,
    is_timing: bool,
    tolerance: float,
    perf_tolerance: float,
    strict_perf: bool,
    report: ComparisonReport,
) -> None:
    report.checked += 1
    if is_timing:
        if not isinstance(base, (int, float)) or isinstance(base, bool):
            return
        drift = _relative_drift(float(value), float(base))
        if drift > perf_tolerance:
            message = (
                f"{where} {metric}: {value} vs baseline {base} "
                f"({drift:.0%} drift > {perf_tolerance:.0%})"
            )
            if strict_perf:
                report.failures.append(message)
            else:
                report.warnings.append(message)
        return
    if isinstance(base, bool) or isinstance(base, str):
        if value != base:
            report.failures.append(f"{where} {metric}: {value!r} != {base!r}")
    elif isinstance(base, (int, float)):
        drift = _relative_drift(float(value), float(base))
        if drift > tolerance:
            report.failures.append(
                f"{where} {metric}: {value} vs baseline {base} "
                f"({drift:.1%} drift > {tolerance:.1%})"
            )


def _compare_sweep(run, baseline, tolerance, perf_tolerance, strict_perf, report):
    run_scenarios = run["scenarios"]
    for name, base_block in baseline["scenarios"].items():
        run_block = run_scenarios.get(name)
        if run_block is None:
            report.failures.append(f"scenario {name!r} missing from run")
            continue
        timing = tuple(base_block.get("timing_metrics", ()))
        base_cases = {
            json.dumps(case["params"], sort_keys=True): case
            for case in base_block["cases"]
        }
        run_cases = {
            json.dumps(case["params"], sort_keys=True): case
            for case in run_block["cases"]
        }
        for key, base_case in base_cases.items():
            run_case = run_cases.get(key)
            if run_case is None:
                # Quick runs legitimately cover a sub-grid of a full
                # baseline; a missing case is only a coverage warning.
                report.warnings.append(f"{name} case {key} not in run")
                continue
            where = f"{name}{base_case['params']}"
            for metric, base_value in base_case["metrics"].items():
                if metric not in run_case["metrics"]:
                    report.failures.append(f"{where} metric {metric!r} missing")
                    continue
                is_timing = any(
                    metric == t or metric.endswith(t) for t in timing
                )
                _compare_metric(
                    where,
                    metric,
                    run_case["metrics"][metric],
                    base_value,
                    is_timing,
                    tolerance,
                    perf_tolerance,
                    strict_perf,
                    report,
                )

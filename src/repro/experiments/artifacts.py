"""Artifact emission for experiment sweeps.

The artifact schema is ``repro.experiments/1``: the sweep artifact
:func:`repro.experiments.runner.run_sweep` produces, written as JSON
plus a flat CSV twin for spreadsheet/pandas consumption.  Artifacts
record figures; the scenarios themselves raise on a broken invariant.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, Optional, Tuple


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

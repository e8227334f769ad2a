#!/usr/bin/env python
"""CI gate: the overload invariant on bounded, admission-controlled runs.

Runs the ``overload_sweep`` scenario's exact cell
(:func:`repro.experiments.scenarios.overload.run_overload_cell` — a
three-class workload offered over capacity on bounded channels) and
hard-fails unless the invariant holds::

    PYTHONPATH=src python benchmarks/gate_overload.py

Checked in the cell itself: shed packets never count as auth failures
or dead letters, ``packets_done + shed`` covers the offered load,
queues stay at or under their watermark, the shed set reproduces
across the batched and pipelined dataplanes and across repeats,
admitted packets are byte-identical (payload, tag, per-channel order)
to the unthrottled run, and the SLA holds (control-class protected,
bulk absorbs the shedding).  This script additionally pins the shed
set *across execution backends* — inline and process must shed
the exact same ``(channel, sequence)`` pairs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

if __package__ is None and __name__ == "__main__":  # script invocation
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dataclasses import replace

from repro.errors import ExperimentError
from repro.experiments.scenarios.overload import (
    _configs,
    _spec,
    run_overload_cell,
)
from repro.radio.sdr_platform import SdrPlatform


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--capacity", type=int, default=4, help="bounded-queue watermark"
    )
    parser.add_argument(
        "--packets", type=int, default=24, help="packets per channel"
    )
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args(argv)

    try:
        metrics = run_overload_cell(
            "saturating", args.capacity, "inline", args.seed,
            packets=args.packets,
        )
    except ExperimentError as exc:
        print(f"FAIL: {exc}")
        return 1
    for key, value in metrics.items():
        print(f"{key:22s} {value}")

    # Cross-backend shed identity: the same storm throttled on every
    # execution backend must shed the exact same packets.
    configs = _configs("saturating", args.packets)
    spec = _spec(configs, args.capacity, None, "batched")
    shed_sets = {}
    for backend in ("inline", "process:2"):
        report = SdrPlatform(core_count=4, seed=args.seed).run_workload(
            replace(spec, backend=backend)
        )
        shed_sets[backend] = report.shed_packets
    first = shed_sets["inline"]
    for backend, shed in shed_sets.items():
        if shed != first:
            print(
                f"FAIL: backend {backend} shed set differs from inline "
                f"({len(shed)} vs {len(first)} packets)"
            )
            return 1
    print(f"shed set identical across {', '.join(shed_sets)} "
          f"({len(first)} packets)")
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""CI gate: the process backend must stay byte-identical and healthy.

Runs the ``backend_sweep`` scenario's exact measurement
(:func:`repro.experiments.scenarios.backends.measure_backends` — the
mixed seal+open 2 KB CCM batch on the inline and process backends),
the pipelined-vs-synchronous and adaptive-vs-static radio legs on the
process backend, and a worker-crash chaos leg::

    PYTHONPATH=src python benchmarks/gate_backends.py \\
        --min-auto-over-default 0.9 --width 32

One perf gate, scoped to hosts that can express it:

- **adaptive controller** (``FlushPolicy(mode="auto")``): auto must
  reach 95% of the static kernel's packets/s (warn below), and on
  >= 4-CPU runners it hard-fails under ``--min-auto-over-default``
  (default 0.9) of the static default — the 10% margin absorbs
  wall-clock jitter on shared runners; the byte-identity half of the
  check fails hard anywhere.

Byte equality across the backend legs, the pipelined-dataplane
identity, and the worker-crash chaos leg (survivor transcripts
byte-identical, arena slab reclaimed) are checked unconditionally and
fail hard anywhere — correctness has no CPU-count excuse.  On >= 2
CPUs the gate also fails when the process leg ended in its inline
state (``inline_reason`` set): its legs would then pass vacuously.  Packets/s
of the process backend over inline and of pipelined over synchronous
are reported, warn-only.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

if __package__ is None and __name__ == "__main__":  # script invocation
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.kernels import (
    measure_autotune,
    measure_chaos_identity,
    measure_pipelined,
)
from repro.experiments.scenarios.backends import measure_backends


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--min-auto-over-default", type=float, default=0.9,
        help="required auto-over-static packets/s ratio on the process "
        "backend (>= 4 CPUs only; the margin under 1.0 absorbs "
        "wall-clock jitter on shared runners)",
    )
    parser.add_argument(
        "--width", type=int, default=32, help="packets per coalesced batch"
    )
    parser.add_argument(
        "--seconds", type=float, default=0.5,
        help="measurement window per backend",
    )
    args = parser.parse_args(argv)

    measured = measure_backends(args.width, args.seconds)
    cpu_count = measured["cpu_count"]
    print(f"cpu_count={cpu_count} width={args.width} window={args.seconds}s")
    for name, rate in measured["rates"].items():
        print(
            f"{name:14s} {rate:10.1f} packets/s "
            f"({measured['workers'][name]} worker(s))"
        )
    inline_reason = measured["process_inline_reason"]
    print(f"arena_active={measured['arena_active']}")
    print(f"process_inline_reason={inline_reason or None}")

    failures = []

    if not measured["correct"]:
        failures.append("backends disagree byte-for-byte")
    if inline_reason and cpu_count >= 2:
        # Every process leg below would compare inline with itself.
        failures.append(
            f"process backend ran inline on {cpu_count} CPUs: {inline_reason}"
        )

    rates = measured["rates"]
    print(
        f"process speedup over inline: {rates['process'] / rates['inline']:.2f}x "
        "(warn-only)"
    )

    # Pipelined dataplane check: byte/order/stamp identity against the
    # synchronous dataplane fails hard anywhere; the packets/s ratio is
    # warn-only (and only meaningful on >= 2 CPUs, where sim-time
    # coalescing can genuinely overlap worker crypto).
    piped = measure_pipelined(args.width, args.seconds)
    pipe_rates = piped["rates"]
    for name, rate in pipe_rates.items():
        print(f"{name:12s} {rate:10.1f} packets/s (process dataplane)")
    if not piped["identical"]:
        failures.append("pipelined dataplane diverges from synchronous")
    pipelined_speedup = pipe_rates["pipelined"] / pipe_rates["synchronous"]
    print(
        f"pipelined speedup over synchronous: {pipelined_speedup:.2f}x "
        "(warn-only)"
    )
    if cpu_count >= 2 and pipelined_speedup < 1.0:
        print(
            "warn: pipelined dataplane slower than synchronous on a "
            "multi-core host (expected overlap did not materialise)"
        )

    # Adaptive-controller leg: FlushPolicy(mode="auto") vs the static
    # width on the same stream.  Byte identity fails hard anywhere;
    # auto within 5% of the static leg warns below; on >= 4 CPUs auto
    # must hold --min-auto-over-default of the static rate or the gate
    # fails.
    tuned = measure_autotune(args.width, args.seconds)
    for name, rate in tuned["rates"].items():
        print(f"{name:14s} {rate:10.1f} packets/s (auto leg)")
    if not tuned["identical"]:
        failures.append("adaptive flush controller changed payload bytes")
    auto_over_static = (
        tuned["rates"]["auto_process"] / tuned["rates"]["static_process"]
    )
    print(
        f"auto over static: {auto_over_static:.2f}x "
        f"(adjustments traced: {sum(1 for d in tuned['trace'] if d['cause'].startswith(('widen', 'deadline')))})"
    )
    if auto_over_static < 0.95:
        print("warn: auto under 95% of the static kernel's packets/s")

    # Chaos leg: one worker_crash while an arena slab is in flight, on
    # both dataplanes.  Survivors byte-identical and slab reclaimed, or
    # the gate fails — anywhere, any CPU count.
    chaos = measure_chaos_identity(args.width)
    for dataplane, verdict in chaos.items():
        print(
            f"chaos {dataplane:10s} identical={verdict['identical']} "
            f"slab_reclaimed={verdict['slab_reclaimed']}"
        )
        if not verdict["identical"]:
            failures.append(
                f"worker_crash on the {dataplane} dataplane changed bytes"
            )
        if not verdict["slab_reclaimed"]:
            failures.append(
                f"worker_crash on the {dataplane} dataplane leaked an "
                "arena generation"
            )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1

    if cpu_count < 4:
        print(
            f"auto gate skipped: {cpu_count} CPU(s) (hard-fail floor "
            f"{args.min_auto_over_default:.2f}x applies on >= 4)"
        )
    elif auto_over_static < args.min_auto_over_default:
        print(
            f"FAIL: auto {auto_over_static:.2f}x static on the process "
            f"backend < {args.min_auto_over_default:.2f}x on {cpu_count} CPUs"
        )
        return 1

    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())

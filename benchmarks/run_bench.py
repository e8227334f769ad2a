#!/usr/bin/env python
"""Standalone bench runner: ops/s per kernel, emitted as JSON.

Thin CLI over :mod:`repro.experiments.kernels` (where the kernel
definitions moved when the ``repro.experiments`` sweep subsystem
absorbed the benchmarks — see ``python -m repro.experiments`` for the
full campaign runner).  Kept because its ``BENCH_<date>.json`` schema
is the committed perf baseline CI's perf-smoke job compares against::

    PYTHONPATH=src python benchmarks/run_bench.py          # full run
    PYTHONPATH=src python benchmarks/run_bench.py --quick  # smoke run

The JSON maps benchmark name to ops/s and derives a ``speedups``
section for every ``<name>_fast`` / ``<name>_reference`` pair, which is
where the fast-engine acceptance numbers (AES-CTR, GHASH >= 10x) are
recorded.  The test suite smoke-invokes ``main(["--quick", ...])``.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import os
import platform
import re
import sys
from pathlib import Path

if __package__ is None and __name__ == "__main__":  # script invocation
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.crypto.fast import fast_enabled
from repro.crypto.fast.aes_vector import HAVE_NUMPY
from repro.crypto.fast.exec import default_backend
from repro.experiments.kernels import (
    BATCH_PACKETS,
    PIPELINE_STREAM_PACKETS,
    bench_backend,
    build_kernels,
    measure,
)
from repro.resilience import stats as resilience_stats


def main(argv=None) -> Path:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", type=Path, default=Path(__file__).resolve().parent,
        help="directory for the BENCH_<date>.json snapshot",
    )
    parser.add_argument(
        "--seconds", type=float, default=0.4,
        help="measurement window per benchmark",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke mode: ~20 ms per benchmark (for the test suite)",
    )
    parser.add_argument(
        "--stem", default=None,
        help="snapshot filename stem (default BENCH_<date>; pass e.g. "
        "BENCH_<date>b to snapshot twice on one day without clobbering)",
    )
    args = parser.parse_args(argv)
    window = 0.02 if args.quick else args.seconds

    results = {}
    with resilience_stats.counting() as recovery:
        for name, fn in build_kernels().items():
            ops_per_s, iters = measure(fn, window)
            results[name] = {"ops_per_s": round(ops_per_s, 2), "iterations": iters}
            print(f"{name:28s} {ops_per_s:12.1f} ops/s  ({iters} iters)")

    speedups = {}
    for name in results:
        if name.endswith("_fast"):
            ref = name[: -len("_fast")] + "_reference"
            if ref in results and results[ref]["ops_per_s"]:
                speedups[name[: -len("_fast")]] = round(
                    results[name]["ops_per_s"] / results[ref]["ops_per_s"], 2
                )
        # Batch kernels (one op = N packets): derive the per-packet
        # speedup over the sequential fast kernel they accelerate.
        batch = re.fullmatch(r"(.+)_batch(\d+)_fast", name)
        if batch and f"{batch[1]}_fast" in results:
            base = results[f"{batch[1]}_fast"]["ops_per_s"]
            if base:
                speedups[f"{batch[1]}_batch{batch[2]}_per_packet"] = round(
                    results[name]["ops_per_s"] * int(batch[2]) / base, 2
                )
        # Backend-parametrized batch kernels: speedup over the inline
        # batch kernel with the same packets (the CI gate's numbers).
        pooled = re.fullmatch(r"(.+_batch\d+)_process_fast", name)
        if pooled and f"{pooled[1]}_fast" in results:
            base = results[f"{pooled[1]}_fast"]["ops_per_s"]
            if base:
                speedups[f"{pooled[1]}_process_over_inline"] = round(
                    results[name]["ops_per_s"] / base, 2
                )
        # Pipelined dataplane kernels vs their synchronous backend twin.
        # Ops aren't packet-comparable (a pipelined op streams
        # PIPELINE_STREAM_PACKETS, the sync twin BATCH_PACKETS), so the
        # ratio is packets/s over packets/s.
        piped = re.fullmatch(r"(.+_batch\d+)_pipelined_process_fast", name)
        if piped and f"{piped[1]}_process_fast" in results:
            base = results[f"{piped[1]}_process_fast"]["ops_per_s"]
            if base:
                pipelined_pps = results[name]["ops_per_s"] * PIPELINE_STREAM_PACKETS
                speedups[f"{piped[1]}_pipelined_process_over_sync"] = round(
                    pipelined_pps / (base * BATCH_PACKETS), 2
                )
    for pair, ratio in sorted(speedups.items()):
        print(f"speedup {pair:34s} {ratio:8.1f}x")

    # Execution-backend context: cross-machine comparisons of the
    # *_process kernels are meaningless without the worker and CPU
    # counts (a 1-CPU runner can never beat inline).
    process_backend = bench_backend("process")
    snapshot = {
        "date": _dt.date.today().isoformat(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "fast_enabled": fast_enabled(),
        "have_numpy": HAVE_NUMPY,
        "window_seconds": window,
        "backend": default_backend().name,
        "backend_workers": {"process": process_backend.workers},
        # The *_process kernels are meaningless without knowing whether
        # the shared-memory arena actually engaged on this host, and if
        # not, why the process backend ran inline.
        "arena_active": process_backend.dispatch_arena() is not None,
        "process_inline_reason": process_backend.inline_reason,
        "cpu_count": os.cpu_count(),
        # Recovery counters accrued while benchmarking: a non-zero
        # retry/degradation count here flags that the timing numbers
        # were taken on a struggling host.
        "resilience": recovery.as_dict(),
        "benchmarks": results,
        "speedups": speedups,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = args.stem or f"BENCH_{snapshot['date']}"
    out_path = args.out / f"{stem}.json"
    out_path.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"wrote {out_path}")
    return out_path


if __name__ == "__main__":
    main()

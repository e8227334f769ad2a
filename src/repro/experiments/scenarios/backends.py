"""Execution-backend comparison as a sweepable scenario.

One case = one coalesce width: a mixed seal+open 2 KB packet batch runs
through :func:`repro.crypto.fast.batch.seal_open_many` on the inline
and process backends, measuring packets/s each way.  The ``correct``
bool (deterministic — baseline comparison fails hard on it) pins both
backends byte-identical; the packets/s numbers and the derived speedup
are timing metrics, so drift warns.  ``benchmarks/gate_backends.py``
runs the same measurement in CI; this scenario records it inside every
sweep artifact, plus the worker/CPU context needed to read the numbers
across machines.
"""

from __future__ import annotations

import os

from repro.crypto.fast.batch import seal_open_many
from repro.crypto.fast.exec import InlineBackend, ProcessPoolBackend
from repro.experiments.kernels import measure
from repro.experiments.scenario import register
from repro.experiments.scenarios._util import deterministic_bytes

KEY = bytes(range(16))


def _mixed_batch(width: int, seed: int):
    """Half seal / half open 2 KB CCM traffic at coalesce width *width*."""
    payloads = [
        deterministic_bytes(2048, seed + index) for index in range(width)
    ]
    seal_packets = [
        ((index + 1).to_bytes(13, "big"), payload)
        for index, payload in enumerate(payloads[: width // 2])
    ]
    open_seed = [
        ((width + index + 1).to_bytes(13, "big"), payload)
        for index, payload in enumerate(payloads[width // 2 :])
    ]
    sealed, _ = seal_open_many("ccm", KEY, open_seed, [], 8)
    open_packets = [
        (nonce, ciphertext, tag)
        for (nonce, _), (ciphertext, tag) in zip(open_seed, sealed)
    ]
    return seal_packets, open_packets


def measure_backends(width: int, window: float, seed: int = 0) -> dict:
    """Measure the mixed batch on inline and process; one source of
    truth shared by the ``backend_sweep`` scenario and CI's
    ``benchmarks/gate_backends.py`` so the gate and the sweep artifact
    can never drift apart on what they measure.

    Returns ``rates`` (backend name -> packets/s), the cross-backend
    byte-equality ``correct`` bool, per-backend ``workers``,
    ``cpu_count`` and the process backend's ``process_inline_reason``
    ("" when it ran real workers).
    """
    seal_packets, open_packets = _mixed_batch(width, seed)
    backends = {"inline": InlineBackend(), "process": ProcessPoolBackend()}
    try:
        outputs = {}
        rates = {}
        for name, backend in backends.items():
            outputs[name] = seal_open_many(
                "ccm", KEY, seal_packets, open_packets, 8, backend=backend
            )
            ops_per_s, _ = measure(
                lambda b=backend: seal_open_many(
                    "ccm", KEY, seal_packets, open_packets, 8, backend=b
                ),
                window,
            )
            rates[name] = ops_per_s * width
        process = backends["process"]
        return {
            "correct": all(
                output == outputs["inline"] for output in outputs.values()
            ),
            "rates": rates,
            "workers": {
                name: backend.workers for name, backend in backends.items()
            },
            "cpu_count": os.cpu_count() or 1,
            "arena_active": process.dispatch_arena() is not None,
            "process_inline_reason": process.inline_reason or "",
        }
    finally:
        for backend in backends.values():
            backend.close()


@register(
    name="backend_sweep",
    title="Execution backends: mixed seal+open packets/s per backend",
    description="2 KB CCM seal+open batches through seal_open_many on "
    "the inline and process backends; byte equality is the "
    "deterministic gate, packets/s and the speedup are timing metrics.",
    grid={"width": [8, 32]},
    quick_grid={"width": [32]},
    tags=("timing", "perf", "backend"),
    timing_metrics=(
        "inline_pps",
        "process_pps",
        "process_speedup",
        "arena_active",
        "workers",
        "cpu_count",
        "process_inline_reason",
    ),
)
def backend_sweep(params, seed, quick):
    """Measure one width on every backend leg; verify byte equality."""
    measured = measure_backends(params["width"], 0.01 if quick else 0.2, seed)
    rates = measured["rates"]
    return {
        "correct": measured["correct"],
        "inline_pps": round(rates["inline"], 2),
        "process_pps": round(rates["process"], 2),
        "process_speedup": round(rates["process"] / rates["inline"], 3),
        "arena_active": measured["arena_active"],
        "workers": measured["workers"]["process"],
        "cpu_count": measured["cpu_count"],
        "process_inline_reason": measured["process_inline_reason"],
    }

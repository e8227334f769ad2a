"""Execution backends: the same batch, two places to run it.

Shows the `repro.crypto.fast.exec` seam end to end — seal a mixed
seal+open CCM batch on the inline and process backends, verify the
byte-identical guarantee, then drive a small radio workload with
`WorkloadSpec(backend=...)` plus receive-side traffic (loss and tag
corruption) and read the report.

Run:  python examples/execution_backends.py
"""

import os
import random

from repro.crypto.fast.batch import ccm_seal_many, seal_open_many
from repro.crypto.fast.exec import InlineBackend, ProcessPoolBackend
from repro.mccp.channel import FlushPolicy
from repro.radio.sdr_platform import ChannelConfig, SdrPlatform, WorkloadSpec
from repro.radio.standards import RadioStandard
from repro.radio.traffic import TrafficPattern

KEY = bytes(range(16))
WIDTH = 32


def crypto_layer() -> None:
    """seal_open_many takes a backend directly."""
    rng = random.Random(7)
    seal_packets = [
        ((i + 1).to_bytes(13, "big"), rng.randbytes(2048))
        for i in range(WIDTH // 2)
    ]
    sealed = ccm_seal_many(KEY, seal_packets, 8)
    open_packets = [
        (nonce, ciphertext, tag)
        for (nonce, _), (ciphertext, tag) in zip(seal_packets, sealed)
    ]

    backends = {"inline": InlineBackend(), "process": ProcessPoolBackend()}
    results = {}
    try:
        for name, backend in backends.items():
            results[name] = seal_open_many(
                "ccm", KEY, seal_packets, open_packets, 8, backend=backend
            )
            print(
                f"  {name:8s} {backend.workers} worker(s)"
                + (
                    f"  [degraded: {backend.degraded_reason}]"
                    if getattr(backend, "degraded_reason", None)
                    else ""
                )
            )
    finally:
        for backend in backends.values():
            backend.close()
    assert results["inline"] == results["process"]
    print("  both backends byte-identical "
          f"({WIDTH // 2} seals + {WIDTH // 2} opens)")


def dataplane_layer() -> None:
    """WorkloadSpec(backend=...) with receive-side traffic."""
    configs = [
        ChannelConfig(
            RadioStandard.WIFI, bytes(16), TrafficPattern.SATURATING,
            packets=24,
        ),
        ChannelConfig(
            RadioStandard.TACTICAL_VOICE, bytes(16),
            TrafficPattern.SATURATING, packets=24,
        ),
    ]
    platform = SdrPlatform(core_count=4, seed=42)
    report = platform.run_workload(
        WorkloadSpec(
            configs,
            dataplane="batched",
            flush_policy=FlushPolicy(coalesce_limit=8, flush_deadline=4096),
            backend="process",
            rx_fraction=0.5,
            loss_rate=0.1,
            corrupt_rate=0.2,
        )
    )
    print(f"  packets done      {report.packets_done}")
    print(f"  rx packets        {report.rx_packets} ({report.rx_lost} lost)")
    print(f"  auth failures     {report.auth_failures} (forged tags rejected)")
    print(f"  batch dispatches  {report.batches} "
          f"(mean width {report.mean_batch_width():.1f})")
    print(f"  throughput        {report.throughput_mbps():.0f} Mbps @ 190 MHz")


def main() -> None:
    print(f"host: {os.cpu_count()} CPU(s); "
          f"REPRO_BACKEND={os.environ.get('REPRO_BACKEND', '(unset: inline)')}")
    print("crypto layer (seal_open_many):")
    crypto_layer()
    print("dataplane layer (run_workload):")
    dataplane_layer()


if __name__ == "__main__":
    main()

"""A mono-core iterative accelerator baseline (paper section I).

"A classical mono-core approach either provides limited throughput or
does not allow simple management of multi-channel streams."  This
baseline is exactly one MCCP cryptographic core behind a single-entry
scheduler: same loop periods, no parallelism, channels strictly
serialised.  The multi-channel benchmarks use it to show the 4x gap
that motivates the MCCP.
"""

from __future__ import annotations

from repro.core.params import Algorithm
from repro.unit.timing import DEFAULT_TIMING, TimingModel


class MonoCoreAccelerator:
    """Analytic single-core device with MCCP-identical per-block costs."""

    def __init__(self, timing: TimingModel = DEFAULT_TIMING, clock_hz: float = 190e6):
        self.timing = timing
        self.clock_hz = clock_hz

    def packet_cycles(
        self, algorithm: Algorithm, key_bits: int, data_blocks: int, aad_blocks: int = 0
    ) -> int:
        """Cycle cost of one packet (loop model + fixed overhead)."""
        overhead = 12 * self.timing.cu_chain_cycles + 2 * self.timing.saes_faes_pair(
            key_bits
        )
        if algorithm is Algorithm.GCM:
            loop = self.timing.gcm_loop(key_bits)
            aad_cost = aad_blocks * self.timing.gcm_loop(key_bits)
        elif algorithm is Algorithm.CCM:
            loop = self.timing.ccm_one_core_loop(key_bits)
            aad_cost = aad_blocks * self.timing.cbc_loop(key_bits)
        elif algorithm is Algorithm.CTR:
            loop = self.timing.gcm_loop(key_bits)
            aad_cost = 0
        elif algorithm is Algorithm.CBC_MAC:
            loop = self.timing.cbc_loop(key_bits)
            aad_cost = 0
        else:
            raise ValueError(f"unsupported algorithm {algorithm!r}")
        return overhead + aad_cost + data_blocks * loop

    def throughput_mbps(
        self, algorithm: Algorithm, key_bits: int, data_blocks: int = 128
    ) -> float:
        """Steady-state single-stream throughput."""
        cycles = self.packet_cycles(algorithm, key_bits, data_blocks)
        return 128 * data_blocks * self.clock_hz / cycles / 1e6

"""A pipelined GCM engine baseline (Lemsitzer et al. [1] style).

Section II.B: fully unrolled pipelined cores reach tens of Gbps on one
stream, but (a) cost far more area, (b) cannot run feedback modes like
CBC-MAC/CCM at full rate (the pipeline drains to one block per pass),
and (c) juggle multi-standard channels poorly.  This analytic +
functional model captures all three effects so the Table III benchmark
can show the trade-off rather than assert it.
"""

from __future__ import annotations

from repro.crypto.aes import AES
from repro.crypto.modes.gcm import gcm_encrypt
from repro.errors import ProtocolError


class PipelinedGcmEngine:
    """An unrolled, pipelined AES-GCM engine model."""

    #: Pipeline depth: one stage per AES round plus I/O stages.
    PIPELINE_STAGES = 12
    #: Area model after [1] (v4-FX100: 6000 slices / 30 BRAM).
    SLICES = 6000
    BRAMS = 30

    def __init__(self, clock_hz: float = 140e6):
        self.clock_hz = clock_hz

    # -- timing model -----------------------------------------------------------

    def gcm_packet_cycles(self, data_blocks: int) -> int:
        """Pipelined GCM: one block per cycle after the fill latency."""
        if data_blocks < 0:
            raise ProtocolError("negative block count")
        return self.PIPELINE_STAGES + data_blocks

    def cbc_packet_cycles(self, data_blocks: int) -> int:
        """Feedback mode on a pipelined core: the pipeline is wasted.

        Each block must traverse the whole pipeline before the next can
        enter (data dependency), so the unrolled datapath degrades to
        one block per PIPELINE_STAGES cycles — the section II.B
        argument for why CCM "makes unrolled implementations useless".
        """
        return self.PIPELINE_STAGES * max(data_blocks, 1)

    def gcm_throughput_mbps(self, data_blocks: int = 128) -> float:
        """Single-stream GCM throughput."""
        cycles = self.gcm_packet_cycles(data_blocks)
        return 128 * data_blocks * self.clock_hz / cycles / 1e6

    def ccm_throughput_mbps(self, data_blocks: int = 128) -> float:
        """CCM-style feedback throughput (the collapse)."""
        cycles = self.cbc_packet_cycles(data_blocks) + self.gcm_packet_cycles(
            data_blocks
        )
        return 128 * data_blocks * self.clock_hz / cycles / 1e6

    def mbps_per_mhz(self, data_blocks: int = 128) -> float:
        """Normalised GCM throughput (Table III's metric)."""
        return self.gcm_throughput_mbps(data_blocks) / (self.clock_hz / 1e6)

    # -- functional model ----------------------------------------------------------

    @staticmethod
    def encrypt(key: bytes, iv: bytes, plaintext: bytes, aad: bytes = b""):
        """Functionally identical to any correct GCM (gold model)."""
        return gcm_encrypt(key, iv, plaintext, aad)

    @staticmethod
    def cipher(key: bytes) -> AES:
        """Expose the underlying block cipher for tests."""
        return AES(key)

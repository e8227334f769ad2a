"""Section VII.A's loop-cycle equations, as checkable functions.

    T_GCMloop  = T_CTR = T_SAES + T_FAES                 = 49
    T_CCMloop (2 cores) = T_CBC = T_SAES + T_FAES + T_XOR = 55
    T_CCMloop (1 core)  = T_CTR + T_CBC                   = 104

with "+8 cycles for 192-bit keys and 8 more for 256-bit keys" per AES
pass.  ``paper_loop_cycles`` returns the paper's numbers; ``LoopModel``
recomputes them from the timing model; the E1 benchmark/tests compare
both against the *measured* steady-state periods of simulated firmware.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.unit.timing import DEFAULT_TIMING, TimingModel

#: The paper's published loop periods for 128-bit keys.
PAPER_T_GCM_128 = 49
PAPER_T_CBC_128 = 55
PAPER_T_CCM1_128 = 104
PAPER_KEYSTEP_EXTRA = 8


def paper_loop_cycles(mode: str, key_bits: int) -> int:
    """The paper's loop period for *mode* ('gcm'|'ctr'|'cbc'|'ccm1'|'ccm2')."""
    step = {128: 0, 192: 1, 256: 2}[key_bits]
    base = {
        "gcm": PAPER_T_GCM_128,
        "ctr": PAPER_T_GCM_128,
        "cbc": PAPER_T_CBC_128,
        "ccm2": PAPER_T_CBC_128,
        "ccm1": PAPER_T_CCM1_128,
    }[mode]
    # ccm1 contains two AES passes per block, so it steps twice as fast.
    passes = 2 if mode == "ccm1" else 1
    return base + passes * step * PAPER_KEYSTEP_EXTRA


@dataclass(frozen=True)
class LoopModel:
    """Loop periods recomputed from a timing model."""

    timing: TimingModel = DEFAULT_TIMING

    def period(self, mode: str, key_bits: int) -> int:
        """Model-predicted steady-state loop period."""
        if mode in ("gcm", "ctr"):
            return self.timing.gcm_loop(key_bits)
        if mode in ("cbc", "ccm2"):
            return self.timing.cbc_loop(key_bits)
        if mode == "ccm1":
            return self.timing.ccm_one_core_loop(key_bits)
        raise ValueError(f"unknown mode {mode!r}")

"""The Whirlpool personality of the reconfigurable Cryptographic Unit.

Section VII.B of the paper demonstrates partial reconfiguration by
swapping the CU region between the AES encryption core and a Whirlpool
hashing core (Table IV).  This module is what the region *becomes*
after loading the Whirlpool bitstream: the same bank register, FIFOs
and controller interface, but a hash-oriented instruction set.

A 512-bit Whirlpool block is exactly the whole 4 x 128-bit bank, so
``SWPC`` consumes the full bank as one message block and the chaining
state lives inside the core (Miyaguchi–Preneel).  ``SWPC`` serialises
the four 128-bit registers into the compression function's 64 message
bytes and ``WPDIG`` reads 16 digest bytes back as a register value.
Message padding is performed by the communication controller,
consistent with the paper's rule that cores never format data
(section VI.B).

Cycle cost per compress is :attr:`TimingModel.whirlpool_cycles` — a
documented model assumption (the paper reports no Whirlpool timing).
"""

from __future__ import annotations

import enum
from functools import partial
from typing import NamedTuple, Optional

from repro.crypto.whirlpool import compress
from repro.errors import DecodeError, UnitError
from repro.sim.kernel import Simulator
from repro.sim.tracing import TraceRecorder
from repro.unit.cores.io_core import IoCore
from repro.unit.timing import TimingModel
from repro.unit.unit import LooselyTimedUnit, Timing


class WpOp(enum.IntEnum):
    """Whirlpool-personality opcodes."""

    NOP = 0x0
    LOAD = 0x1    # input FIFO -> bank[A]
    STORE = 0x2   # bank[A] -> output FIFO
    WPINIT = 0x3  # chaining state <- 0^512
    SWPC = 0x4    # start compressing the whole bank (background)
    FWPC = 0x5    # wait for the running compress to finish
    WPDIG = 0x6   # bank[A] <- digest bytes [16A : 16A+16]


class WpDecoded(NamedTuple):
    op: WpOp
    a: int
    b: int


def wp_encode(op: WpOp, a: int = 0, b: int = 0) -> int:
    """Pack a Whirlpool-personality instruction byte."""
    if not 0 <= a <= 3 or not 0 <= b <= 3:
        raise DecodeError(f"bank address out of range: a={a} b={b}")
    return (int(op) << 4) | (a << 2) | b


def wp_decode(byte: int) -> WpDecoded:
    """Unpack a Whirlpool-personality instruction byte."""
    if not 0 <= byte <= 0xFF:
        raise DecodeError(f"instruction {byte:#x} exceeds 8 bits")
    op_bits = (byte >> 4) & 0xF
    try:
        op = WpOp(op_bits)
    except ValueError as exc:
        raise DecodeError(f"unknown Whirlpool opcode {op_bits:#x}") from exc
    return WpDecoded(op, (byte >> 2) & 0x3, byte & 0x3)


def _wp_nop(wpu, a, b, now):
    return None


def _wp_load(wpu, a, b, now):
    return a


def _wp_store(wpu, a, b, now):
    return wpu._regs[a]


def _wpinit(wpu, a, b, now):
    wpu._chain = bytes(64)


def _swpc(wpu, a, b, now):
    if now < wpu._compress_busy_until:
        raise UnitError(f"{wpu.name}: SWPC while compress busy")
    message = b"".join(value.to_bytes(16, "big") for value in wpu._regs)
    wpu._chain = compress(wpu._chain, message)
    wpu._compress_busy_until = now + wpu.timing.whirlpool_cycles
    wpu.blocks_processed += 1


def _fwpc(wpu, a, b, now):
    return None, max(wpu._compress_busy_until, now) + wpu.timing.finalize_tail


def _wpdig(wpu, a, b, now):
    digest_part = int.from_bytes(wpu._chain[16 * a : 16 * a + 16], "big")
    return partial(wpu._regs.__setitem__, a, digest_part)


#: Opcode -> (timing class, issue handler), as :data:`repro.unit.unit.CU_OPS`.
WP_OPS = {
    WpOp.NOP: (Timing.FIXED, _wp_nop),
    WpOp.LOAD: (Timing.INPUT, _wp_load),
    WpOp.STORE: (Timing.OUTPUT, _wp_store),
    WpOp.WPINIT: (Timing.FIXED, _wpinit),
    WpOp.SWPC: (Timing.FIXED, _swpc),
    WpOp.FWPC: (Timing.ENGINE, _fwpc),
    WpOp.WPDIG: (Timing.FIXED, _wpdig),
}

#: Instruction byte -> ``(op, a, b) + WP_OPS[op]`` for every decodable
#: byte, as :data:`repro.unit.unit.CU_ISSUE`.
WP_ISSUE = {
    wp_encode(op, a, b): (op, a, b) + WP_OPS[op]
    for op in WpOp
    for a in range(4)
    for b in range(4)
}


class WhirlpoolUnit(LooselyTimedUnit):
    """Drop-in CU replacement after Whirlpool reconfiguration."""

    ISSUE = WP_ISSUE
    decode = staticmethod(wp_decode)

    def __init__(
        self,
        sim: Simulator,
        io: IoCore,
        timing: TimingModel,
        trace: Optional[TraceRecorder] = None,
        name: str = "wpu",
    ):
        super().__init__(sim, io, timing, trace, name)
        self._chain = bytes(64)
        self._compress_busy_until = 0
        #: Compress invocations (one per 512-bit block).
        self.blocks_processed = 0

    def _record_issue(self, now: int, op, a: int, b: int) -> None:
        self.trace.record(now, self.name, "issue", op=op.name, a=a)

    # -- controller-facing API (same shape as CryptoUnit) -------------------

    def set_mask_low(self, byte: int) -> None:
        """Masks are meaningless in this personality; accepted, ignored."""

    def set_mask_high(self, byte: int) -> None:
        """Masks are meaningless in this personality; accepted, ignored."""

    def status_byte(self) -> int:
        """Bit 2 = compress busy, bit 3 = CU busy (equ/AES bits absent)."""
        self.catch_up()
        return (4 if self.sim.now < self._compress_busy_until else 0) | (
            8 if self._busy else 0
        )

    def reset_for_packet(self) -> None:
        """Clear per-message state."""
        self._reset_check()
        self._bank.clear()
        self._chain = bytes(64)

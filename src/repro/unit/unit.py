"""The Cryptographic Unit execution model (paper Fig. 3, section V).

The CU is passive: the core's 8-bit controller *issues* an instruction
by writing its byte to the CU port (OUTPUT), which calls
:meth:`CryptoUnit.start` at the controller's write-strobe cycle.  The
CU then owns the datapath until the instruction completes, pulses
``done`` (wired to the controller's HALT wake line), and accepts the
next instruction.

Timing rules (see :mod:`repro.unit.timing` for the calibration):

- predictable instructions (LOAD/STORE/LOADH/SGFM/SAES/INC/XOR/EQU and
  the inter-core moves) occupy the CU for ``cu_chain_cycles`` (6);
- SAES/SGFM additionally launch their background core;
- FAES/FGFM complete ``finalize_tail`` (5) cycles after the background
  core finishes, delivering the result into the bank register;
- LOAD/STORE/ICSEND/ICRECV stall while their FIFO/mailbox cannot serve
  them, then run their 6 cycles.

Functional effects are applied at *completion* time for finalizes and
at *issue* time for samples (SAES/SGFM read the bank when they start,
which is what lets Listing 1 overwrite the data register while GHASH is
still absorbing it).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import UnitError
from repro.sim.kernel import Simulator
from repro.sim.signals import PulseWire
from repro.sim.tracing import TraceRecorder
from repro.unit.bank import BankRegister
from repro.unit.cores.aes_core import AesCore
from repro.unit.cores.ghash_core import GhashCore
from repro.unit.cores.inc_core import inc16
from repro.unit.cores.io_core import IoCore
from repro.unit.cores.xor_core import masked_equal, masked_xor
from repro.unit.isa import CU_DECODE_TABLE, CuOp, cu_decode
from repro.unit.timing import TimingModel


class InterCoreRegister:
    """The 4 x 32-bit inter-core shift register (one block mailbox)."""

    def __init__(self, sim: Simulator, name: str = "ic"):
        self.sim = sim
        self.name = name
        self._block: Optional[bytes] = None
        self._space_waiters: list = []
        self._data_waiters: list = []
        #: Blocks ever transferred.
        self.transfers = 0

    @property
    def full(self) -> bool:
        """Whether a block is waiting to be received."""
        return self._block is not None

    def put(self, block: bytes) -> None:
        """Deposit a block (caller must have checked :attr:`full`)."""
        if self._block is not None:
            raise UnitError(f"{self.name}: inter-core register overrun")
        self._block = bytes(block)
        self.transfers += 1
        while self._data_waiters:
            callback = self._data_waiters.pop(0)
            self.sim.call_soon(lambda _arg, cb=callback: cb())

    def take(self) -> bytes:
        """Remove and return the deposited block."""
        if self._block is None:
            raise UnitError(f"{self.name}: inter-core register underrun")
        block, self._block = self._block, None
        while self._space_waiters:
            callback = self._space_waiters.pop(0)
            self.sim.call_soon(lambda _arg, cb=callback: cb())
        return block

    def when_data(self, callback: Callable[[], None]) -> None:
        """Run *callback* once a block is present."""
        if self.full:
            callback()
        else:
            self._data_waiters.append(callback)

    def when_space(self, callback: Callable[[], None]) -> None:
        """Run *callback* once the register is empty."""
        if not self.full:
            callback()
        else:
            self._space_waiters.append(callback)


class CryptoUnit:
    """The AES-personality Cryptographic Unit."""

    def __init__(
        self,
        sim: Simulator,
        io: IoCore,
        key_provider: "Callable[[], list]",
        timing: TimingModel,
        trace: Optional[TraceRecorder] = None,
        name: str = "cu",
    ):
        self.sim = sim
        self.io = io
        self._key_provider = key_provider
        self.timing = timing
        # An empty TraceRecorder is falsy (it has __len__), so compare to None.
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.name = name

        self.bank = BankRegister()
        self.aes = AesCore(timing)
        self.ghash = GhashCore(timing)
        self.mask = 0xFFFF
        self.equ_flag = False

        #: Own inbox; ``ic_out`` is the *neighbour's* inbox (wired by the MCCP).
        self.ic_in = InterCoreRegister(sim, f"{name}.ic_in")
        self.ic_out: Optional[InterCoreRegister] = None

        self.done = PulseWire(sim, f"{name}.done")
        self.busy = False
        self._queue: list = []
        self._idle_callbacks: list = []

    def call_when_idle(self, fn: "Callable[[], None]") -> None:
        """Run *fn* once the CU is idle with an empty issue queue.

        Runs immediately if already idle.  Unlike waiting on the
        ``done`` pulse wire, this cannot consume (or be fooled by) a
        latched done pulse, so it is safe for core-level bookkeeping
        that must not race the firmware's HALT protocol.
        """
        if not self.busy and not self._queue:
            fn()
        else:
            self._idle_callbacks.append(fn)

    # -- controller-facing API ---------------------------------------------

    def set_mask(self, mask: int) -> None:
        """Install the 16-bit byte mask used by XOR/EQU."""
        if not 0 <= mask <= 0xFFFF:
            raise UnitError(f"mask {mask:#x} exceeds 16 bits")
        self.mask = mask

    def set_mask_low(self, byte: int) -> None:
        """Write the low mask byte (controller port 0x01)."""
        self.mask = (self.mask & 0xFF00) | (byte & 0xFF)

    def set_mask_high(self, byte: int) -> None:
        """Write the high mask byte (controller port 0x02)."""
        self.mask = ((byte & 0xFF) << 8) | (self.mask & 0x00FF)

    def status_byte(self) -> int:
        """Status for the controller: equ, AES-busy, GHASH-busy, CU-busy."""
        now = self.sim.now
        return (
            (1 if self.equ_flag else 0)
            | (2 if now < self.aes.busy_until else 0)
            | (4 if now < self.ghash.busy_until else 0)
            | (8 if self.busy else 0)
        )

    def start(self, instr_byte: int) -> None:
        """Issue a CU instruction (controller write strobe).

        If the CU is still finishing earlier instructions (including a
        FIFO-stalled LOAD/STORE) the new one queues and issues at the
        predecessor's completion cycle, which is exactly the hardware
        handshake timing.  The ``done`` wire pulses only when the unit
        goes *idle* (completion with an empty queue) — the condition the
        controller's HALT waits for.
        """
        if self.busy or self._queue:
            self._queue.append(instr_byte)
            return
        self._issue(instr_byte)

    def reset_for_packet(self) -> None:
        """Clear per-packet state (bank, flags) before a new task."""
        if self.busy:
            raise UnitError(f"{self.name}: reset while busy")
        self.bank.clear()
        self.equ_flag = False
        self.mask = 0xFFFF
        self.done.clear_latch()

    # -- execution ----------------------------------------------------------

    def _issue(self, instr_byte: int) -> None:
        decoded = CU_DECODE_TABLE.get(instr_byte)
        if decoded is None:
            cu_decode(instr_byte)  # raises DecodeError for this byte
        op, a, b = decoded
        now = self.sim.now
        self.busy = True
        self.done.clear_latch()
        if self.trace.enabled:
            self.trace.record(now, self.name, "issue", op=op.name, a=a, b=b)
        chain = self.timing.cu_chain_cycles

        if op is CuOp.NOP:
            self._finish_at(now + chain, None)
        elif op is CuOp.LOAD:
            self.io.when_input_ready(
                lambda: self._finish_at(
                    self.sim.now + chain,
                    lambda: self.bank.write(a, self.io.pop_block()),
                )
            )
        elif op is CuOp.STORE:
            block = self.bank.read(a)
            self.io.when_output_ready(
                lambda: self._finish_at(
                    self.sim.now + chain, lambda: self.io.push_block(block)
                )
            )
        elif op is CuOp.LOADH:
            self.ghash.load_h(self.bank.read(a), now)
            self._finish_at(now + chain, None)
        elif op is CuOp.SGFM:
            self.ghash.absorb(self.bank.read(a), now)
            self._finish_at(now + chain, None)
        elif op is CuOp.FGFM:
            digest, ready = self.ghash.finalize(now)
            self._finish_at(ready, lambda: self.bank.write(a, digest))
        elif op is CuOp.SAES:
            self.aes.start(self.bank.read(a), self._key_provider(), now)
            self._finish_at(now + chain, None)
        elif op is CuOp.FAES:
            result, ready = self.aes.finalize(now)
            self._finish_at(ready, lambda: self.bank.write(a, result))
        elif op is CuOp.INC:
            self.bank.write(a, inc16(self.bank.read(a), b + 1))
            self._finish_at(now + chain, None)
        elif op is CuOp.XOR:
            value = masked_xor(self.bank.read(a), self.bank.read(b), self.mask)
            self.bank.write(b, value)
            self._finish_at(now + chain, None)
        elif op is CuOp.EQU:
            self.equ_flag = masked_equal(
                self.bank.read(a), self.bank.read(b), self.mask
            )
            self._finish_at(now + chain, None)
        elif op is CuOp.ICSEND:
            if self.ic_out is None:
                raise UnitError(f"{self.name}: ICSEND with no neighbour wired")
            block = self.bank.read(a)
            self.ic_out.when_space(
                lambda: self._finish_at(
                    self.sim.now + chain, lambda: self.ic_out.put(block)
                )
            )
        elif op is CuOp.ICRECV:
            self.ic_in.when_data(
                lambda: self._finish_at(
                    self.sim.now + chain,
                    lambda: self.bank.write(a, self.ic_in.take()),
                )
            )
        else:  # pragma: no cover - CU_DECODE_TABLE prevents this
            raise UnitError(f"{self.name}: unimplemented op {op!r}")

    def _finish_at(self, time: int, effect: Optional[Callable[[], None]]) -> None:
        self.sim.call_at(time, self._complete, effect)

    def _complete(self, effect: Optional[Callable[[], None]]) -> None:
        if effect is not None:
            effect()
        self.busy = False
        if self.trace.enabled:
            self.trace.record(self.sim.now, self.name, "complete")
        if self._queue:
            self._issue(self._queue.pop(0))
        else:
            self.done.pulse()
            if self._idle_callbacks:
                callbacks, self._idle_callbacks = self._idle_callbacks, []
                for fn in callbacks:
                    fn()

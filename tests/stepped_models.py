"""Stepped reference models: the device model before catch-up on access.

Test-only copies of the cycle model as it stepped before its loosely
timed rewrite, kept as the oracle the analytic model must match event
for event:

- :class:`SteppedController8` — one ``Delay(2)`` per instruction,
  dispatched to one semantics method per opcode (the controller itself
  runs translated blocks, so the two share no ALU code);
- :class:`SteppedCryptoUnit` / :class:`SteppedWhirlpoolUnit` — one
  kernel event per completion, dispatched by the original ``elif``
  chains;
- :class:`SteppedWordFifo` / :class:`SteppedIoCore` — immediate word
  pushes and pops with push/pop hooks and wakeup events;
- :class:`SteppedCrossbar` and ``stepped_feeder`` / ``stepped_drainer``
  / ``stepped_run_task`` — one process step per word moved, for the
  same bounded transfers the crossbar and the harness start.

:func:`stepped_core` builds a :class:`~repro.core.crypto_core.CryptoCore`
wired entirely from these, and :func:`step_platform` swaps a whole
platform's cores and crossbar for stepped ones.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.core.crypto_core import CoreResult, CryptoCore
from repro.core.harness import TaskRun
from repro.core.key_cache import RoundKeys
from repro.core.params import Direction
from repro.errors import ExecutionError, FifoError, UnitError
from repro.isa import Controller8, Op
from repro.isa.controller import SCRATCHPAD_BYTES, STACK_DEPTH
from repro.isa.opcodes import FLOW_VARIANTS, REGISTER_FORMS, Cond, Decoded
from repro.radio.formatting import expected_output_words
from repro.sim.fifo import DEFAULT_DEPTH_WORDS, WORDS_PER_BLOCK
from repro.sim.kernel import Delay, Event, Simulator
from repro.sim.signals import PulseWire
from repro.sim.tracing import TraceRecorder
from repro.unit.bank import BankRegister
from repro.unit.cores.aes_core import AesCore
from repro.unit.cores.ghash_core import GhashCore
from repro.unit.cores.inc_core import inc16
from repro.unit.cores.xor_core import masked_equal, masked_xor
from repro.unit.isa import CU_DECODE_TABLE, CuOp, cu_decode
from repro.unit.timing import TimingModel
from repro.unit.unit import InterCoreRegister
from repro.unit.whirlpool_unit import wp_decode, WpOp
from repro.crypto.whirlpool import compress
from repro.utils.bits import bytes_to_words32, words32_to_bytes


_FLAG_TESTS: Dict[Cond, Callable[["SteppedController8"], bool]] = {
    Cond.ALWAYS: lambda ctrl: True,
    Cond.Z: lambda ctrl: ctrl.zero,
    Cond.NZ: lambda ctrl: not ctrl.zero,
    Cond.C: lambda ctrl: ctrl.carry,
    Cond.NC: lambda ctrl: not ctrl.carry,
}
#: Flow-control opcode -> the flag test its condition names.
_CONDITION: Dict[Op, Callable[["SteppedController8"], bool]] = {
    op: _FLAG_TESTS[cond]
    for variants in FLOW_VARIANTS.values()
    for cond, op in variants.items()
}


class SteppedController8(Controller8):
    """The reference: one ``Delay(2)`` per instruction, no decoupling.

    It keeps its own per-instruction ALU semantics (the method per op
    below), so the oracle shares no instruction code with the
    controller's translated blocks.
    """

    def run(self, entry=None):
        if entry is not None:
            self.pc = self.program.label(entry)
        while not self._stopped:
            if self.interrupts_enabled and self._irq_pending:
                self._irq_pending = False
                if len(self.stack) >= STACK_DEPTH:
                    raise ExecutionError(f"{self.name}: stack overflow on IRQ")
                self.stack.append(self.pc)
                self._preserved_flags = (self.zero, self.carry)
                self.interrupts_enabled = False
                self.pc = self.irq_vector

            if self.pc >= len(self.program):
                return None
            decoded = self.program.fetch(self.pc)
            op = decoded.op
            self.pc += 1
            self.instructions_retired += 1

            if op is Op.HALT:
                start = self.sim.now
                yield Delay(2)
                yield self.wake.wait()
                self.halted_cycles += self.sim.now - start - 2
                continue

            self._execute(decoded)
            # A stop takes effect after this instruction's cycles, as in
            # Controller8: re-reading the flag after the Delay would let
            # this process run the next task's firmware when the core is
            # reassigned within those 2 cycles (the flag is reset then).
            stopped = self._stopped
            yield Delay(2)
            if stopped:
                return None
        return None

    def _set_zc_logical(self, value: int) -> None:
        self.zero = value == 0
        self.carry = False

    def _alu_source(self, decoded: Decoded) -> int:
        if decoded.op in REGISTER_FORMS:
            return self.regs[(decoded.operand >> 4) & 0xF]
        return decoded.operand

    # -- instruction semantics --------------------------------------------

    def _execute(self, decoded: Decoded) -> None:
        """Apply one instruction's effects (timing is :meth:`run`'s job)."""
        _SEMANTICS[decoded.op](self, decoded)

    def _nop(self, decoded: Decoded) -> None:
        return None

    def _load(self, decoded: Decoded) -> None:
        self.regs[decoded.sx] = self._alu_source(decoded) & 0xFF

    def _and(self, decoded: Decoded) -> None:
        self.regs[decoded.sx] &= self._alu_source(decoded)
        self._set_zc_logical(self.regs[decoded.sx])

    def _or(self, decoded: Decoded) -> None:
        self.regs[decoded.sx] |= self._alu_source(decoded)
        self._set_zc_logical(self.regs[decoded.sx])

    def _xor(self, decoded: Decoded) -> None:
        self.regs[decoded.sx] ^= self._alu_source(decoded)
        self._set_zc_logical(self.regs[decoded.sx])

    def _add(self, decoded: Decoded) -> None:
        self._sum(decoded, self.regs[decoded.sx] + self._alu_source(decoded))

    def _addcy(self, decoded: Decoded) -> None:
        total = self.regs[decoded.sx] + self._alu_source(decoded) + int(self.carry)
        self._sum(decoded, total)

    def _sum(self, decoded: Decoded, total: int) -> None:
        self.carry = total > 0xFF
        self.regs[decoded.sx] = total & 0xFF
        self.zero = self.regs[decoded.sx] == 0

    def _sub(self, decoded: Decoded) -> None:
        self._difference(decoded, self.regs[decoded.sx] - self._alu_source(decoded))

    def _subcy(self, decoded: Decoded) -> None:
        diff = self.regs[decoded.sx] - self._alu_source(decoded) - int(self.carry)
        self._difference(decoded, diff)

    def _difference(self, decoded: Decoded, diff: int) -> None:
        self.carry = diff < 0
        self.regs[decoded.sx] = diff & 0xFF
        self.zero = self.regs[decoded.sx] == 0

    def _compare(self, decoded: Decoded) -> None:
        diff = self.regs[decoded.sx] - self._alu_source(decoded)
        self.carry = diff < 0
        self.zero = (diff & 0xFF) == 0

    def _sr0(self, decoded: Decoded) -> None:
        sx = decoded.sx
        self.carry = bool(self.regs[sx] & 1)
        self.regs[sx] >>= 1
        self.zero = self.regs[sx] == 0

    def _sl0(self, decoded: Decoded) -> None:
        sx = decoded.sx
        self.carry = bool(self.regs[sx] & 0x80)
        self.regs[sx] = (self.regs[sx] << 1) & 0xFF
        self.zero = self.regs[sx] == 0

    def _rr(self, decoded: Decoded) -> None:
        sx = decoded.sx
        low = self.regs[sx] & 1
        self.regs[sx] = (self.regs[sx] >> 1) | (low << 7)
        self.carry = bool(low)
        self.zero = self.regs[sx] == 0

    def _rl(self, decoded: Decoded) -> None:
        sx = decoded.sx
        high = (self.regs[sx] >> 7) & 1
        self.regs[sx] = ((self.regs[sx] << 1) & 0xFF) | high
        self.carry = bool(high)
        self.zero = self.regs[sx] == 0

    def _input(self, decoded: Decoded) -> None:
        port = self._alu_source(decoded)
        self.regs[decoded.sx] = self.device.read_port(port) & 0xFF

    def _output(self, decoded: Decoded) -> None:
        self.device.write_port(self._alu_source(decoded), self.regs[decoded.sx])

    def _store(self, decoded: Decoded) -> None:
        self._scratch_write(self._alu_source(decoded), self.regs[decoded.sx])

    def _fetch(self, decoded: Decoded) -> None:
        self.regs[decoded.sx] = self._scratch_read(self._alu_source(decoded))

    def _jump(self, decoded: Decoded) -> None:
        if _CONDITION[decoded.op](self):
            self.pc = decoded.addr

    def _call(self, decoded: Decoded) -> None:
        if _CONDITION[decoded.op](self):
            if len(self.stack) >= STACK_DEPTH:
                raise ExecutionError(f"{self.name}: call stack overflow")
            self.stack.append(self.pc)
            self.pc = decoded.addr

    def _return(self, decoded: Decoded) -> None:
        if _CONDITION[decoded.op](self):
            if not self.stack:
                # Returning from the top level ends the firmware run.
                self._stopped = True
            else:
                self.pc = self.stack.pop()

    def _returni(self, decoded: Decoded) -> None:
        if not self.stack:
            raise ExecutionError(f"{self.name}: RETURNI with empty stack")
        self.pc = self.stack.pop()
        if self._preserved_flags is not None:
            self.zero, self.carry = self._preserved_flags
            self._preserved_flags = None
        self.interrupts_enabled = decoded.op is Op.RETURNI_E

    def _eint(self, decoded: Decoded) -> None:
        self.interrupts_enabled = True

    def _dint(self, decoded: Decoded) -> None:
        self.interrupts_enabled = False

    def _scratch_write(self, addr: int, value: int) -> None:
        if not 0 <= addr < SCRATCHPAD_BYTES:
            raise ExecutionError(f"{self.name}: scratchpad address {addr:#x}")
        self.scratchpad[addr] = value & 0xFF

    def _scratch_read(self, addr: int) -> int:
        if not 0 <= addr < SCRATCHPAD_BYTES:
            raise ExecutionError(f"{self.name}: scratchpad address {addr:#x}")
        return self.scratchpad[addr]


_C = SteppedController8
#: Opcode -> its semantics (``HALT`` lives in :meth:`Controller8.run`).
_SEMANTICS: Dict[Op, Callable[[Controller8, Decoded], None]] = {
    Op.NOP: _C._nop,
    Op.LOAD: _C._load,
    Op.LOAD_R: _C._load,
    Op.AND: _C._and,
    Op.AND_R: _C._and,
    Op.OR: _C._or,
    Op.OR_R: _C._or,
    Op.XOR: _C._xor,
    Op.XOR_R: _C._xor,
    Op.ADD: _C._add,
    Op.ADD_R: _C._add,
    Op.ADDCY: _C._addcy,
    Op.ADDCY_R: _C._addcy,
    Op.SUB: _C._sub,
    Op.SUB_R: _C._sub,
    Op.SUBCY: _C._subcy,
    Op.SUBCY_R: _C._subcy,
    Op.COMPARE: _C._compare,
    Op.COMPARE_R: _C._compare,
    Op.SR0: _C._sr0,
    Op.SL0: _C._sl0,
    Op.RR: _C._rr,
    Op.RL: _C._rl,
    Op.INPUT: _C._input,
    Op.INPUT_R: _C._input,
    Op.OUTPUT: _C._output,
    Op.OUTPUT_R: _C._output,
    Op.STORE: _C._store,
    Op.STORE_R: _C._store,
    Op.FETCH: _C._fetch,
    Op.FETCH_R: _C._fetch,
    Op.RETURNI_E: _C._returni,
    Op.RETURNI_D: _C._returni,
    Op.EINT: _C._eint,
    Op.DINT: _C._dint,
    **{op: _C._jump for op in FLOW_VARIANTS["JUMP"].values()},
    **{op: _C._call for op in FLOW_VARIANTS["CALL"].values()},
    **{op: _C._return for op in FLOW_VARIANTS["RETURN"].values()},
}
del _C


class SteppedWordFifo:
    """The word-stepped FIFO: every push/pop is immediate, with wakeup events.

    Producers/consumers are expected to police capacity via
    :meth:`can_push` / :meth:`can_pop` (as the hardware handshake does);
    violating it raises :class:`FifoError`.  ``wait_not_empty`` /
    ``wait_not_full`` return latched events for process-style waiting.
    """

    def __init__(
        self,
        sim: Simulator,
        depth_words: int = DEFAULT_DEPTH_WORDS,
        name: str = "fifo",
    ):
        if depth_words <= 0:
            raise FifoError(f"depth must be positive, got {depth_words}")
        self.sim = sim
        self.name = name
        self.depth_words = depth_words
        self._words: Deque[int] = deque()
        self._not_empty_waiters: List[Event] = []
        self._not_full_waiters: List[Event] = []
        self._push_hooks: List = []
        self._pop_hooks: List = []
        #: Cumulative statistics (words ever pushed/popped, purges).
        self.total_pushed = 0
        self.total_popped = 0
        self.purge_count = 0
        self.high_watermark = 0

    def sync(self) -> None:
        """Always up to date: nothing to replay."""

    # -- capacity ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._words)

    @property
    def free_words(self) -> int:
        """Remaining capacity in words."""
        return self.depth_words - len(self._words)

    def can_push(self, nwords: int = 1) -> bool:
        """Whether *nwords* more words fit."""
        return self.free_words >= nwords

    def can_pop(self, nwords: int = 1) -> bool:
        """Whether *nwords* words are available."""
        return len(self._words) >= nwords

    # -- word operations ---------------------------------------------------

    def push_word(self, word: int) -> None:
        """Append one 32-bit word; raises on overflow."""
        if not 0 <= word <= 0xFFFFFFFF:
            raise FifoError(f"{self.name}: word {word:#x} exceeds 32 bits")
        if not self.can_push():
            raise FifoError(f"{self.name}: overflow (depth {self.depth_words})")
        self._words.append(word)
        self.total_pushed += 1
        self.high_watermark = max(self.high_watermark, len(self._words))
        self._wake(self._not_empty_waiters)
        self._fire_hooks(self._push_hooks)

    def pop_word(self) -> int:
        """Remove and return the oldest word; raises on underflow."""
        if not self.can_pop():
            raise FifoError(f"{self.name}: underflow")
        word = self._words.popleft()
        self.total_popped += 1
        self._wake(self._not_full_waiters)
        self._fire_hooks(self._pop_hooks)
        return word

    # -- 128-bit block convenience ------------------------------------------

    def push_block(self, block: bytes) -> None:
        """Push a 16-byte block as four big-endian words."""
        if len(block) != 16:
            raise FifoError(f"{self.name}: block must be 16 bytes, got {len(block)}")
        if not self.can_push(WORDS_PER_BLOCK):
            raise FifoError(f"{self.name}: overflow pushing block")
        for w in bytes_to_words32(block):
            self.push_word(w)

    def pop_block(self) -> bytes:
        """Pop four words and return them as a 16-byte block."""
        if not self.can_pop(WORDS_PER_BLOCK):
            raise FifoError(f"{self.name}: underflow popping block")
        return words32_to_bytes([self.pop_word() for _ in range(WORDS_PER_BLOCK)])

    @property
    def blocks_available(self) -> int:
        """How many whole 128-bit blocks can currently be popped."""
        return len(self._words) // WORDS_PER_BLOCK

    # -- events --------------------------------------------------------------

    def wait_not_empty(self) -> Event:
        """Event that fires when at least one word is present."""
        ev = self.sim.event(f"{self.name}.not_empty")
        if self._words:
            ev.trigger()
        else:
            self._not_empty_waiters.append(ev)
        return ev

    def wait_not_full(self) -> Event:
        """Event that fires when at least one word of space exists."""
        ev = self.sim.event(f"{self.name}.not_full")
        if self.can_push():
            ev.trigger()
        else:
            self._not_full_waiters.append(ev)
        return ev

    def _wake(self, waiters: List[Event]) -> None:
        while waiters:
            waiters.pop(0).trigger()

    def add_push_hook(self, callback) -> None:
        """One-shot callback on the next push (level-change edge).

        Unlike :meth:`wait_not_empty` — which fires immediately while
        the FIFO is merely non-empty — a push hook only fires when a new
        word actually arrives, which is what a consumer waiting for a
        *whole block* must re-arm on to avoid same-cycle livelock.
        """
        self._push_hooks.append(callback)

    def add_pop_hook(self, callback) -> None:
        """One-shot callback on the next pop."""
        self._pop_hooks.append(callback)

    def _fire_hooks(self, hooks: List) -> None:
        if hooks:
            ready, hooks[:] = list(hooks), []
            for cb in ready:
                cb()

    # -- security ---------------------------------------------------------

    def purge(self) -> int:
        """Drop all contents (hardware re-init on authentication failure).

        Returns the number of words discarded.
        """
        dropped = len(self._words)
        self._words.clear()
        self.purge_count += 1
        self._wake(self._not_full_waiters)
        return dropped

    def snapshot(self) -> List[int]:
        """Copy of current contents, oldest first (for tests/debug)."""
        return list(self._words)


class SteppedIoCore:
    """Block mover between the core FIFOs and the bank register."""

    def __init__(self, in_fifo, out_fifo):
        self.in_fifo = in_fifo
        self.out_fifo = out_fifo
        #: Blocks moved in each direction.
        self.blocks_in = 0
        self.blocks_out = 0

    def input_ready(self) -> bool:
        """Whether a whole block can be popped."""
        return self.in_fifo.can_pop(WORDS_PER_BLOCK)

    def output_ready(self) -> bool:
        """Whether a whole block can be pushed."""
        return self.out_fifo.can_push(WORDS_PER_BLOCK)

    def pop_block(self) -> bytes:
        """Pop one 16-byte block from the input FIFO."""
        self.blocks_in += 1
        return self.in_fifo.pop_block()

    def push_block(self, block: bytes) -> None:
        """Push one 16-byte block into the output FIFO."""
        self.blocks_out += 1
        self.out_fifo.push_block(block)

    def when_input_ready(self, callback: Callable[[], None]) -> None:
        """Invoke *callback* as soon as a whole input block is available.

        Re-arms on push *edges* (not the non-empty level): with data
        streaming in one 32-bit word per cycle, a level wait would spin
        in the same cycle whenever a partial block is present.
        """
        if self.input_ready():
            callback()
            return

        def retry() -> None:
            if self.input_ready():
                callback()
            else:
                self.in_fifo.add_push_hook(retry)

        self.in_fifo.add_push_hook(retry)

    def when_output_ready(self, callback: Callable[[], None]) -> None:
        """Invoke *callback* as soon as the output FIFO has block space."""
        if self.output_ready():
            callback()
            return

        def retry() -> None:
            if self.output_ready():
                callback()
            else:
                self.out_fifo.add_pop_hook(retry)

        self.out_fifo.add_pop_hook(retry)


class SteppedCryptoUnit:
    """The per-instruction CU: one kernel event per completion."""

    def __init__(
        self,
        sim: Simulator,
        io,
        key_provider: "Callable[[], RoundKeys]",
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
                    lambda: self.bank.write(a, int.from_bytes(self.io.pop_block(), "big")),
                )
            )
        elif op is CuOp.STORE:
            block = self.bank.read(a).to_bytes(16, "big")
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

    # What the core and the done wire ask of a unit; a stepped unit is
    # always caught up and never knows its next pulse ahead of time.

    def catch_up(self) -> None:
        return None

    def sleep(self, earliest: int, ahead: int) -> None:
        return None

    def wake_on_completion(self) -> None:
        return None

    @property
    def queued(self) -> int:
        return len(self._queue)


class SteppedCrossbar:
    """The word-stepped crossbar: one process step per word moved."""

    def __init__(self, sim: Simulator, timing: TimingModel):
        self.sim = sim
        self.timing = timing

    # Transfers charge per-word cycles but are not serialised against
    # each other: the model assumes a multi-port switch (each core port
    # can move one word per cycle concurrently).

    def upload_blocks(self, core, blocks):
        """Process: stream *blocks* into the core's input FIFO."""
        return self.sim.add_process(
            stepped_feeder(core, blocks, self.timing.crossbar_word_cycles),
            name=f"xbar.up.{core.name}",
        )

    def download_words(self, core, sink: list, nwords: int):
        """Process: pop exactly *nwords* words from the core's output FIFO."""
        return self.sim.add_process(
            stepped_drainer(core, sink, nwords, self.timing.crossbar_word_cycles),
            name=f"xbar.down.{core.name}",
        )


def stepped_feeder(core, blocks: List[bytes], word_cycles: int = 1):
    """Stream *blocks* into the core's input FIFO under flow control."""
    for block in blocks:
        for word in bytes_to_words32(block):
            while not core.in_fifo.can_push():
                yield core.in_fifo.wait_not_full()
            core.in_fifo.push_word(word)
            yield Delay(word_cycles)
    return core.sim.now


def stepped_drainer(core, sink: List[int], nwords: int, word_cycles: int = 1):
    """Drain *nwords* words from the core's output FIFO into *sink*."""
    for _ in range(nwords):
        while not core.out_fifo.can_pop():
            yield core.out_fifo.wait_not_empty()
        sink.append(core.out_fifo.pop_word())
        yield Delay(word_cycles)
    return core.sim.now


def stepped_run_task(sim: Simulator, core, task, limit: int = 100_000_000) -> TaskRun:
    """:func:`repro.core.harness.run_task` on the stepped crossbar."""
    limit += sim.now
    crossbar = SteppedCrossbar(sim, core.timing)
    runs = [crossbar.upload_blocks(core, task.input_blocks)]
    nwords = expected_output_words(task)
    deferred = task.params.direction is Direction.DECRYPT
    sink: List[int] = []
    if nwords and not deferred:
        runs.append(crossbar.download_words(core, sink, nwords))
    result: CoreResult = sim.run_until_event(core.assign_task(task.params), limit=limit)
    if deferred:
        # After an authentication failure the purge must have left
        # nothing; whatever is left is downloaded, so a leak shows.
        left = nwords if result.ok else len(core.out_fifo)
        if left:
            runs.append(crossbar.download_words(core, sink, left))
    for run in runs:
        sim.run_until_event(run.done, limit=limit)
    return TaskRun(
        result=result, output=words32_to_bytes(sink), feed_done_cycle=runs[0].done.value
    )


class SteppedWhirlpoolUnit:
    """The per-instruction Whirlpool personality (one event per completion)."""

    def __init__(
        self,
        sim: Simulator,
        io,
        timing: TimingModel,
        trace: Optional[TraceRecorder] = None,
        name: str = "wpu",
    ):
        self.sim = sim
        self.io = io
        self.timing = timing
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.name = name

        self.bank = BankRegister()
        self._chain = bytes(64)
        self._compress_busy_until = 0
        self.done = PulseWire(sim, f"{name}.done")
        self.busy = False
        self._queue: list = []
        self._idle_callbacks: list = []
        #: Compress invocations (one per 512-bit block).
        self.blocks_processed = 0

    def call_when_idle(self, fn) -> None:
        """Run *fn* once idle with an empty queue (see CryptoUnit)."""
        if not self.busy and not self._queue:
            fn()
        else:
            self._idle_callbacks.append(fn)

    # -- controller-facing API (same shape as CryptoUnit) -------------------

    def set_mask_low(self, byte: int) -> None:
        """Masks are meaningless in this personality; accepted, ignored."""

    def set_mask_high(self, byte: int) -> None:
        """Masks are meaningless in this personality; accepted, ignored."""

    def status_byte(self) -> int:
        """Bit 2 = compress busy, bit 3 = CU busy (equ/AES bits absent)."""
        return (4 if self.sim.now < self._compress_busy_until else 0) | (
            8 if self.busy else 0
        )

    def reset_for_packet(self) -> None:
        """Clear per-message state."""
        if self.busy:
            raise UnitError(f"{self.name}: reset while busy")
        self.bank.clear()
        self._chain = bytes(64)
        self.done.clear_latch()

    def start(self, instr_byte: int) -> None:
        """Issue an instruction (queues while busy; see CryptoUnit.start)."""
        if self.busy or self._queue:
            self._queue.append(instr_byte)
            return
        self._issue(instr_byte)

    # -- execution ----------------------------------------------------------

    def _issue(self, instr_byte: int) -> None:
        op, a, _b = wp_decode(instr_byte)
        now = self.sim.now
        self.busy = True
        self.done.clear_latch()
        self.trace.record(now, self.name, "issue", op=op.name, a=a)
        chain_cycles = self.timing.cu_chain_cycles

        if op is WpOp.NOP:
            self._finish_at(now + chain_cycles, None)
        elif op is WpOp.LOAD:
            self.io.when_input_ready(
                lambda: self._finish_at(
                    self.sim.now + chain_cycles,
                    lambda: self.bank.write(a, int.from_bytes(self.io.pop_block(), "big")),
                )
            )
        elif op is WpOp.STORE:
            block = self.bank.read(a).to_bytes(16, "big")
            self.io.when_output_ready(
                lambda: self._finish_at(
                    self.sim.now + chain_cycles,
                    lambda: self.io.push_block(block),
                )
            )
        elif op is WpOp.WPINIT:
            self._chain = bytes(64)
            self._finish_at(now + chain_cycles, None)
        elif op is WpOp.SWPC:
            if now < self._compress_busy_until:
                raise UnitError(f"{self.name}: SWPC while compress busy")
            message = b"".join(self.bank.read(i).to_bytes(16, "big") for i in range(4))
            self._chain = compress(self._chain, message)
            self._compress_busy_until = now + self.timing.whirlpool_cycles
            self.blocks_processed += 1
            self._finish_at(now + chain_cycles, None)
        elif op is WpOp.FWPC:
            ready = (
                max(self._compress_busy_until, now) + self.timing.finalize_tail
            )
            self._finish_at(ready, None)
        elif op is WpOp.WPDIG:
            digest_part = int.from_bytes(self._chain[16 * a : 16 * a + 16], "big")
            self._finish_at(
                now + chain_cycles, lambda: self.bank.write(a, digest_part)
            )
        else:  # pragma: no cover
            raise UnitError(f"{self.name}: unimplemented op {op!r}")

    def _finish_at(self, time: int, effect: Optional[Callable[[], None]]) -> None:
        self.sim.call_at(time, self._complete, effect)

    def _complete(self, effect: Optional[Callable[[], None]]) -> None:
        if effect is not None:
            effect()
        self.busy = False
        self.trace.record(self.sim.now, self.name, "complete")
        if self._queue:
            self._issue(self._queue.pop(0))
        else:
            self.done.pulse()
            if self._idle_callbacks:
                callbacks, self._idle_callbacks = self._idle_callbacks, []
                for fn in callbacks:
                    fn()

    catch_up = SteppedCryptoUnit.catch_up
    sleep = SteppedCryptoUnit.sleep
    wake_on_completion = SteppedCryptoUnit.wake_on_completion
    queued = SteppedCryptoUnit.queued


def stepped_core(
    sim: Simulator,
    timing: TimingModel,
    index: int = 0,
    trace: Optional[TraceRecorder] = None,
    fifo_depth_words: int = 512,
) -> CryptoCore:
    """A core whose controller, CU, FIFOs and I/O core all step."""
    core = CryptoCore(sim, timing, index=index, trace=trace, fifo_depth_words=fifo_depth_words)
    core.controller.__class__ = SteppedController8
    core.in_fifo = SteppedWordFifo(sim, fifo_depth_words, f"{core.name}.in")
    core.out_fifo = SteppedWordFifo(sim, fifo_depth_words, f"{core.name}.out")
    core.io = SteppedIoCore(core.in_fifo, core.out_fifo)
    core.unit = SteppedCryptoUnit(
        sim, core.io, core.key_cache.round_keys, timing, trace=core.trace,
        name=f"{core.name}.cu",
    )
    core.whirlpool_unit = SteppedWhirlpoolUnit(
        sim, core.io, timing, trace=core.trace, name=f"{core.name}.wpu"
    )
    core.active_unit = core.unit
    core._wire_unit(core.unit)
    return core


def step_platform(platform) -> None:
    """Swap every core and the crossbar of an
    :class:`~repro.radio.sdr_platform.SdrPlatform` for stepped copies
    (a ring of inter-core links, as the platform wires its cores)."""
    mccp = platform.mccp
    cores = [
        stepped_core(platform.sim, mccp.timing, index=i, trace=mccp.trace)
        for i in range(len(mccp.cores))
    ]
    for i, core in enumerate(cores):
        core.unit.ic_out = cores[(i + 1) % len(cores)].unit.ic_in
    mccp.cores[:] = cores
    mccp.scheduler.cores[:] = cores
    mccp.crossbar = SteppedCrossbar(platform.sim, mccp.timing)

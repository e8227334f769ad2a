"""The 8-bit controller interpreter (a simulation process).

Semantics follow the PicoBlaze model the paper's prototype modified:

- 16 8-bit registers ``s0``..``sF``; Z and C flags; 64-byte scratchpad;
  a 30-deep call stack; 10-bit PC.
- Every instruction takes **2 clock cycles** (paper section IV.B).
- ``INPUT``/``OUTPUT`` delegate to a :class:`PortDevice`.  Output port
  writes are presented to the device at the *start* of the instruction
  (the hardware write strobe), which is what lets firmware start a
  Cryptographic Unit operation and keep executing — the overlap the
  paper's Listing 1 exploits with its NOP padding.
- ``HALT`` (the paper's custom instruction) sleeps until the wake wire
  pulses; a latched pulse that arrived early is consumed immediately.
- Interrupts: when enabled and the interrupt wire has a pending pulse,
  the controller pushes the PC and vectors to the last instruction
  -memory word (PicoBlaze convention) before the next fetch.

Flag semantics (PicoBlaze): logical ops clear C and set Z; arithmetic
sets C on carry/borrow and Z on zero result; shifts/rotates move the
shifted-out bit into C; LOAD/INPUT/FETCH/STORE/OUTPUT leave flags
untouched; COMPARE sets flags like SUB without writing the register.

Temporal decoupling
-------------------
Most instructions touch only the controller's own state (registers,
flags, scratchpad, PC and call stack): the ALU ops, ``LOAD``, ``NOP``,
jumps, ``CALL``/``RETURN`` and ``STORE``/``FETCH``.  :meth:`Controller8.run`
executes these in place and adds their 2 cycles to a local ``pending``
count instead of yielding a ``Delay`` per instruction — the
loosely-timed technique of SystemC TLM-2.0 (IEEE 1666-2011).  It
yields one ``Delay(pending)`` before every instruction that must meet
the rest of the model at its own cycle: ``INPUT*``, ``OUTPUT*``,
``HALT``, ``EINT``/``DINT``/``RETURNI*``, and every instruction while
interrupts are enabled.  It then re-enters its loop at that
instruction's exact cycle, so the ``stop()`` and interrupt checks run
on a real instruction boundary.

No other component can see a private instruction, so every port
access, CU issue and ``HALT`` lands on the cycle it would land on if
each instruction yielded by itself: 2 cycles per instruction still
holds and cycle counts are unchanged.  Each of these yields is
``Delay(pending, ahead=pending - 2)``, so the kernel orders the
wake-up among same-cycle events as if the last private instruction
had scheduled it, as a stepping controller would: a CU completion on
the cycle of an ``INPUT`` or ``OUTPUT`` still runs first.  Only
same-cycle events of two different controllers may interleave
differently.

A ``HALT`` whose wake-up is already fixed — the done pulse is latched,
or the unit's last completion has a known cycle (see
:meth:`repro.sim.signals.PulseWire.fixed_pulse`) — sleeps in one
``Delay`` to the cycle the wait would have resumed on, ordered as that
wake-up (a pulse's waiters resume after everything scheduled before
the pulse on its cycle), instead of a ``Delay`` plus a wait.

``pending`` is also yielded before the process returns, so it ends on
the same cycle, and whenever it reaches :data:`SYNC_QUANTUM` cycles, so
a loop without I/O still lets ``Simulator.run(until=...)`` stop and
``max_events`` catch a runaway model.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Protocol

from repro.errors import ExecutionError
from repro.isa.opcodes import FLOW_VARIANTS, REGISTER_FORMS, Cond, Decoded, Op
from repro.isa.program import Program
from repro.sim.kernel import Delay, Simulator
from repro.sim.signals import PulseWire

CYCLES_PER_INSTRUCTION = 2
STACK_DEPTH = 30
SCRATCHPAD_BYTES = 64
#: Most cycles the controller runs ahead of the kernel clock through
#: private instructions before it yields anyway.
SYNC_QUANTUM = 256

#: The catch-up yields by ``pending`` cycles (``Delay`` is immutable, so
#: one per count serves every controller).
_CATCH_UP = {
    cycles: Delay(cycles, ahead=cycles - CYCLES_PER_INSTRUCTION)
    for cycles in range(CYCLES_PER_INSTRUCTION, SYNC_QUANTUM + 1, CYCLES_PER_INSTRUCTION)
}

#: Instructions the controller only executes at their own cycle (see
#: the module docstring); every other one is private.
SYNC_OPS = frozenset(
    {
        Op.INPUT,
        Op.INPUT_R,
        Op.OUTPUT,
        Op.OUTPUT_R,
        Op.HALT,
        Op.EINT,
        Op.DINT,
        Op.RETURNI_E,
        Op.RETURNI_D,
    }
)

_FLAG_TESTS: Dict[Cond, Callable[["Controller8"], bool]] = {
    Cond.ALWAYS: lambda ctrl: True,
    Cond.Z: lambda ctrl: ctrl.zero,
    Cond.NZ: lambda ctrl: not ctrl.zero,
    Cond.C: lambda ctrl: ctrl.carry,
    Cond.NC: lambda ctrl: not ctrl.carry,
}
#: Flow-control opcode -> the flag test its condition names.
_CONDITION: Dict[Op, Callable[["Controller8"], bool]] = {
    op: _FLAG_TESTS[cond]
    for variants in FLOW_VARIANTS.values()
    for cond, op in variants.items()
}


class PortDevice(Protocol):
    """What the controller is wired to (the Cryptographic Core binds this)."""

    def read_port(self, port: int) -> int:
        """Handle ``INPUT``: return the byte at *port*."""
        ...  # pragma: no cover - protocol

    def write_port(self, port: int, value: int) -> None:
        """Handle ``OUTPUT``: accept *value* written to *port*."""
        ...  # pragma: no cover - protocol


class _NullDevice:
    def read_port(self, port: int) -> int:
        return 0

    def write_port(self, port: int, value: int) -> None:
        return None


class Controller8:
    """One 8-bit controller instance.

    Parameters
    ----------
    sim:
        The simulation kernel.
    program:
        Assembled instruction memory (possibly shared with a neighbour
        core, as in the paper).
    device:
        Port handler; defaults to a null device.
    name:
        Trace/diagnostic name.
    """

    def __init__(
        self,
        sim: Simulator,
        program: Program,
        device: Optional[PortDevice] = None,
        name: str = "ctrl",
    ):
        self.sim = sim
        self.program = program
        self.device: PortDevice = device if device is not None else _NullDevice()
        self.name = name

        self.regs: List[int] = [0] * 16
        self.zero = False
        self.carry = False
        self.pc = 0
        self.stack: List[int] = []
        self.scratchpad: List[int] = [0] * SCRATCHPAD_BYTES
        self.interrupts_enabled = False
        self._preserved_flags: Optional[tuple] = None

        #: Wake line for HALT (the CU done strobe in a Cryptographic Core).
        self.wake = PulseWire(sim, f"{name}.wake")
        self._irq_pending = False
        self.irq_vector = max(len(program) - 1, 0)

        #: Executed-instruction counter (for CPI checks in tests).
        self.instructions_retired = 0
        self.halted_cycles = 0
        self._stopped = False

    # -- helpers ------------------------------------------------------------

    def stop(self) -> None:
        """Request the run loop to finish before its next instruction.

        A stop requested by another component takes effect at the
        controller's next synchronising instruction (see the module
        docstring); one requested by the controller's own ``OUTPUT``
        takes effect right after it.
        """
        self._stopped = True

    def load_program(self, program: Program, start_pc: int = 0) -> None:
        """Swap instruction memory (firmware reload by the Task Scheduler)."""
        self.program = program
        self.pc = start_pc
        self.irq_vector = max(len(program) - 1, 0)

    def _set_zc_logical(self, value: int) -> None:
        self.zero = value == 0
        self.carry = False

    def _alu_source(self, decoded: Decoded) -> int:
        if decoded.op in REGISTER_FORMS:
            return self.regs[(decoded.operand >> 4) & 0xF]
        return decoded.operand

    # -- the process ----------------------------------------------------------

    def run(self, entry: Optional[str] = None) -> Generator:
        """Generator to hand to ``sim.add_process``.

        Runs until the program falls off the end, ``stop()`` is called,
        or a RETURN executes with an empty stack (treated as firmware
        completion, returning from the top-level routine).
        """
        if entry is not None:
            self.pc = self.program.label(entry)
        # Cycles of instructions executed but not yet yielded to the kernel.
        pending = 0
        while not self._stopped:
            if pending and (self.interrupts_enabled or pending >= SYNC_QUANTUM):
                yield _CATCH_UP[pending]
                pending = 0
                continue
            if self.interrupts_enabled and self._irq_pending:
                self._take_irq()

            code = self.program.decoded
            if self.pc >= len(code):
                break
            decoded = code[self.pc]
            op = decoded.op
            if op in SYNC_OPS:
                if pending:
                    yield _CATCH_UP[pending]
                    pending = 0
                    continue
                if op is Op.HALT:
                    # Sleep until the wake wire pulses (done-latch absorbed
                    # inside PulseWire).  Cost: the 2 base cycles, plus
                    # however long the sleep lasts.
                    self.pc += 1
                    self.instructions_retired += 1
                    start = self.sim.now
                    pulse = self.wake.fixed_pulse()
                    if pulse is None:
                        yield Delay(CYCLES_PER_INSTRUCTION)
                        yield self.wake.wait()
                    else:
                        # The pulse's cycle is already fixed: wake where
                        # the wait would have woken, in one yield.
                        sleep = max(pulse, start + CYCLES_PER_INSTRUCTION) - start
                        yield Delay(sleep, sleep)
                        self.wake.consume()
                    self.halted_cycles += self.sim.now - start - CYCLES_PER_INSTRUCTION
                    continue

            self.pc += 1
            self.instructions_retired += 1
            self._execute(decoded)
            pending += CYCLES_PER_INSTRUCTION
        if pending:
            yield _CATCH_UP[pending]
        return None

    def post_irq(self) -> None:
        """Raise the interrupt line (taken before the next fetch)."""
        self._irq_pending = True

    def _take_irq(self) -> None:
        self._irq_pending = False
        if len(self.stack) >= STACK_DEPTH:
            raise ExecutionError(f"{self.name}: stack overflow on IRQ")
        self.stack.append(self.pc)
        self._preserved_flags = (self.zero, self.carry)
        self.interrupts_enabled = False
        self.pc = self.irq_vector

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


_C = Controller8
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

"""The Cryptographic Unit execution model (paper Fig. 3, section V).

The CU is passive: the core's 8-bit controller *issues* an instruction
by writing its byte to the CU port (OUTPUT), which calls
:meth:`CryptoUnit.start` at the controller's write-strobe cycle.  The
CU then owns the datapath until the instruction completes, pulses
``done`` (wired to the controller's HALT wake line), and accepts the
next instruction.

Timing rules (see :mod:`repro.unit.timing` for the calibration):

- predictable instructions (LOADH/SGFM/SAES/INC/XOR/EQU/NOP) occupy the
  CU for ``cu_chain_cycles`` (6); SAES/SGFM additionally launch their
  background core;
- FAES/FGFM complete ``finalize_tail`` (5) cycles after the background
  core finishes, delivering the result into the bank register;
- LOAD/STORE/ICSEND/ICRECV stall while their FIFO/mailbox cannot serve
  them, then run their 6 cycles.

Functional effects are applied at *completion* time for finalizes and
at *issue* time for samples (SAES/SGFM read the bank when they start,
which is what lets Listing 1 overwrite the data register while GHASH is
still absorbing it).

The datapath is integer end to end: the bank holds 128-bit ints, the
functional cores take and return them, a LOAD assembles four FIFO words
into one and a STORE splits one into four.  Bytes exist only outside
the device; the crossbar converts them to and from words once per
packet (:mod:`repro.mccp.crossbar`).

Catch-up on access
------------------
Each personality issues from one table built at import
(:data:`CU_ISSUE`, ``WP_ISSUE``): instruction byte -> ``(op, a, b,
timing class, handler)``.  The timing class fixes an instruction's
completion cycle when it issues: at once for the fixed and engine
classes, and from the FIFO's arrival schedule for LOAD/STORE
(:mod:`repro.sim.fifo`).  The completion is then only
recorded, as a virtual entry keyed like the kernel entry the stepped
CU would have scheduled.  Every access — :meth:`start`,
:meth:`status_byte`, :meth:`reset_for_packet`, :meth:`call_when_idle`,
``busy`` and a wait on ``done`` — first applies it if that key is
already past (:meth:`catch_up`).  The mask writes need not: the mask is
read only when an XOR or EQU issues.  A LOAD's pop and a STORE's push
are handed to the FIFO as claims for the same key, so the FIFO replays
them in order without asking the CU.

A completion becomes a real kernel event, with the stepped key, only
where a wake-up must happen at its cycle:

- something queued behind it (the next instruction issues there);
- a HALT waiting on ``done``, or an idle callback pending;
- an ICSEND/ICRECV (the neighbour core waits on the mailbox).

A LOAD or STORE the known schedule cannot serve yet waits on the FIFO
(``when_changed``) and computes its completion when the schedule grows.

Issue ahead of the kernel
-------------------------
The controller issues at its own cycle, which may lie ahead of the
kernel's clock (:mod:`repro.isa.controller`), so :meth:`start` takes
that cycle and how far ahead it lies, and reads nothing of the kernel.
Ahead of the kernel it issues only an instruction that touches nothing
outside the core — the FIXED and ENGINE classes (:data:`PRIVATE
<LooselyTimedUnit.PRIVATE>` bytes): the bank, the AES, GHASH, INC and
XOR cores, the mask and the equality flag — and only onto a state
that no kernel event can still change: the unit idle, or its
in-flight completion virtual, due by the issue's cycle and, for a
LOAD, with its words already known.  Anything else (a LOAD, STORE,
ICSEND or ICRECV; a unit busy past that cycle, waiting on its FIFO or
mailbox, or with a completion that is a kernel event) is declined, and
the controller issues it at the kernel.  :meth:`reach` does the same
for a ``HALT`` ahead of the kernel, and the mask writes decline only
while an instruction is queued.

Against a controller access, completions order by cycle alone: a
completion lands more than one controller instruction after its issue
(:class:`~repro.unit.timing.TimingModel` enforces it), so its kernel
key's stamp is below the stamp of any controller position on its
cycle, and the kernel would run it first.  A completion on the issue's
own cycle or earlier is thus past, and with nothing waiting on it (a
wait would have made it a kernel event, which has run), :meth:`start`
applies it in line: no ``done`` pulse that the issue would clear at
once.  A FIXED or ENGINE completion carries sequence number 0, as no
kernel counter is read: it orders before any kernel entry of its cycle
and stamp.  Only an access on that very key could tell, and the
unit's accesses come from its controller, whose positions have the
higher stamps above; a completion made a kernel event takes the
kernel's next number.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from repro.core.key_cache import RoundKeys
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
    """The 4 x 32-bit inter-core shift register (one 128-bit mailbox)."""

    def __init__(self, sim: Simulator, name: str = "ic"):
        self.sim = sim
        self.name = name
        self._block: Optional[int] = None
        self._space_waiters: list = []
        self._data_waiters: list = []
        #: Blocks ever transferred.
        self.transfers = 0

    @property
    def full(self) -> bool:
        """Whether a block is waiting to be received."""
        return self._block is not None

    def put(self, block: int) -> None:
        """Deposit a block (caller must have checked :attr:`full`)."""
        if self._block is not None:
            raise UnitError(f"{self.name}: inter-core register overrun")
        self._block = block
        self.transfers += 1
        while self._data_waiters:
            callback = self._data_waiters.pop(0)
            self.sim.call_soon(lambda _arg, cb=callback: cb())

    def take(self) -> int:
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


class Timing(enum.Enum):
    """How an instruction's completion cycle follows from its issue."""

    #: ``cu_chain_cycles`` after issue.
    FIXED = "fixed"
    #: When the background engine delivers (the handler returns the cycle).
    ENGINE = "engine"
    #: ``cu_chain_cycles`` after the input FIFO holds a block.
    INPUT = "input"
    #: ``cu_chain_cycles`` after the output FIFO has room for a block.
    OUTPUT = "output"
    #: ``cu_chain_cycles`` after the neighbour's mailbox serves it (the
    #: handler arranges the completion).
    MAILBOX = "mailbox"


# An enum member lookup (``Timing.FIXED``) costs ~0.1 us on CPython 3.11;
# the issue path compares against module-level aliases instead.
_FIXED, _ENGINE, _INPUT, _OUTPUT = Timing.FIXED, Timing.ENGINE, Timing.INPUT, Timing.OUTPUT

#: A row of an op table: the timing class and the issue handler
#: ``handler(unit, a, b, now)``.  It applies the issue-time effects and
#: returns the completion effect (FIXED), ``(effect, cycle)`` (ENGINE),
#: the register the loaded block goes to (INPUT) or the value to store
#: (OUTPUT).
OpRow = Tuple[Timing, Callable]

#: A row of an issue table: ``(op, a, b) + OpRow`` of one instruction byte.
IssueRow = Tuple[enum.IntEnum, int, int, Timing, Callable]


def private_bytes(issue: Dict[int, IssueRow]) -> FrozenSet[int]:
    """The instruction bytes of an issue table whose timing is FIXED or
    ENGINE: they touch nothing outside the core, so they may issue ahead
    of the kernel (see :meth:`LooselyTimedUnit.start`)."""
    return frozenset(byte for byte, row in issue.items() if row[3] in (Timing.FIXED, Timing.ENGINE))


class LooselyTimedUnit:
    """Issue queue and catch-up-on-access timing of a CU personality.

    A subclass supplies ``ISSUE`` (instruction byte -> :data:`IssueRow`,
    built once at import) and its ``PRIVATE`` bytes, ``decode`` (which
    raises on a byte missing from ``ISSUE``) and its functional state
    beyond the bank register.
    """

    ISSUE: Dict[int, IssueRow] = {}
    PRIVATE: FrozenSet[int] = frozenset()

    def __init__(
        self,
        sim: Simulator,
        io: IoCore,
        timing: TimingModel,
        trace: Optional[TraceRecorder],
        name: str,
    ):
        self.sim = sim
        self.io = io
        self.timing = timing
        # An empty TraceRecorder is falsy (it has __len__), so compare to None.
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.name = name
        self.done = PulseWire(sim, f"{name}.done")
        self._bank = BankRegister()
        #: The bank's registers, indexed directly by the issue handlers.
        self._regs = self._bank.regs
        self._busy = False
        self._queue: list = []
        self._idle_callbacks: list = []
        #: Key ``(cycle, stamp, seq)`` of the in-flight completion once known.
        self._due: Optional[Tuple[int, int, int]] = None
        self._effect: Optional[Callable[[], None]] = None
        #: The in-flight LOAD's claim while its words are still to arrive.
        self._claim = None
        #: The kernel entry when that completion is a real event.
        self._entry = None
        sim.add_timeline(self)

    def decode(self, instr_byte: int):
        """``(op, a, b)`` for *instr_byte* (raises on an undecodable byte)."""
        raise NotImplementedError

    # -- catch-up --------------------------------------------------------------

    def catch_up(self) -> None:
        """Apply the in-flight completion if its key is already past."""
        due = self._due
        if due is not None:
            now = self.sim.now
            if due[0] < now or (due[0] == now and due < self.sim.position()):
                self._complete()

    def reach(self, cycle: int, ahead: int) -> bool:
        """Catch up to *cycle*, a controller access *ahead* cycles past
        the kernel: False, changing nothing, if the unit's state there
        depends on the kernel (see :meth:`start`)."""
        due = self._due
        if ahead:
            if self._entry is not None:
                return False
            if due is None:
                return not self._busy
            if due[0] <= cycle and self._claim is not None:
                return False
        if due is not None and due[0] <= cycle:
            self._complete()
        return True

    def horizon(self) -> int:
        """Cycle of a pending virtual completion (see ``Simulator.add_timeline``)."""
        due = self._due
        return due[0] if due is not None and self._entry is None else 0

    def idle_cycle(self) -> Optional[int]:
        """Cycle the unit next goes idle (pulsing ``done``), if already
        fixed: a virtual completion with nothing queued behind it."""
        due = self._due
        if due is None or self._entry is not None or self._queue:
            return None
        return due[0]

    def wake_on_completion(self) -> None:
        """Make the in-flight completion a real event (someone waits on it)."""
        due = self._due
        if due is not None and self._entry is None:
            cycle, stamp, _seq = due
            self._due = (cycle, stamp, self.sim._seq)
            self._entry = self.sim.call_stamped(cycle, stamp, self._fire)

    @property
    def bank(self) -> BankRegister:
        """The bank register, with every past completion written."""
        self.catch_up()
        return self._bank

    @property
    def busy(self) -> bool:
        """Whether an instruction is in flight."""
        self.catch_up()
        return self._busy

    @property
    def queued(self) -> int:
        """Instructions issued by the controller but not started yet."""
        self.catch_up()
        return len(self._queue)

    def call_when_idle(self, fn: "Callable[[], None]") -> None:
        """Run *fn* once the CU is idle with an empty issue queue.

        Runs immediately if already idle.  Unlike waiting on the
        ``done`` pulse wire, this cannot consume (or be fooled by) a
        latched done pulse, so it is safe for core-level bookkeeping
        that must not race the firmware's HALT protocol.
        """
        self.catch_up()
        if not self._busy and not self._queue:
            fn()
        else:
            self._idle_callbacks.append(fn)
            self.wake_on_completion()

    # -- controller-facing API ---------------------------------------------

    def start(self, instr_byte: int, cycle: Optional[int] = None, ahead: int = 0) -> bool:
        """Issue an instruction (controller write strobe) at *cycle*.

        If the unit is still finishing earlier instructions (including a
        FIFO-stalled LOAD/STORE) the new one queues and issues at the
        predecessor's completion cycle, which is exactly the hardware
        handshake timing.  The ``done`` wire pulses only when the unit
        goes *idle* (completion with an empty queue) — the condition the
        controller's HALT waits for.

        The controller passes *cycle* and *ahead*, the cycles *cycle*
        lies past the kernel's clock (see "Issue ahead of the kernel" in
        the module docstring).  Ahead of it the unit takes only a
        private instruction onto a state it already knows; otherwise it
        issues nothing and returns False, and the controller catches the
        kernel up and calls again with *ahead* 0, which always issues.
        Without *cycle* the issue lands at the kernel's position.
        """
        if cycle is None:
            self.catch_up()
            cycle = self.sim.now
        else:
            due = self._due
            if ahead and (
                instr_byte not in self.PRIVATE
                or self._entry is not None
                or (self._busy if due is None else due[0] > cycle or self._claim is not None)
            ):
                return False
            if due is not None and due[0] <= cycle:
                # The in-flight instruction completed by *cycle*, and
                # nothing waits on it (a wait would have made it a
                # kernel event, already fired): apply it.  Its done
                # pulse would latch and this issue clear it at once, so
                # the wire is left alone.
                effect = self._effect
                self._due = self._effect = self._claim = None
                if effect is not None:
                    effect()
                self._busy = False
                if self.trace.enabled:
                    self.trace.record(due[0], self.name, "complete")
        if self._busy:
            # Only a busy unit has a queue: each completion issues the next.
            self._queue.append(instr_byte)
            self.wake_on_completion()
            return True
        row = self.ISSUE.get(instr_byte)
        if row is None:
            self.decode(instr_byte)  # raises DecodeError for this byte
        op, a, b, timing, handler = row
        self._busy = True
        self.done.clear_latch()
        if self.trace.enabled:
            self._record_issue(cycle, op, a, b)
        result = handler(self, a, b, cycle)
        if timing is _FIXED:
            self._effect = result
            self._due = (cycle + self.timing.cu_chain_cycles, cycle, 0)
        elif timing is _ENGINE:
            self._effect, due_cycle = result
            self._due = (due_cycle, cycle, 0)
        else:
            if timing is _INPUT:
                self._await_input(result)
            elif timing is _OUTPUT:
                self._await_output(result)
            return True
        # Only a wait on it makes the completion a kernel event.
        if self._queue or self._idle_callbacks or self.done.waiting:
            self.wake_on_completion()
        return True

    def _reset_check(self) -> None:
        self.catch_up()
        if self._busy:
            raise UnitError(f"{self.name}: reset while busy")
        self.done.clear_latch()

    # -- execution ----------------------------------------------------------

    def _record_issue(self, now: int, op, a: int, b: int) -> None:
        self.trace.record(now, self.name, "issue", op=op.name, a=a, b=b)

    def _finish(
        self,
        cycle: int,
        stamp: int,
        effect: Optional[Callable[[], None]],
        real: bool = False,
        seq: Optional[int] = None,
    ) -> None:
        """The in-flight instruction completes at *cycle*, keyed as if
        scheduled at cycle *stamp* now (or with the given *seq*)."""
        self._effect = effect
        self._due = (cycle, stamp, self.sim._seq if seq is None else seq)
        if real or self._queue or self._idle_callbacks or self.done.waiting:
            self.wake_on_completion()

    def _await_input(self, a: int) -> None:
        io = self.io
        fifo = io.in_fifo
        ready = fifo.pop_ready()
        if ready is None:
            fifo.when_changed(lambda: self._await_input(a))
            return
        ready = max(ready, self.sim.now)
        cycle, seq = ready + self.timing.cu_chain_cycles, self.sim._seq
        claim = io.claim_load(cycle, ready, seq)
        regs = self._regs
        if claim.words is None:
            # The words arrive later: only the FIFO, caught up to the
            # claim, can tell them (see start()).
            self._claim = claim

        def load() -> None:
            regs[a] = io.loaded(claim)

        self._finish(cycle, ready, load, seq=seq)

    def _await_output(self, value: int) -> None:
        fifo = self.io.out_fifo
        ready = fifo.push_ready()
        if ready is None:
            fifo.when_changed(lambda: self._await_output(value))
            return
        ready = max(ready, self.sim.now)
        cycle, seq = ready + self.timing.cu_chain_cycles, self.sim._seq
        self.io.claim_store(cycle, ready, seq, value)
        self._finish(cycle, ready, None, seq=seq)

    def _fire(self, _arg) -> None:
        self._entry = None
        self._complete()

    def _complete(self) -> None:
        cycle = self._due[0]
        effect = self._effect
        self._due = self._effect = self._claim = None
        if self._entry is not None:  # pragma: no cover - caught up before firing
            self.sim.cancel(self._entry)
            self._entry = None
        if effect is not None:
            effect()
        self._busy = False
        if self.trace.enabled:
            self.trace.record(cycle, self.name, "complete")
        if self._queue:
            self.start(self._queue.pop(0), cycle)
        else:
            self.done.pulse()
            if self._idle_callbacks:
                callbacks, self._idle_callbacks = self._idle_callbacks, []
                for fn in callbacks:
                    fn()


# -- the AES personality's instructions ------------------------------------------
#
# Handlers index the bank's registers (``cu._regs``) directly: the 2-bit
# address fields are always in range.  ``partial(regs.__setitem__, a, v)``
# is the completion effect "bank[a] <- v".


def _nop(cu, a, b, now):
    return None


def _load(cu, a, b, now):
    return a


def _store(cu, a, b, now):
    return cu._regs[a]


def _loadh(cu, a, b, now):
    cu.ghash.load_h(cu._regs[a], now)


def _sgfm(cu, a, b, now):
    cu.ghash.absorb(cu._regs[a], now)


def _fgfm(cu, a, b, now):
    digest, ready = cu.ghash.finalize(now)
    return partial(cu._regs.__setitem__, a, digest), ready


def _saes(cu, a, b, now):
    cu.aes.start(cu._regs[a], cu._key_provider(), now)


def _faes(cu, a, b, now):
    result, ready = cu.aes.finalize(now)
    return partial(cu._regs.__setitem__, a, result), ready


def _inc(cu, a, b, now):
    regs = cu._regs
    regs[a] = inc16(regs[a], b + 1)


def _xor(cu, a, b, now):
    regs = cu._regs
    regs[b] = masked_xor(regs[a], regs[b], cu.mask)


def _equ(cu, a, b, now):
    regs = cu._regs
    cu.equ_flag = masked_equal(regs[a], regs[b], cu.mask)


def _icsend(cu, a, b, now):
    if cu.ic_out is None:
        raise UnitError(f"{cu.name}: ICSEND with no neighbour wired")
    block = cu._regs[a]
    chain = cu.timing.cu_chain_cycles
    cu.ic_out.when_space(
        lambda: cu._finish(
            cu.sim.now + chain, cu.sim.now, lambda: cu.ic_out.put(block), real=True
        )
    )


def _icrecv(cu, a, b, now):
    chain = cu.timing.cu_chain_cycles

    def receive() -> None:
        cu._regs[a] = cu.ic_in.take()

    cu.ic_in.when_data(
        lambda: cu._finish(cu.sim.now + chain, cu.sim.now, receive, real=True)
    )


#: Opcode -> (timing class, issue handler); see :data:`OpRow`.
CU_OPS: Dict[CuOp, OpRow] = {
    CuOp.NOP: (Timing.FIXED, _nop),
    CuOp.LOAD: (Timing.INPUT, _load),
    CuOp.STORE: (Timing.OUTPUT, _store),
    CuOp.LOADH: (Timing.FIXED, _loadh),
    CuOp.SGFM: (Timing.FIXED, _sgfm),
    CuOp.FGFM: (Timing.ENGINE, _fgfm),
    CuOp.SAES: (Timing.FIXED, _saes),
    CuOp.FAES: (Timing.ENGINE, _faes),
    CuOp.INC: (Timing.FIXED, _inc),
    CuOp.XOR: (Timing.FIXED, _xor),
    CuOp.EQU: (Timing.FIXED, _equ),
    CuOp.ICSEND: (Timing.MAILBOX, _icsend),
    CuOp.ICRECV: (Timing.MAILBOX, _icrecv),
}

#: Instruction byte -> :data:`IssueRow` for every decodable byte.
CU_ISSUE: Dict[int, IssueRow] = {
    byte: tuple(decoded) + CU_OPS[decoded.op] for byte, decoded in CU_DECODE_TABLE.items()
}


class CryptoUnit(LooselyTimedUnit):
    """The AES-personality Cryptographic Unit."""

    ISSUE = CU_ISSUE
    PRIVATE = private_bytes(CU_ISSUE)
    decode = staticmethod(cu_decode)

    def __init__(
        self,
        sim: Simulator,
        io: IoCore,
        key_provider: "Callable[[], RoundKeys]",
        timing: TimingModel,
        trace: Optional[TraceRecorder] = None,
        name: str = "cu",
    ):
        super().__init__(sim, io, timing, trace, name)
        self._key_provider = key_provider
        self.aes = AesCore(timing)
        self.ghash = GhashCore(timing)
        self.mask = 0xFFFF
        self.equ_flag = False

        #: Own inbox; ``ic_out`` is the *neighbour's* inbox (wired by the MCCP).
        self.ic_in = InterCoreRegister(sim, f"{name}.ic_in")
        self.ic_out: Optional[InterCoreRegister] = None

    # -- controller-facing API ---------------------------------------------

    def set_mask(self, mask: int) -> None:
        """Install the 16-bit byte mask used by XOR/EQU."""
        if not 0 <= mask <= 0xFFFF:
            raise UnitError(f"mask {mask:#x} exceeds 16 bits")
        self.catch_up()
        self.mask = mask

    def set_mask_low(self, byte: int, cycle: Optional[int] = None, ahead: int = 0) -> bool:
        """Write the low mask byte (controller port 0x01); *cycle* and
        *ahead* as for :meth:`start`."""
        if ahead and self._queue:
            return False
        self.mask = (self.mask & 0xFF00) | (byte & 0xFF)
        return True

    def set_mask_high(self, byte: int, cycle: Optional[int] = None, ahead: int = 0) -> bool:
        """Write the high mask byte (controller port 0x02); *cycle* and
        *ahead* as for :meth:`start`."""
        if ahead and self._queue:
            return False
        self.mask = ((byte & 0xFF) << 8) | (self.mask & 0x00FF)
        return True

    def status_byte(self) -> int:
        """Status for the controller: equ, AES-busy, GHASH-busy, CU-busy."""
        self.catch_up()
        now = self.sim.now
        return (
            (1 if self.equ_flag else 0)
            | (2 if now < self.aes.busy_until else 0)
            | (4 if now < self.ghash.busy_until else 0)
            | (8 if self._busy else 0)
        )

    def reset_for_packet(self) -> None:
        """Clear per-packet state (bank, flags) before a new task."""
        self._reset_check()
        self._bank.clear()
        self.equ_flag = False
        self.mask = 0xFFFF

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
them in order without asking the CU; a LOAD's words are known once it
is claimed.

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
that cycle and how far ahead it lies.  Ahead of the kernel it issues
an instruction only onto a state that no kernel event can still
change: the unit idle, or its in-flight completion virtual and due by
the issue's cycle (one field, the first cycle from which the unit may
take an issue ahead, holds that test).  A FIXED or ENGINE instruction
touches nothing outside the core (the bank, the AES, GHASH, INC and
XOR cores, the mask and the equality flag).  A LOAD or STORE claims a FIFO block
whose cycle the FIFO's known schedule already fixes
(:meth:`~repro.sim.fifo.WordFifo.pop_ready` and ``push_ready`` return a
cycle): the FIFO's one crossbar run is on the other side of the
unit's claims and cannot be replaced before it ends, so nothing the
kernel has still to run moves that cycle.  The claim is keyed as the
controller's access would be at the kernel: stamped two cycles before
it by the instruction before it, or on the cycle of a ``HALT``'s
wake-up if it is the first access after one (``done.woke``).
Anything else (an ICSEND or ICRECV; a LOAD whose words are in no known
schedule, a STORE the known schedule never makes room for; a unit busy
past that cycle, waiting on its FIFO or mailbox, or with a completion
that is a kernel event) is declined, and the controller issues it at
the kernel.  :meth:`sleep` does the same for a ``HALT``: it catches
the unit up to a wake-up it already knows, which the controller then
sleeps to inside its lead, or sends the ``HALT`` to wait at the
kernel.  The mask writes decline only while an instruction is queued.

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
kernel's next number.  A claim made ahead takes the kernel's next
number, as if the controller had yielded at the access.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import Callable, Dict, Optional, Tuple

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
_FIXED, _ENGINE, _INPUT, _OUTPUT, _MAILBOX = (
    Timing.FIXED, Timing.ENGINE, Timing.INPUT, Timing.OUTPUT, Timing.MAILBOX
)

#: The issue row of an undecodable byte: ahead of the kernel it
#: declines, as a mailbox instruction does; at the kernel it raises.
_UNDECODABLE = (None, 0, 0, _MAILBOX, None)

#: :attr:`LooselyTimedUnit._free` while no issue ahead of the kernel may
#: be taken.
_NEVER = 1 << 62

#: A row of an op table: the timing class and the issue handler
#: ``handler(unit, a, b, now)``.  It applies the issue-time effects and
#: returns the completion effect (FIXED), ``(effect, cycle)`` (ENGINE),
#: the register the loaded block goes to (INPUT) or the value to store
#: (OUTPUT).
OpRow = Tuple[Timing, Callable]

#: A row of an issue table: ``(op, a, b) + OpRow`` of one instruction byte.
IssueRow = Tuple[enum.IntEnum, int, int, Timing, Callable]


class LooselyTimedUnit:
    """Issue queue and catch-up-on-access timing of a CU personality.

    A subclass supplies ``ISSUE`` (instruction byte -> :data:`IssueRow`,
    built once at import), ``decode`` (which raises on a byte missing
    from ``ISSUE``) and its functional state beyond the bank register.
    """

    ISSUE: Dict[int, IssueRow] = {}

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
        self._chain_cycles = timing.cu_chain_cycles
        #: ``ISSUE`` indexed by byte, :data:`_UNDECODABLE` where it has
        #: no row.
        self._issue = [self.ISSUE.get(byte, _UNDECODABLE) for byte in range(256)]
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
        #: The kernel entry when that completion is a real event.
        self._entry = None
        #: The first cycle from which an issue ahead of the kernel may be
        #: taken: 0 while idle, the in-flight completion's cycle while it
        #: is virtual, :data:`_NEVER` while it is a kernel event or not
        #: known yet (see :meth:`start`).  Kept with the three above.
        self._free = 0
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

    def sleep(self, earliest: int, ahead: int) -> Optional[int]:
        """Where a ``HALT`` waiting on ``done`` wakes, if already fixed.

        The wait could end no earlier than *earliest*, which lies ahead
        of the kernel's clock (by *ahead* cycles and the ``HALT``'s own).
        If a pulse by then, or the unit's next one, is already known —
        latched, or a virtual completion with nothing queued behind it —
        the unit is caught up to that cycle, its pulse absorbed, and the
        cycle returned.  None, changing nothing, if the unit's state
        there depends on the kernel (see :meth:`start`: a completion that
        is a kernel event, or a wait on the FIFO or mailbox), or if the
        pulse is not known yet.
        """
        free = self._free
        if free == _NEVER:
            return None
        done = self.done
        if free > earliest:
            # A virtual completion after the earliest wake-up, with
            # nothing queued behind it (that would make it a kernel
            # event) and the wire not latched since its issue: its pulse
            # is the one the wait wakes on, and the wait absorbs it.
            earliest = free
            self._retire()
        else:
            if free:
                self._complete()  # due by then: its pulse latches
            if not done.latched:
                return None
            done.clear_latch()
        done.woke = earliest
        return earliest

    def horizon(self) -> int:
        """Cycle of a pending virtual completion (see ``Simulator.add_timeline``)."""
        free = self._free
        return 0 if free == _NEVER else free

    def wake_on_completion(self) -> None:
        """Make the in-flight completion a real event (someone waits on it)."""
        due = self._due
        if due is not None and self._entry is None:
            cycle, stamp, _seq = due
            self._due = (cycle, stamp, self.sim._seq)
            self._entry = self.sim.call_stamped(cycle, stamp, self._fire)
            self._free = _NEVER

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
        the module docstring).  Ahead of it the unit takes only an
        instruction whose issue and completion it already knows;
        otherwise it issues nothing and returns False, and the
        controller catches the kernel up and calls again with *ahead*
        0, which always issues.  Without *cycle* the issue lands at the
        kernel's position.
        """
        if ahead:
            if self._free > cycle:
                return False
            op, a, b, timing, handler = self._issue[instr_byte]
            if timing is not _FIXED and timing is not _ENGINE:
                if timing is _MAILBOX:
                    return False
                # Keyed as the controller's access at *cycle* would be:
                # scheduled by the instruction before it, or by a HALT's
                # wake-up on that cycle.
                at = (cycle, cycle if cycle == self.done.woke else cycle - 2, self.sim._seq)
                io = self.io
                ready = io.in_fifo.pop_ready(at) if timing is _INPUT else io.out_fifo.push_ready(at)
                if ready is None:
                    return False
            due = self._due
            if due is None:
                self._busy = True
                self.done.latched = False
            else:
                # Completed by *cycle*, with nothing waiting on it (a
                # wait would have made it a kernel event): apply it.  Its
                # done pulse would latch and this issue clear it at once,
                # so the wire is left alone: it has not pulsed since the
                # issue that cleared it.
                effect = self._effect
                if effect is not None:
                    effect()
            if self.trace.enabled:
                if due is not None:
                    self.trace.record(due[0], self.name, "complete")
                self._record_issue(cycle, op, a, b)
            result = handler(self, a, b, cycle)
            if timing is _FIXED:
                self._effect = result
                self._free = due_cycle = cycle + self._chain_cycles
                self._due = (due_cycle, cycle, 0)
            elif timing is _ENGINE:
                self._effect, due_cycle = result
                self._free = due_cycle
                self._due = (due_cycle, cycle, 0)
            else:
                # A block move the FIFO's schedule has fixed.
                self._free = due_cycle = ready + self._chain_cycles
                self._due = key = (due_cycle, ready, at[2])
                if timing is _INPUT:
                    self._effect = partial(self._regs.__setitem__, result, io.claim_load(key, at))
                else:
                    io.claim_store(key, at, result)
                    self._effect = None
            # Idle before the issue, so nothing is queued and no idle
            # callback pends; a wait on ``done`` makes it a kernel event.
            if self.done.waiters:
                self.wake_on_completion()
            return True
        if cycle is None:
            self.catch_up()
            cycle = self.sim.now
        else:
            due = self._due
            if due is not None and due[0] <= cycle:
                # As above; at the kernel, any wait has woken already.
                self._retire()
        if self._busy:
            # Only a busy unit has a queue: each completion issues the next.
            self._queue.append(instr_byte)
            self.wake_on_completion()
            return True
        if not 0 <= instr_byte < 256 or self._issue[instr_byte] is _UNDECODABLE:
            self.decode(instr_byte)  # raises DecodeError for this byte
        op, a, b, timing, handler = self._issue[instr_byte]
        self._busy = True
        self._free = _NEVER
        self.done.latched = False
        if self.trace.enabled:
            self._record_issue(cycle, op, a, b)
        result = handler(self, a, b, cycle)
        if timing is _FIXED:
            self._effect = result
            self._free = due_cycle = cycle + self._chain_cycles
            self._due = (due_cycle, cycle, 0)
        elif timing is _ENGINE:
            self._effect, due_cycle = result
            self._free = due_cycle
            self._due = (due_cycle, cycle, 0)
        else:
            if timing is _INPUT:
                self._await_input(result)
            elif timing is _OUTPUT:
                self._await_output(result)
            return True
        # Only a wait on it makes the completion a kernel event.
        if self._queue or self._idle_callbacks or self.done.waiters:
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

    def _finish(self, key: Tuple[int, int, int], effect, real: bool = False) -> None:
        """The in-flight instruction completes at kernel key *key*."""
        self._effect = effect
        self._due = key
        self._free = key[0]
        if real or self._queue or self._idle_callbacks or self.done.waiters:
            self.wake_on_completion()

    def _await_input(self, a: int) -> None:
        fifo = self.io.in_fifo
        at = self.sim.position()
        ready = fifo.pop_ready(at)
        if ready is None:
            fifo.when_changed(lambda: self._await_input(a))
            return
        key = (ready + self._chain_cycles, ready, self.sim._seq)
        self._finish(key, partial(self._regs.__setitem__, a, self.io.claim_load(key, at)))

    def _await_output(self, value: int) -> None:
        fifo = self.io.out_fifo
        at = self.sim.position()
        ready = fifo.push_ready(at)
        if ready is None:
            fifo.when_changed(lambda: self._await_output(value))
            return
        key = (ready + self._chain_cycles, ready, self.sim._seq)
        self.io.claim_store(key, at, value)
        self._finish(key, None)

    def _fire(self, _arg) -> None:
        self._entry = None
        self._complete()

    def _retire(self) -> None:
        """Apply the in-flight completion: the unit goes idle.  Its done
        pulse, or the next queued issue, is the caller's."""
        cycle = self._due[0]
        effect = self._effect
        self._due = self._effect = None
        if effect is not None:
            effect()
        self._busy = False
        self._free = 0
        if self.trace.enabled:
            self.trace.record(cycle, self.name, "complete")

    def _complete(self) -> None:
        cycle = self._due[0]
        if self._entry is not None:  # pragma: no cover - caught up before firing
            self.sim.cancel(self._entry)
            self._entry = None
        self._retire()
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


def _mailbox_finish(cu, effect) -> None:
    sim = cu.sim
    cu._finish((sim.now + cu._chain_cycles, sim.now, sim._seq), effect, real=True)


def _icsend(cu, a, b, now):
    if cu.ic_out is None:
        raise UnitError(f"{cu.name}: ICSEND with no neighbour wired")
    block = cu._regs[a]
    cu.ic_out.when_space(lambda: _mailbox_finish(cu, lambda: cu.ic_out.put(block)))


def _icrecv(cu, a, b, now):
    def receive() -> None:
        cu._regs[a] = cu.ic_in.take()

    cu.ic_in.when_data(lambda: _mailbox_finish(cu, receive))


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

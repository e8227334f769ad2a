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

Temporal decoupling and translation
-----------------------------------
Most instructions touch only the controller's own state (registers,
flags, scratchpad, PC and call stack): the ALU ops, ``LOAD``, ``NOP``,
jumps, ``CALL``/``RETURN`` and ``STORE``/``FETCH``.  :meth:`Controller8.run`
executes these in place and adds their 2 cycles to a local ``pending``
count instead of yielding a ``Delay`` per instruction — the
loosely-timed technique of SystemC TLM-2.0 (IEEE 1666-2011): the
controller runs ahead of the kernel's clock, within a quantum.

An immediate ``OUTPUT`` runs ahead too when the device can take it
there.  The device's handler for the port (``PortDevice.writer``,
resolved once per port) gets the value, the write's cycle (``sim.now +
pending``) and how far that lies ahead of the kernel (``pending``).  A
Cryptographic Core hands a CU issue and a mask write straight to the
unit, which takes an instruction when its state at that cycle is
already known: the FIXED and ENGINE timing classes, and a ``LOAD`` or
``STORE`` whose FIFO block the FIFO's schedule already places; see
:meth:`repro.unit.unit.LooselyTimedUnit.start`.  The handler declines
everything else — a ``LOAD``/``STORE`` the schedule cannot place yet,
an ``ICSEND``/``ICRECV`` (the neighbour's mailbox), a result or debug
write — and the controller then yields ``Delay(pending)`` and writes at
the kernel.  It also yields before every ``INPUT*``, ``OUTPUT_R``,
``EINT``/``DINT``/``RETURNI*`` and every instruction while interrupts
are enabled, which then runs on a real instruction boundary, a ``HALT``
included, which then waits at the kernel.  Otherwise a ``HALT`` yields
only to sleep (below).

Nor does it interpret instructions one by one.  Each program is
translated on its first run into one entry per PC, memoised on the
program (:func:`translation`; Shade's translation cache, Cmelik &
Keppel, SIGMETRICS 1994): a *block*, the instructions from that PC
through a jump, ``CALL`` or ``RETURN`` or up to a synchronising
instruction, compiled from per-op templates into one Python function
that indexes the registers directly, writes the flags once, counts its
own retired instructions and returns the next PC with the cycles it
has run ahead; and a *step*, the PC's one instruction.  An immediate
``OUTPUT`` inside a block calls the port's handler in line (a
superinstruction: Proebsting, POPL 1995; Ertl & Gregg, PLDI 2003),
looked up once per call, so the builder's ``LOAD s2, k; OUTPUT s2,
P_CU; NOP`` idiom is three instructions of one block (a block stops at
:data:`BLOCK_LIMIT` instructions).  If the handler declines, the block
stops before that ``OUTPUT`` (returning its PC complemented) and the
loop catches up and writes it at the kernel; an ``OUTPUT`` leading a
block at the kernel the loop writes without the block.  A block runs
only if ``pending`` plus the cycles up to its first ``HALT`` or jump
stays below :data:`SYNC_QUANTUM`, and the loop catches up first
otherwise; while interrupts are enabled it runs steps.  A write the
device takes ahead of the kernel must not stop the controller; a
``stop()`` from its own ``OUTPUT`` at the kernel takes effect right
after it, one from elsewhere at the next synchronisation, and a
top-level ``RETURN`` ends the run.

No other component can see a private instruction or a write the
device took ahead, so every port access, CU issue and ``HALT`` lands
on the cycle it would land on if each instruction yielded by itself:
2 cycles per instruction still holds and cycle counts are unchanged.
Each catch-up yield is ``Delay(pending, ahead=pending - 2)``, so the
kernel orders the wake-up among same-cycle events as if the last
private instruction had scheduled it, as a stepping controller would:
a CU completion on the cycle of an ``INPUT`` or ``OUTPUT`` still runs
first.  Only same-cycle events of two different controllers may
interleave differently.

A ``HALT`` whose wake-up is already fixed — the done pulse is latched,
or the unit's last completion has a known cycle (see
:meth:`repro.sim.signals.PulseWire.fixed_wake`), as seen from the
``HALT``'s own cycle even ahead of the kernel — sleeps inside
``pending``: the unit is caught up to the wake-up cycle and its pulse
absorbed (:meth:`~repro.sim.signals.PulseWire.fixed_wake`), and the
controller adds the sleep to ``pending`` and runs on, so ``pending``
may be odd.  The next catch-up yield is ordered as that
wake-up (a pulse's waiters resume after everything scheduled before
the pulse on its cycle) if no instruction ran since, ``Delay(pending,
ahead=pending)``.  A sleep that would take ``pending`` to
:data:`SYNC_QUANTUM` yields at once, to the wake-up.

A block spans such a ``HALT``: it sleeps in place, counting the sleep
in the cycles it returns and in ``halted_cycles``, and runs on into the
instructions after it, grouped as a block at that PC would group them.
It stops before the ``HALT``, the way it stops before a declined
``OUTPUT``, if the wake-up is not fixed (the loop then catches up and
asks again at the kernel), and after it if the rest of the block would
cross the quantum.  A block whose closing jump targets its own start
runs again in place while the quantum allows (superblock formation, as
in Dynamo: Bala et al., PLDI 2000).  So a GCM block, its ``HALT`` and
its ``LOAD`` and ``STORE`` claims included, meets the kernel not at
all, and the main loop is one call per quantum: a controller in a loop
of CU work yields about once a quantum.

``pending`` is also yielded before the process returns, so it ends on
the same cycle, and before it would reach :data:`SYNC_QUANTUM` cycles,
so a loop without I/O still lets ``Simulator.run(until=...)`` stop and
``max_events`` catch a runaway model.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Generator, List, Optional, Protocol, Tuple

from repro.errors import ExecutionError
from repro.isa.opcodes import FLOW_VARIANTS, REGISTER_FORMS, Cond, Decoded, Op
from repro.isa.program import Program
from repro.sim.kernel import Delay, Simulator
from repro.sim.signals import PulseWire

CYCLES_PER_INSTRUCTION = 2
STACK_DEPTH = 30
SCRATCHPAD_BYTES = 64
#: Port numbers are one byte.
PORTS = 256
#: Most cycles the controller runs ahead of the kernel clock (private
#: instructions, writes the device takes ahead, ``HALT`` sleeps) before
#: it yields anyway.
SYNC_QUANTUM = 256

#: The catch-up yields by ``pending`` cycles, indexed by ``pending``
#: (``Delay`` is immutable, so one per count serves every controller):
#: ordered as scheduled by the last instruction, or, with no instruction
#: since a ``HALT``'s wake-up, as that wake-up.
_CATCH_UP = [None, None] + [
    Delay(cycles, ahead=cycles - CYCLES_PER_INSTRUCTION)
    for cycles in range(CYCLES_PER_INSTRUCTION, SYNC_QUANTUM)
]
_WOKEN = [None, None] + [
    Delay(cycles, ahead=cycles) for cycles in range(CYCLES_PER_INSTRUCTION, SYNC_QUANTUM)
]

#: Instructions the controller only executes at their own cycle (see
#: the module docstring); every other one is private.
SYNC_OPS = frozenset(
    {Op.INPUT, Op.INPUT_R, Op.OUTPUT, Op.OUTPUT_R, Op.HALT, Op.EINT, Op.DINT, Op.RETURNI_E, Op.RETURNI_D}
)

#: Most instructions in one translated block (a longer run chains blocks).
BLOCK_LIMIT = 32

# -- per-op templates -----------------------------------------------------------
#
# Generated functions take the controller ``c`` and its registers ``r``.
# In a template ``{x}`` is sX, ``{src}`` the immediate or ``r[sY]``, and
# ``{z}``/``{cy}`` read the flags; an op in _SETS_FLAGS writes both flags
# to the locals ``z`` and ``cy``, which the block stores once at its exit.

_SCRATCH_CHECK = f"if a >= {SCRATCHPAD_BYTES}: _fail(c, 'scratchpad address %#x' % a)"
_TEMPLATES: Dict[Op, str] = {
    Op.NOP: "",
    Op.LOAD: "r[{x}] = {src}",
    Op.AND: "r[{x}] = t = r[{x}] & {src}\nz = t == 0\ncy = False",
    Op.OR: "r[{x}] = t = r[{x}] | {src}\nz = t == 0\ncy = False",
    Op.XOR: "r[{x}] = t = r[{x}] ^ {src}\nz = t == 0\ncy = False",
    Op.ADD: "t = r[{x}] + {src}\ncy = t > 255\nr[{x}] = t = t & 255\nz = t == 0",
    Op.ADDCY: "t = r[{x}] + {src} + {cy}\ncy = t > 255\nr[{x}] = t = t & 255\nz = t == 0",
    Op.SUB: "t = r[{x}] - {src}\ncy = t < 0\nr[{x}] = t = t & 255\nz = t == 0",
    Op.SUBCY: "t = r[{x}] - {src} - {cy}\ncy = t < 0\nr[{x}] = t = t & 255\nz = t == 0",
    Op.COMPARE: "t = r[{x}] - {src}\ncy = t < 0\nz = (t & 255) == 0",
    Op.SR0: "t = r[{x}]\ncy = (t & 1) == 1\nr[{x}] = t = t >> 1\nz = t == 0",
    Op.SL0: "t = r[{x}]\ncy = t > 127\nr[{x}] = t = (t << 1) & 255\nz = t == 0",
    Op.RR: "t = r[{x}]\ncy = (t & 1) == 1\nr[{x}] = t = (t >> 1) | ((t & 1) << 7)\nz = t == 0",
    Op.RL: "t = r[{x}]\ncy = t > 127\nr[{x}] = t = ((t << 1) & 255) | (t >> 7)\nz = t == 0",
    Op.STORE: f"a = {{src}}\n{_SCRATCH_CHECK}\nc.scratchpad[a] = r[{{x}}]",
    Op.FETCH: f"a = {{src}}\n{_SCRATCH_CHECK}\nr[{{x}}] = c.scratchpad[a]",
    Op.INPUT: "r[{x}] = c.device.read_port({src}) & 255",
    Op.OUTPUT: "c.device.write_port({src}, r[{x}])",
    Op.EINT: "c.interrupts_enabled = True",
    Op.DINT: "c.interrupts_enabled = False",
}
_TEMPLATES.update(
    {Op[f"{op.name}_R"]: text for op, text in _TEMPLATES.items() if f"{op.name}_R" in Op.__members__}
)
_SETS_FLAGS = frozenset(op for op, text in _TEMPLATES.items() if "\nz = " in text)

_CONDITIONS = {Cond.ALWAYS: "True", Cond.Z: "{z}", Cond.NZ: "not {z}", Cond.C: "{cy}", Cond.NC: "not {cy}"}
#: Flow-control opcode -> (kind, condition).
_FLOW: Dict[Op, Tuple[str, str]] = {
    op: (kind, _CONDITIONS[cond]) for kind, variants in FLOW_VARIANTS.items() for cond, op in variants.items()
}
_FLOW.update({op: ("RETURNI", "True") for op in (Op.RETURNI_E, Op.RETURNI_D)})
_JUMPS = frozenset(FLOW_VARIANTS["JUMP"].values())
#: ``RETURNI`` is synchronising, so it only ever runs as a step.
_RETURNI = (
    "if not c.stack: _fail(c, 'RETURNI with empty stack')\n"
    "t = c.stack.pop()\n"
    "if c._preserved_flags is not None: c.zero, c.carry = c._preserved_flags\n"
    "c._preserved_flags = None\n"
    "c.interrupts_enabled = {enable}\n"
    "return t"
)


def _fail(ctrl: "Controller8", message: str) -> None:
    raise ExecutionError(f"{ctrl.name}: {message}")


def _indent(lines: List[str]) -> List[str]:
    return ["    " + line for line in lines]


def _segments(code: List[Decoded], pc: int) -> List[Tuple[int, int]]:
    """The ``(start, stop)`` ranges of ``code`` the block at *pc* runs.

    The first holds the instructions from *pc* through a jump, ``CALL``
    or ``RETURN``, or up to a synchronising instruction other than
    ``OUTPUT``, at most :data:`BLOCK_LIMIT` of them.  While a range is
    followed by a ``HALT``, the next one is the range after it, built
    the same way (empty if another synchronising instruction follows).
    """
    segments: List[Tuple[int, int]] = []
    begin = pc
    while True:
        stop = begin
        if begin < len(code) and (code[begin].op not in SYNC_OPS or code[begin].op is Op.OUTPUT):
            stop += 1
            while (
                code[stop - 1].op not in _FLOW
                and stop < len(code)
                and stop - begin < BLOCK_LIMIT
                and (code[stop].op not in SYNC_OPS or code[stop].op is Op.OUTPUT)
            ):
                stop += 1
        segments.append((begin, stop))
        if stop == pc or stop == len(code) or code[stop].op is not Op.HALT or code[stop - 1].op in _FLOW:
            return segments
        begin = stop + 1


def _function(code: List[Decoded], segments: List[Tuple[int, int]], step: bool = False, loop: bool = False) -> str:
    """Source of ``f(c, r, cycle, ahead)``, which runs the block of
    *segments* (see :func:`_segments`) from *cycle*, *ahead* cycles past
    the kernel's clock.

    It counts its own ``instructions_retired`` and ``halted_cycles`` and
    returns ``(pc, pending, woken)``: the next PC, the cycles it has run
    ahead, and that count again if nothing ran since a ``HALT``'s
    wake-up, else -1.  It returns ``~pc`` if the device declined the
    ``OUTPUT`` at *pc*, and the ``HALT``'s PC if it stopped before a
    ``HALT`` whose wake-up is not fixed.  With *loop*, its closing jump
    to its own start repeats it in place.  A *step* runs its one
    instruction at the kernel and returns the next PC alone.
    """
    start = segments[0][0]
    body: List[str] = []
    local_flags = False
    retired = 0  # instructions of this pass before the current one
    # The ports of the OUTPUTs, whose handlers are looked up once per call.
    ports = sorted({code[pc].operand for b, e in segments for pc in range(b, e) if code[pc].op is Op.OUTPUT})

    def leave(target, k: int = 0, woken: bool = False) -> List[str]:
        """Lines that end the block at *target*, *k* cycles past ``ahead``."""
        lines = ["c.zero = z; c.carry = cy"] if local_flags else []
        if step:
            return lines + [f"return {target}"]
        if loop or retired:
            lines.append(f"c.instructions_retired += {'n + ' if loop else ''}{retired}")
        pending = f"ahead + {k}" if k else "ahead"
        return lines + [f"return {target}, {pending}, {'ahead' if woken else -1}"]

    for index, (begin, stop) in enumerate(segments):
        if index:
            # The HALT before this range sleeps to a wake-up that is
            # already fixed, or the block stops before it; and the block
            # stops after it if the range would cross the quantum.
            halt, base = begin - 1, segments[index - 1][0]
            k = CYCLES_PER_INSTRUCTION * (halt - base)
            body.append(f"w = c.wake.fixed_wake(cycle + {k + CYCLES_PER_INSTRUCTION}, ahead + {k})")
            body.append("if w is None:")
            body.extend(_indent(leave(halt, k, woken=index > 1 and halt == base)))
            body.append(f"c.halted_cycles += w - cycle - {k + CYCLES_PER_INSTRUCTION}")
            body.append("ahead += w - cycle")
            body.append("cycle = w")
            retired += 1
            if stop > begin or index + 1 < len(segments):
                body.append(f"if ahead >= {SYNC_QUANTUM - CYCLES_PER_INSTRUCTION * (stop - begin)}:")
                body.extend(_indent(leave(begin, woken=True)))
        for pc in range(begin, stop):
            decoded = code[pc]
            op = decoded.op
            k = CYCLES_PER_INSTRUCTION * (pc - begin)
            fields = {
                "x": decoded.sx,
                "src": f"r[{decoded.operand >> 4}]" if op in REGISTER_FORMS else decoded.operand,
                "z": "z" if local_flags else "c.zero",
                "cy": "cy" if local_flags else "c.carry",
            }
            if op in _FLOW:
                kind, cond = _FLOW[op]
                if kind == "RETURNI":
                    body.extend(_RETURNI.format(enable=op is Op.RETURNI_E).split("\n"))
                    continue
                cond = cond.format(**fields)
                if local_flags:
                    body.append("c.zero = z; c.carry = cy")
                    local_flags = False
                retired += 1
                k += CYCLES_PER_INSTRUCTION
                if kind == "RETURN":
                    taken = ["if c.stack:", *_indent(leave("c.stack.pop()", k)), "c._stopped = True"]
                elif loop and decoded.addr == start:
                    # Back to the block's start: again, while the quantum allows.
                    limit = SYNC_QUANTUM - CYCLES_PER_INSTRUCTION * (segments[0][1] - start)
                    taken = [f"ahead += {k}", f"cycle += {k}", f"n += {retired}"]
                    taken += [f"if ahead < {limit}: continue", "c.instructions_retired += n"]
                    taken.append(f"return {start}, ahead, -1")
                else:
                    taken = leave(decoded.addr, k)
                    if kind == "CALL":
                        overflow = f"if len(c.stack) >= {STACK_DEPTH}: _fail(c, 'call stack overflow')"
                        taken = [overflow, f"c.stack.append({pc + 1})", *taken]
                if cond != "True":
                    taken = [f"if {cond}:", *_indent(taken)]
                body.extend(taken)
                if cond != "True" or kind == "RETURN":
                    body.extend(leave(pc + 1, k))
                continue  # the block's last instruction
            if op is Op.OUTPUT and not step:
                # The device's handler takes it ahead of the kernel, or
                # the block stops before it.  (The loop writes one that
                # leads a block at the kernel itself, without the block.)
                at = f"cycle + {k}, ahead + {k}" if k else "cycle, ahead"
                body.append(f"if not w{decoded.operand}(r[{decoded.sx}], {at}):")
                body.extend(_indent(leave(~pc, k, woken=index > 0 and pc == begin)))
                retired += 1
                continue
            body.extend(line for line in _TEMPLATES[op].format(**fields).split("\n") if line)
            local_flags = local_flags or op in _SETS_FLAGS
            retired += 1
    begin, stop = segments[-1]
    if stop == begin or code[stop - 1].op not in _FLOW:
        body.extend(leave(stop, CYCLES_PER_INSTRUCTION * (stop - begin), woken=len(segments) > 1 and stop == begin))
    if loop:
        body = ["n = 0", "while True:", *_indent(body)]
    if not step:
        body[:0] = [f"w{port} = c._writers[{port}] or c._writer({port})" for port in ports]
    return "\n    ".join(["def f(c, r, cycle=0, ahead=0):", *body])


#: One translated PC: ``(block, limit, port, sx, step)``.  The block
#: (None at a synchronising instruction other than ``OUTPUT``) runs
#: when ``pending < limit`` (see :func:`_function`).  *port*, if not
#: None, is the port of an ``OUTPUT sx, port`` at the PC; *step* runs
#: the PC's one instruction (None for ``HALT``).
Entry = Tuple[Optional[Callable], int, Optional[int], int, Optional[Callable]]


def translation(program: Program) -> List[Entry]:
    """The per-PC entries of *program*, built on its first run and
    memoised on it.

    Each block and step compiles on its first call, so a PC that only
    ever steps (near the quantum, or with interrupts enabled) never
    compiles a block, and one never reached compiles nothing.
    """
    try:
        return program._translation  # type: ignore[attr-defined]
    except AttributeError:
        pass
    code = program.decoded
    entries: List[Entry] = []
    for pc, decoded in enumerate(code):
        port, sx = (decoded.operand, decoded.sx) if decoded.op is Op.OUTPUT else (None, 0)
        step = None
        if decoded.op is not Op.HALT:
            step = _lazy(entries, code, [(pc, pc + 1)], 4, step=True)
        segments = _segments(code, pc)
        stop = segments[0][1]
        if stop == pc:
            entries.append((None, 0, port, sx, step))
            continue
        last = code[segments[-1][1] - 1]
        loop = segments[-1][1] > segments[-1][0] and last.op in _JUMPS and last.addr == pc
        limit = SYNC_QUANTUM - CYCLES_PER_INSTRUCTION * (stop - pc)
        entries.append((_lazy(entries, code, segments, 0, loop=loop), limit, port, sx, step))
    program._translation = entries  # type: ignore[attr-defined]
    return entries


def _lazy(
    entries: List[Entry],
    code: List[Decoded],
    segments: List[Tuple[int, int]],
    slot: int,
    step: bool = False,
    loop: bool = False,
) -> Callable:
    """A stand-in that compiles the block of *segments* on its first
    call, puts the function into *slot* of its entry and runs it."""
    start = segments[0][0]

    def first_call(ctrl: "Controller8", regs: List[int], *ahead: int):
        namespace: Dict[str, Callable] = {"_fail": _fail}
        source = _function(code, segments, step=step, loop=loop)
        exec(compile(source, f"<PC {start:#05x}>", "exec"), namespace)
        entry = list(entries[start])
        entry[slot] = namespace["f"]
        entries[start] = tuple(entry)  # type: ignore[assignment]
        return namespace["f"](ctrl, regs, *ahead)

    return first_call


class PortDevice(Protocol):
    """What the controller is wired to (the Cryptographic Core binds this)."""

    def read_port(self, port: int) -> int:
        """Handle ``INPUT``: return the byte at *port*."""
        ...  # pragma: no cover - protocol

    def write_port(self, port: int, value: int) -> None:
        """Handle ``OUTPUT``: accept *value* written to *port*."""
        ...  # pragma: no cover - protocol

    def writer(self, port: int) -> Callable[[int, int, int], bool]:
        """Optional: the handler an immediate ``OUTPUT sX, port`` calls,
        resolved once per port, as ``handler(value, cycle, ahead)``:
        *cycle* is the write's cycle and *ahead* how many cycles that
        lies past the kernel's clock.  It returns False, writing
        nothing, if the write must wait for the kernel (the controller
        then yields and calls again with *ahead* 0, which must accept).
        A write it takes ahead must be invisible outside the device
        until the kernel gets there, and must not stop the controller.
        Without it every ``OUTPUT`` waits for the kernel and calls
        :meth:`write_port`."""
        ...  # pragma: no cover - protocol


def _write_at_kernel(device: PortDevice, port: int, value: int, cycle: int, ahead: int) -> bool:
    """The ``writer`` handler of a device that has none."""
    if ahead:
        return False
    device.write_port(port, value)
    return True


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
        #: Port -> the device's ``OUTPUT`` handler, resolved on first use.
        self._writers: List[Optional[Callable[[int, int, int], bool]]] = [None] * PORTS

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

    def _writer(self, port: int) -> Callable[[int, int, int], bool]:
        writer = getattr(self.device, "writer", None)
        handler = writer(port) if writer is not None else partial(_write_at_kernel, self.device, port)
        self._writers[port] = handler
        return handler

    # -- the process ----------------------------------------------------------

    def run(self, entry: Optional[str] = None) -> Generator:
        """Generator to hand to ``sim.add_process``.

        Runs until the program falls off the end, ``stop()`` is called,
        or a RETURN executes with an empty stack (treated as firmware
        completion, returning from the top-level routine).
        """
        if entry is not None:
            self.pc = self.program.label(entry)
        sim, regs, writers = self.sim, self.regs, self._writers
        program = entries = None
        size = 0
        # Cycles of instructions executed but not yet yielded to the kernel.
        pending = 0
        # ``pending`` right after a HALT's wake-up inside it (-1: none).
        woken = -1
        while not self._stopped:
            stepping = self.interrupts_enabled
            if stepping:
                if pending:
                    yield (_WOKEN if pending == woken else _CATCH_UP)[pending]
                    pending, woken = 0, -1
                    continue
                if self._irq_pending:
                    self._take_irq()
            if self.program is not program:
                program = self.program
                entries = translation(program)
                size = len(entries)
            pc = self.pc
            if pc >= size:
                break
            block, limit, port, sx, step = entries[pc]
            if block is not None and not stepping:
                if pending >= limit:
                    # The block would cross the quantum: catch up first.
                    yield (_WOKEN if pending == woken else _CATCH_UP)[pending]
                    pending, woken = 0, -1
                    continue
                if pending or port is None:
                    # It returns ``pending`` unchanged only if nothing ran.
                    pc, ahead, wake = block(self, regs, sim.now + pending, pending)
                    if ahead != pending:
                        pending, woken = ahead, wake
                    if pc >= 0:
                        self.pc = pc
                        if pending >= SYNC_QUANTUM:
                            # It slept past the quantum: to the wake-up at once.
                            yield Delay(pending, pending)
                            pending, woken = 0, -1
                        continue
                    pc = ~pc
                # else an OUTPUT leading the block, at the kernel: written below.
                # The block stopped before the OUTPUT at pc: the device
                # declined it ahead of the kernel, or it is at the
                # kernel.  Everything before it ran.
                self.pc = pc
                if pending:
                    yield (_WOKEN if pending == woken else _CATCH_UP)[pending]
                    pending, woken = 0, -1
                    if self._stopped or self.program is not program:
                        continue
                _block, _limit, port, sx, _step = entries[pc]
                (writers[port] or self._writer(port))(regs[sx], sim.now, 0)
                self.pc = pc + 1
                self.instructions_retired += 1
                pending = CYCLES_PER_INSTRUCTION
                continue
            if step is None:
                # HALT: sleep until the wake wire pulses (done-latch
                # absorbed inside PulseWire).  Cost: the 2 base cycles,
                # plus however long the sleep lasts.  If the pulse's
                # cycle is already fixed, even as seen from ahead of the
                # kernel, sleep inside ``pending`` to where the wait
                # would have woken; otherwise, and while stepping, wait
                # at the kernel.
                start = sim.now + pending
                wake = None
                if not stepping:
                    wake = self.wake.fixed_wake(start + CYCLES_PER_INSTRUCTION, pending)
                if wake is None and pending:
                    yield (_WOKEN if pending == woken else _CATCH_UP)[pending]
                    pending, woken = 0, -1
                    continue
                self.pc = pc + 1
                self.instructions_retired += 1
                if wake is None:
                    yield Delay(CYCLES_PER_INSTRUCTION)
                    yield self.wake.wait()
                    wake = sim.now
                else:
                    pending = wake - sim.now
                    if pending < SYNC_QUANTUM:
                        woken = pending
                    else:
                        yield Delay(pending, pending)
                        pending, woken = 0, -1
                self.halted_cycles += wake - start - CYCLES_PER_INSTRUCTION
                continue
            # A synchronising instruction, or any while stepping: at the
            # kernel, on its own cycle.
            if pending:
                yield (_WOKEN if pending == woken else _CATCH_UP)[pending]
                pending, woken = 0, -1
                continue
            self.instructions_retired += 1
            self.pc = step(self, regs)
            pending = CYCLES_PER_INSTRUCTION
        if pending:
            yield (_WOKEN if pending == woken else _CATCH_UP)[pending]
        return None

    def rebind_ports(self) -> None:
        """Forget the resolved ``OUTPUT`` handlers (the device's ports changed)."""
        self._writers[:] = [None] * PORTS

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

"""Differential oracle: the decoupled controller against per-instruction stepping.

``SteppedController8`` (in ``tests/stepped_models.py``) keeps the
interpreter loop the controller had before temporal decoupling: every
instruction yields its own ``Delay(2)``.  Each workload below runs once on it and once on
:class:`Controller8`, and everything observable must match: the trace
rows (cycle, component, kind, details), the output words, the
:class:`CoreResult` cycles, ``instructions_retired`` and
``halted_cycles``.  With two cores, each core's rows must match; the
two cores' rows on one cycle may interleave differently.
"""

from __future__ import annotations

import random
import sys
from contextlib import ExitStack
from unittest import mock

import pytest

from repro.core.crypto_core import P_DEBUG, CryptoCore
from repro.core.firmware.builder import (
    P_CU,
    P_MASK_HI,
    P_MASK_LO,
    P_RESULT,
    P_STATUS,
    RESULT_OK,
    STATUS_CU_BUSY_BIT,
)
from repro.core.firmware.library import FIRMWARE_LIBRARY
from repro.core.harness import run_task
from repro.core.params import Algorithm, CcmRole, Direction, TaskParams
from repro.crypto import AES, cbc_mac, ccm_encrypt, gcm_encrypt
from repro.crypto.aes import expand_key
from repro.errors import SimulationError
from repro.isa import Controller8, Op, assemble
from repro.isa.controller import SYNC_OPS, SYNC_QUANTUM
from repro.radio import (
    expected_output_words,
    format_cbc_mac,
    format_ccm_single,
    format_ccm_two_core,
    format_ctr,
    format_gcm,
    format_whirlpool,
)
from repro.sim import fifo
from repro.sim.fifo import WordFifo
from repro.sim.kernel import Delay, Simulator
from repro.sim.signals import PulseWire
from repro.sim.tracing import TraceRecorder
from repro.unit.isa import CuOp, cu_encode
from repro.unit.timing import DEFAULT_TIMING
from repro.utils.bits import bytes_to_words32
from stepped_models import (
    SteppedController8,
    stepped_core,
    stepped_drainer,
    stepped_feeder,
    stepped_run_task,
)

SIZES = [0, 1, 15, 16, 17, 100, 2048]
KEY_BITS = [128, 192, 256]
DIRECTIONS = [Direction.ENCRYPT, Direction.DECRYPT]


def _rb(seed: int, n: int) -> bytes:
    rng = random.Random(seed)
    return bytes(rng.getrandbits(8) for _ in range(n))


#: ``stepped`` value selecting the whole stepped reference model
#: (controller, CU, FIFOs and harness), not just the stepped controller.
ALL = "all"


def _core(sim, trace, stepped, index=0, key=None, fifo_depth_words=512):
    if stepped == ALL:
        core = stepped_core(
            sim, DEFAULT_TIMING, index=index, trace=trace, fifo_depth_words=fifo_depth_words
        )
    else:
        core = CryptoCore(
            sim, DEFAULT_TIMING, index=index, trace=trace, fifo_depth_words=fifo_depth_words
        )
    if stepped is True:
        core.controller.__class__ = SteppedController8
    if key is not None:
        core.key_cache.install(expand_key(key), 8 * len(key))
    return core


def _upload(core, blocks, word_cycles=1):
    return core.in_fifo.stream_in(bytes_to_words32(b"".join(blocks)), word_cycles)


def _download(core, sink, nwords, word_cycles=1):
    return core.out_fifo.drain_out(sink, nwords, word_cycles)


def _stepped_upload(core, blocks, word_cycles=1):
    return core.sim.add_process(stepped_feeder(core, blocks, word_cycles))


def _stepped_download(core, sink, nwords, word_cycles=1):
    return core.sim.add_process(stepped_drainer(core, sink, nwords, word_cycles))


def _harness(stepped):
    """(upload, download, run_task) of the model *stepped* selects: the
    transfers start bounded runs on the FIFOs, or stepped processes."""
    if stepped == ALL:
        return _stepped_upload, _stepped_download, stepped_run_task
    return _upload, _download, run_task


def _observe(sim, trace, cores, words, results, per_component=False):
    rows = [(e.cycle, e.component, e.kind, e.details) for e in trace.events]
    if per_component:
        rows = sorted(rows, key=lambda row: row[1])  # stable: keeps each timeline
    return {
        "trace": rows,
        "words": words,
        "results": results,
        "programs": [c.controller.program.name for c in cores],
        "retired": [c.controller.instructions_retired for c in cores],
        "halted": [c.controller.halted_cycles for c in cores],
        "fifos": [
            (f.total_pushed, f.total_popped, f.high_watermark, f.purge_count, len(f))
            for c in cores
            for f in (c.in_fifo, c.out_fifo)
        ],
        "now": sim.now,
    }


def _single(task, key, stepped, whirlpool=False):
    sim, trace = Simulator(), TraceRecorder()
    core = _core(sim, trace, stepped, key=key)
    if whirlpool:
        core.use_whirlpool_personality(True)
    run = _harness(stepped)[2](sim, core, task)
    words = list(run.output)
    return _observe(sim, trace, [core], words, [run.result, run.feed_done_cycle])


def _assert_same(scenario, reference_model=True):
    reference, decoupled = scenario(reference_model), scenario(False)
    assert decoupled["trace"], "the scenario traced nothing"
    assert decoupled == reference


def _assert_same_as_stepped_model(scenario):
    """The loosely timed CU, FIFOs and harness against the stepped ones."""
    _assert_same(scenario, reference_model=ALL)


def _gcm_task(key, size, direction, seed, bad_tag=False):
    iv, aad, data = _rb(seed, 12), _rb(seed + 1, 20), _rb(seed + 2, size)
    if direction is Direction.ENCRYPT:
        return format_gcm(8 * len(key), iv, aad, data, direction)
    ct, tag = gcm_encrypt(key, iv, data, aad)
    if bad_tag:
        tag = bytes([tag[0] ^ 1]) + tag[1:]
    return format_gcm(8 * len(key), iv, aad, ct, direction, 16, tag)


def _ccm_task(key, size, direction, seed):
    nonce, aad, data = _rb(seed, 13), _rb(seed + 1, 12), _rb(seed + 2, size)
    if direction is Direction.ENCRYPT:
        return format_ccm_single(8 * len(key), nonce, aad, data, direction, 8)
    ct, tag = ccm_encrypt(key, nonce, data, aad, 8)
    return format_ccm_single(8 * len(key), nonce, aad, ct, direction, 8, tag)


def _cbc_mac_task(key, size, direction, seed):
    # CBC-MAC takes whole blocks only: round the payload up, at least one.
    message = _rb(seed, max(16, -(-size // 16) * 16))
    if direction is Direction.ENCRYPT:
        return format_cbc_mac(8 * len(key), message, direction)
    tag = cbc_mac(AES(key), message)
    return format_cbc_mac(8 * len(key), message, direction, expected_tag=tag)


def _ctr_task(key, size, direction, seed):
    # CTR encryption and decryption are the same task.
    return format_ctr(8 * len(key), _rb(seed, 14) + bytes(2), _rb(seed + 1, size))


FORMATTERS = {
    "gcm": _gcm_task,
    "ccm": _ccm_task,
    "ctr": _ctr_task,
    "cbc_mac": _cbc_mac_task,
}


@pytest.mark.parametrize("size", SIZES, ids=str)
@pytest.mark.parametrize("direction", DIRECTIONS, ids=lambda d: d.name.lower())
@pytest.mark.parametrize("key_bits", KEY_BITS, ids=lambda b: f"k{b}")
@pytest.mark.parametrize("mode", sorted(FORMATTERS))
def test_single_core_modes_match_stepped(mode, key_bits, direction, size):
    key = _rb(key_bits + size, key_bits // 8)
    task = FORMATTERS[mode](key, size, direction, seed=size)
    _assert_same(lambda stepped: _single(task, key, stepped))


@pytest.mark.parametrize("size", SIZES, ids=str)
@pytest.mark.parametrize("direction", DIRECTIONS, ids=lambda d: d.name.lower())
@pytest.mark.parametrize("key_bits", KEY_BITS, ids=lambda b: f"k{b}")
@pytest.mark.parametrize("mode", sorted(FORMATTERS))
def test_single_core_modes_match_stepped_model(mode, key_bits, direction, size):
    key = _rb(key_bits + size, key_bits // 8)
    task = FORMATTERS[mode](key, size, direction, seed=size)
    _assert_same_as_stepped_model(lambda stepped: _single(task, key, stepped))


def _gcm_bad_tag():
    key = _rb(7, 16)
    task = _gcm_task(key, 300, Direction.DECRYPT, seed=7, bad_tag=True)

    def scenario(stepped):
        observed = _single(task, key, stepped)
        assert observed["results"][0].auth_failed
        return observed

    return scenario


def test_gcm_bad_tag_matches_stepped():
    _assert_same(_gcm_bad_tag())


def test_gcm_bad_tag_matches_stepped_model():
    _assert_same_as_stepped_model(_gcm_bad_tag())


def test_whirlpool_matches_stepped():
    task = format_whirlpool(_rb(11, 200))
    _assert_same(lambda stepped: _single(task, None, stepped, whirlpool=True))


@pytest.mark.parametrize("size", [0, 63, 200, 1000])
def test_whirlpool_matches_stepped_model(size):
    task = format_whirlpool(_rb(11, size))
    _assert_same_as_stepped_model(lambda stepped: _single(task, None, stepped, whirlpool=True))


def _two_core_ccm(direction):
    """Two cores splitting CCM over the inter-core mailbox."""
    key = _rb(3, 16)
    nonce, aad, data = _rb(4, 13), _rb(5, 16), _rb(6, 600)
    tag = None
    if direction is Direction.DECRYPT:
        data, tag = ccm_encrypt(key, nonce, data, aad, 8)
    mac_task, ctr_task = format_ccm_two_core(128, nonce, aad, data, direction, 8, tag)

    def scenario(stepped):
        sim, trace = Simulator(), TraceRecorder()
        upload, download, _run = _harness(stepped)
        mac = _core(sim, trace, stepped, index=0, key=key)
        ctr = _core(sim, trace, stepped, index=1, key=key)
        mac.unit.ic_out, ctr.unit.ic_out = ctr.unit.ic_in, mac.unit.ic_in
        runs = [upload(mac, mac_task.input_blocks), upload(ctr, ctr_task.input_blocks)]
        sink, nwords = [], expected_output_words(ctr_task)
        if direction is Direction.ENCRYPT:
            runs.append(download(ctr, sink, nwords))
        done_mac = mac.assign_task(mac_task.params)
        done_ctr = ctr.assign_task(ctr_task.params)
        results = [sim.run_until_event(done_ctr), sim.run_until_event(done_mac)]
        if direction is Direction.DECRYPT:
            runs.append(download(ctr, sink, nwords))
        for run in runs:
            sim.run_until_event(run.done)
        return _observe(sim, trace, [mac, ctr], sink, results, per_component=True)

    return scenario


@pytest.mark.parametrize("direction", DIRECTIONS, ids=lambda d: d.name.lower())
def test_two_core_ccm_matches_stepped(direction):
    """Each core's trace rows match in order and cycle.  Rows of the two
    cores on one cycle may interleave differently: two controllers'
    wake-ups for one cycle run in the order they last synchronised, not
    in their stepped order."""
    _assert_same(_two_core_ccm(direction))


@pytest.mark.parametrize("direction", DIRECTIONS, ids=lambda d: d.name.lower())
def test_two_core_ccm_matches_stepped_model(direction):
    _assert_same_as_stepped_model(_two_core_ccm(direction))


def _library_scenario(key):
    """A run of ``FIRMWARE_LIBRARY[key]``: one core, or both CCM cores."""
    if key.role is not CcmRole.SINGLE:
        return _two_core_ccm(key.direction)
    if key.algorithm is Algorithm.WHIRLPOOL:
        task = format_whirlpool(_rb(17, 300))
        return lambda stepped: _single(task, None, stepped, whirlpool=True)
    aes_key = _rb(17, 32)
    formatter = {
        Algorithm.GCM: _gcm_task,
        Algorithm.CCM: _ccm_task,
        Algorithm.CTR: _ctr_task,
        Algorithm.CBC_MAC: _cbc_mac_task,
    }[key.algorithm]
    task = formatter(aes_key, 300, key.direction, seed=17)
    return lambda stepped: _single(task, aes_key, stepped)


@pytest.mark.parametrize(
    "key",
    list(FIRMWARE_LIBRARY),
    ids=lambda k: f"{k.algorithm.name}-{k.direction.name}-{k.role.name}".lower(),
)
def test_library_firmware_matches_stepped_model(key):
    """Every program in the firmware library, so a new one is covered
    when it is added: trace rows, ``instructions_retired`` and
    ``halted_cycles`` match the stepped model."""
    scenario = _library_scenario(key)
    observed = scenario(False)
    assert FIRMWARE_LIBRARY[key].name in observed["programs"]
    assert observed == scenario(ALL)


def _fifo_backpressure():
    """A 16-word output FIFO and a drainer taking 37 cycles per word:
    the firmware's STOREs stall and its drain fence spins on status."""
    key = _rb(9, 32)
    task = _gcm_task(key, 2048, Direction.ENCRYPT, seed=9)

    def scenario(stepped):
        sim, trace = Simulator(), TraceRecorder()
        upload, download, _run = _harness(stepped)
        core = _core(sim, trace, stepped, key=key, fifo_depth_words=16)
        upload(core, task.input_blocks)
        sink = []
        download(core, sink, expected_output_words(task), word_cycles=37)
        result = sim.run_until_event(core.assign_task(task.params))
        sim.run()
        return _observe(sim, trace, [core], sink, [result])

    return scenario


def test_fifo_backpressure_matches_stepped():
    _assert_same(_fifo_backpressure())


def test_fifo_backpressure_matches_stepped_model():
    _assert_same_as_stepped_model(_fifo_backpressure())


def _back_to_back(stepped):
    """Three tasks on one core, each assigned on the cycle the previous
    one reports done (the controller's last process is still yielding)."""
    key = _rb(21, 16)
    tasks = [_gcm_task(key, size, Direction.ENCRYPT, seed=size) for size in (40, 64, 1)]
    sim, trace = Simulator(), TraceRecorder()
    upload, download, _run = _harness(stepped)
    core = _core(sim, trace, stepped, key=key)
    sink, results = [], []
    download(core, sink, sum(expected_output_words(task) for task in tasks))

    def driver():
        for task in tasks:
            upload(core, task.input_blocks)
            results.append((yield core.assign_task(task.params)))

    sim.add_process(driver())
    sim.run()
    return _observe(sim, trace, [core], sink, results)


def test_back_to_back_tasks_match_stepped():
    _assert_same(_back_to_back)


def test_back_to_back_tasks_match_stepped_model():
    _assert_same_as_stepped_model(_back_to_back)


def _custom_run(program, stepped, word_cycles):
    """Run *program* on a core whose one input block trickles in."""
    key = _rb(13, 16)
    task = format_ctr(128, _rb(14, 16), _rb(15, 16))
    sim, trace = Simulator(), TraceRecorder()
    core = _core(sim, trace, stepped, key=key)
    upload = _harness(stepped)[0]
    upload(core, task.input_blocks, word_cycles=word_cycles)
    result = sim.run_until_event(core.assign_task(task.params, assemble(program)))
    words = []
    while core.out_fifo.can_pop():
        words.append(core.out_fifo.pop_word())
    return _observe(sim, trace, [core], words, [result])


#: (NOPs of padding, feeder cycles per word) pairs that put the
#: controller's port access on the cycle a CU instruction completes.
SAME_CYCLE = [(0, 6), (1, 8), (2, 10), (3, 12), (4, 14), (5, 4)]


def _status_poll_program(padding):
    nops = "\n".join(["NOP"] * padding)
    return f"""
        LOAD   s2, {cu_encode(CuOp.LOAD, 1)}
        OUTPUT s2, {P_CU}
        LOAD   s4, 0
        poll:
        ADD    s4, 1
        {nops}
        INPUT  s3, {P_STATUS}
        AND    s3, {STATUS_CU_BUSY_BIT}
        JUMP   NZ, poll
        OUTPUT s4, {P_DEBUG}
        LOAD   s3, {RESULT_OK}
        OUTPUT s3, {P_RESULT}
        RETURN
    """


@pytest.mark.parametrize("padding,word_cycles", SAME_CYCLE)
def test_status_poll_matches_stepped(padding, word_cycles):
    """Poll the CU-busy bit while a ``LOAD`` waits on a slow feeder: a
    status read on the completion cycle must see the CU idle, as with
    stepping, so the loop count and exit cycle stay the same."""
    program = _status_poll_program(padding)
    _assert_same(lambda stepped: _custom_run(program, stepped, word_cycles))


@pytest.mark.parametrize("padding,word_cycles", SAME_CYCLE)
def test_status_poll_matches_stepped_model(padding, word_cycles):
    program = _status_poll_program(padding)
    _assert_same_as_stepped_model(lambda stepped: _custom_run(program, stepped, word_cycles))


def _mask_write_program(padding):
    nops = "\n".join(["NOP"] * padding)
    return f"""
        LOAD   s2, {cu_encode(CuOp.LOAD, 1)}
        OUTPUT s2, {P_CU}
        LOAD   s2, {cu_encode(CuOp.XOR, 1, 2)}
        OUTPUT s2, {P_CU}
        LOAD   s2, {cu_encode(CuOp.XOR, 1, 3)}
        OUTPUT s2, {P_CU}
        LOAD   s3, 0x0F
        {nops}
        OUTPUT s3, {P_MASK_LO}
        LOAD   s2, {cu_encode(CuOp.STORE, 3)}
        OUTPUT s2, {P_CU}
        LOAD   s2, {cu_encode(CuOp.NOP)}
        OUTPUT s2, {P_CU}
        HALT
        LOAD   s3, {RESULT_OK}
        OUTPUT s3, {P_RESULT}
        RETURN
    """


@pytest.mark.parametrize("padding", range(8))
def test_mask_write_matches_stepped(padding):
    """Write the XOR mask while XORs queue behind a ``LOAD``; the
    padding walks the write across the second XOR's issue cycle.  An XOR
    issued on the write's cycle must use the old mask, as with
    stepping."""
    program = _mask_write_program(padding)
    _assert_same(lambda stepped: _custom_run(program, stepped, 4))


@pytest.mark.parametrize("padding", range(8))
def test_mask_write_matches_stepped_model(padding):
    program = _mask_write_program(padding)
    _assert_same_as_stepped_model(lambda stepped: _custom_run(program, stepped, 4))


def _past_a_stalled_load_program(padding, access):
    nops = "\n".join(["NOP"] * padding)
    return f"""
        LOAD   s2, {cu_encode(CuOp.LOAD, 1)}
        OUTPUT s2, {P_CU}
        {nops}
        {access}
        LOAD   s2, {cu_encode(CuOp.STORE, 1)}
        OUTPUT s2, {P_CU}
        LOAD   s2, {cu_encode(CuOp.NOP)}
        OUTPUT s2, {P_CU}
        HALT
        LOAD   s3, {RESULT_OK}
        OUTPUT s3, {P_RESULT}
        RETURN
    """


#: What the controller does once it has run past the stalled LOAD's
#: completion without meeting the kernel.
PAST_THE_LOAD = {
    "issue": f"LOAD s2, {cu_encode(CuOp.INC, 1)}\nOUTPUT s2, {P_CU}",
    "halt": "HALT",
    "mask": f"LOAD s4, 0x0F\nOUTPUT s4, {P_MASK_LO}",
}


@pytest.mark.parametrize("padding", [10, 25, 40])
@pytest.mark.parametrize("access", sorted(PAST_THE_LOAD))
def test_access_past_a_stalled_load_matches_stepped(access, padding):
    """A ``LOAD`` whose words trickle in, then enough private
    instructions to run past its completion ahead of the kernel: the
    next access must see the loaded words as with stepping."""
    program = _past_a_stalled_load_program(padding, PAST_THE_LOAD[access])
    _assert_same(lambda stepped: _custom_run(program, stepped, 10))
    _assert_same_as_stepped_model(lambda stepped: _custom_run(program, stepped, 10))


IRQ_PROGRAM = """
    EINT
    LOAD s0, 1
    LOAD s0, 2
    LOAD s0, 3
    RETURN
    isr: LOAD s1, 0xEE
    RETURNI ENABLE
"""


@pytest.mark.parametrize("irq_cycle", range(0, 12))
def test_interrupt_program_matches_stepped(irq_cycle):
    """The ``EINT`` + ``post_irq`` program of ``test_isa``, with the
    interrupt raised on every cycle of the run."""

    def scenario(stepped):
        sim = Simulator()
        program = assemble(IRQ_PROGRAM)
        cls = SteppedController8 if stepped else Controller8
        ctrl = cls(sim, program)
        ctrl.irq_vector = program.label("isr")
        proc = sim.add_process(ctrl.run())

        def irq():
            yield Delay(irq_cycle)
            ctrl.post_irq()

        sim.add_process(irq())
        sim.run()
        return {
            "trace": [(proc.done.triggered, sim.now)],
            "regs": ctrl.regs,
            "flags": (ctrl.zero, ctrl.carry, ctrl.interrupts_enabled),
            "retired": ctrl.instructions_retired,
            "halted": ctrl.halted_cycles,
        }

    _assert_same(scenario)


# -- generated programs: every private opcode, on Controller8 and stepped -----

#: Two-operand mnemonics; the ALU ones take an immediate or a register.
_ALU_OPS = ["LOAD", "AND", "OR", "XOR", "ADD", "ADDCY", "SUB", "SUBCY", "COMPARE"]
_SHIFT_OPS = ["SR0", "SL0", "RR", "RL"]
_CONDS = ["", "Z, ", "NZ, ", "C, ", "NC, "]
#: Registers the random ALU ops use; sC holds scratchpad addresses, sD
#: port numbers and sE the loop count, so only LOADs write them.
_DATA_REGS = range(12)
_ADDR, _PORT, _COUNT = 12, 13, 14


class _GeneratedProgram:
    """Seeded random source: a main routine with a counted loop, a
    subroutine and, in some programs, interrupts and an ISR.

    Jumps only go forward within one stretch, the loop is counted and
    the subroutine calls nothing, so every program ends (at the main
    routine's ``RETURN``, or earlier at a conditional one).
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.labels = 0
        self.irq = self.rng.random() < 0.25
        self.lines = [*self.stretch(6, main=True)]
        if self.irq:
            self.lines.append("EINT")
        quiet = self.rng.random() < 0.5  # long loops with no I/O cross the quantum
        self.lines += [f"LOAD s{_COUNT:X}, {self.rng.randint(1, 24)}", "loop:"]
        self.lines += self.stretch(self.rng.randint(4, 14), main=True, quiet=quiet)
        self.lines += [f"SUB s{_COUNT:X}, 1", "JUMP NZ, loop"]
        if self.irq:
            self.lines.append("DINT")
        self.lines += [*self.stretch(6, main=True), "RETURN", "sub:"]
        self.lines += [*self.stretch(8, main=False), "RETURN"]
        if self.irq:
            enable = self.rng.choice(["ENABLE", "DISABLE"])
            self.lines += ["isr:", *self.stretch(3, main=False, flow=False), f"RETURNI {enable}"]

    def reg(self) -> str:
        return f"s{self.rng.choice(_DATA_REGS):X}"

    def stretch(self, length: int, main: bool, quiet: bool = False, flow: bool = True):
        rng, lines, ahead = self.rng, [], []
        for _ in range(length):
            kind = rng.choice(
                ["alu"] * 6 + ["shift", "nop", "store", "fetch"]
                + ([] if quiet else ["output", "io"])
                + (["jump", "return"] + (["call"] if main else []) if flow else [])
            )
            if kind == "alu":
                src = self.reg() if rng.random() < 0.5 else rng.randint(0, 255)
                lines.append(f"{rng.choice(_ALU_OPS)} {self.reg()}, {src}")
            elif kind == "shift":
                lines.append(f"{rng.choice(_SHIFT_OPS)} {self.reg()}")
            elif kind == "nop":
                lines.append("NOP")
            elif kind in ("store", "fetch"):
                if rng.random() < 0.5:
                    lines.append(f"{kind.upper()} {self.reg()}, {rng.randint(0, 63)}")
                else:
                    lines.append(f"LOAD s{_ADDR:X}, {rng.randint(0, 63)}")
                    lines.append(f"{kind.upper()} {self.reg()}, (s{_ADDR:X})")
            elif kind == "output":  # the firmware's CU-issue idiom
                reg = self.reg()
                lines.append(f"LOAD {reg}, {rng.randint(0, 255)}")
                lines.append(f"OUTPUT {reg}, {rng.randint(0, 255)}")
            elif kind == "io":
                lines.append(f"LOAD s{_PORT:X}, {rng.randint(0, 255)}")
                mnemonic = rng.choice(["OUTPUT", "INPUT"])
                port = rng.choice([f"(s{_PORT:X})", str(rng.randint(0, 255))])
                lines.append(f"{mnemonic} {self.reg()}, {port}")
            elif kind == "jump":
                label = f"fwd{self.labels}"
                self.labels += 1
                lines.append(f"JUMP {rng.choice(_CONDS)}{label}")
                ahead.append(label)
            elif kind == "return":
                lines.append(f"RETURN {rng.choice(_CONDS[1:]).rstrip(', ')}")
            else:
                lines.append(f"CALL {rng.choice(_CONDS)}sub")
            if ahead and rng.random() < 0.4:
                lines.append(f"{ahead.pop(0)}:")
        lines += [f"{label}:" for label in ahead]
        lines.append("NOP")  # the forward labels need an instruction
        return lines

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class _RecordingDevice:
    """Logs every port access with its cycle; reads depend on the log."""

    def __init__(self, sim: Simulator):
        self.sim, self.log = sim, []

    def read_port(self, port: int) -> int:
        self.log.append((self.sim.now, "in", port))
        return (port * 7 + len(self.log)) & 0xFF

    def write_port(self, port: int, value: int) -> None:
        self.log.append((self.sim.now, "out", port, value))


def _run_generated(seed: int, stepped: bool) -> dict:
    generated = _GeneratedProgram(seed)
    sim = Simulator()
    program = assemble(generated.source())
    device = _RecordingDevice(sim)
    ctrl = (SteppedController8 if stepped else Controller8)(sim, program, device=device)
    ends = []
    sim.add_process(ctrl.run()).done.add_waiter(lambda _: ends.append(sim.now))
    if generated.irq:
        ctrl.irq_vector = program.label("isr")
        irq_cycles = sorted(random.Random(seed).sample(range(400), 6))

        def irq():
            for cycle in irq_cycles:
                yield Delay(cycle - sim.now)
                ctrl.post_irq()

        sim.add_process(irq())
    sim.run()
    return {
        "trace": device.log,
        "end": ends,
        "regs": ctrl.regs,
        "flags": (ctrl.zero, ctrl.carry, ctrl.interrupts_enabled),
        "scratchpad": ctrl.scratchpad,
        "pc": ctrl.pc,
        "stack": ctrl.stack,
        "retired": ctrl.instructions_retired,
        "halted": ctrl.halted_cycles,
    }


GENERATED_SEEDS = range(200)


@pytest.mark.parametrize("seed", GENERATED_SEEDS)
def test_generated_program_matches_stepped(seed):
    """Random programs mixing every private opcode (the ``_R``, carry
    and shift forms no firmware uses too), scratchpad access, forward
    and counted jumps, calls, conditional returns, immediate and
    indirect port I/O and, in a quarter of them, interrupts."""
    assert _run_generated(seed, False) == _run_generated(seed, True)


def test_generated_programs_cover_the_translator():
    """The generated set reaches every private opcode, immediate and
    indirect port I/O, an early top-level ``RETURN``, interrupts and a
    stretch between port accesses longer than the sync quantum."""
    ops, quantum, irq, top_return = set(), False, False, False
    for seed in GENERATED_SEEDS:
        generated = _GeneratedProgram(seed)
        program = assemble(generated.source())
        ops.update(d.op for d in program.decoded)
        irq = irq or generated.irq
        observed = _run_generated(seed, True)
        cycles = [0] + [row[0] for row in observed["trace"]] + observed["end"]
        quantum = quantum or max(b - a for a, b in zip(cycles, cycles[1:])) > SYNC_QUANTUM
        top_return = top_return or observed["pc"] < program.label("sub") - 1
    private = set(Op) - SYNC_OPS
    assert private <= ops
    assert {Op.OUTPUT, Op.OUTPUT_R, Op.INPUT, Op.INPUT_R, Op.EINT, Op.RETURNI_E} <= ops
    assert quantum and irq and top_return


# -- generated programs on a core: CU issues, masks, polls, HALTs, interrupts ---


class _CuProgram:
    """Seeded random firmware for a real core: CU issues of every timing
    class (fixed, engine, LOAD/STORE), mask writes, ``INPUT P_STATUS``
    reads and polls, ``HALT``s and debug writes, with random padding so
    that issues, completions and port accesses meet on shared cycles,
    and stretches with interrupts enabled.

    It keeps the unit's rules: one SAES before each FAES, LOADH only
    first, a HALT only right after an issue (whose done pulse it waits
    for); the harness uploads a block per LOAD and drains a block per
    STORE.  Some feeders or drainers move a word every 2 or 6 cycles,
    the period of the controller's steps and of a CU instruction, so
    that claims tie with their attempts; some feeds and drains start
    late, so that LOADs find no words in any schedule and STOREs a full
    FIFO with no drain yet.
    """

    FIXED = [CuOp.NOP, CuOp.INC, CuOp.XOR, CuOp.EQU, CuOp.SGFM]

    def __init__(self, seed: int):
        rng = self.rng = random.Random(f"cu-program|{seed}")
        self.blocks = [_rb(seed * 100 + i, 16) for i in range(rng.randint(2, 8))]
        self.in_cycles = rng.choice([1, 3, 7, 29])
        self.out_cycles = rng.choice([1, 5, 23])
        self.depth = rng.choice([8, 16, 512])
        self.loads = self.stores = 0
        self.aes_open = False
        self.labels = 0
        irq = rng.random() < 0.5
        self.irq_cycles = sorted(rng.sample(range(20, 1500), 8)) if irq else []
        self.lines = [*self.issue(CuOp.LOADH, halt=False)]
        enabled = False
        for _ in range(rng.randint(10, 40)):
            if irq and rng.random() < 0.15:
                enabled = not enabled
                self.lines.append("EINT" if enabled else "DINT")
            # Mostly a few instructions; sometimes enough to run past a
            # stalled LOAD's completion before the next access.
            stretch = rng.randint(0, 3) if rng.random() < 0.8 else rng.randint(10, 70)
            padding = ["NOP", "ADD s8, 1", "XOR s9, s8", "STORE s8, 3", "FETCH s9, 3"]
            self.lines += [rng.choice(padding) for _ in range(stretch)]
            self.lines += self.item()
        if self.aes_open:
            self.lines += self.issue(CuOp.FAES, halt=True)
        # The drain fence and the result, as the firmware builder emits them.
        self.lines += self.issue(CuOp.NOP, halt=True) + self.poll()
        self.lines += [f"LOAD s3, {RESULT_OK}", f"OUTPUT s3, {P_RESULT}", "RETURN"]
        self.lines += ["isr:", "ADD sA, 1", f"OUTPUT sA, {P_DEBUG}"]
        self.lines += [f"RETURNI {rng.choice(['ENABLE', 'DISABLE'])}"]
        # Drawn last, so that the programs above stay as they were.
        if rng.random() < 0.3:
            self.in_cycles = rng.choice([2, 6])
        if rng.random() < 0.3:
            self.out_cycles = rng.choice([2, 6])
        self.feed_at = rng.choice([0, 0, 0, 300, 900])
        self.drain_at = rng.choice([0, 0, 0, 300, 900])

    def issue(self, op, a=None, b=None, halt=None):
        rng = self.rng
        a = rng.randint(0, 3) if a is None else a
        b = rng.randint(0, 3) if b is None else b
        lines = [f"LOAD s2, {cu_encode(op, a, b)}", f"OUTPUT s2, {P_CU}"]
        if halt if halt is not None else rng.random() < 0.3:
            lines += ["NOP"] * rng.randint(0, 4) + ["HALT"]
        return lines

    def poll(self):
        label = f"poll{self.labels}"
        self.labels += 1
        return [f"{label}:", f"INPUT s3, {P_STATUS}", f"AND s3, {STATUS_CU_BUSY_BIT}", f"JUMP NZ, {label}"]

    def item(self):
        rng = self.rng
        kind = rng.choice(
            ["fixed"] * 4 + ["aes", "fgfm", "load", "store", "mask", "status", "poll", "debug", "prefetch"]
        )
        if kind == "aes":
            op, self.aes_open = (CuOp.FAES, False) if self.aes_open else (CuOp.SAES, True)
            return self.issue(op)
        if kind == "fgfm":
            return self.issue(CuOp.FGFM)
        if kind == "load" and self.loads < len(self.blocks):
            self.loads += 1
            return self.issue(CuOp.LOAD)
        if kind == "store":
            self.stores += 1
            return self.issue(CuOp.STORE)
        if kind == "mask":
            port = rng.choice([P_MASK_LO, P_MASK_HI])
            return [f"LOAD s4, {rng.randint(0, 255)}", f"OUTPUT s4, {port}"]
        if kind == "status":
            return [f"INPUT s5, {P_STATUS}", f"OUTPUT s5, {P_DEBUG}"]
        if kind == "poll":
            return self.poll()
        if kind == "debug":
            return [f"OUTPUT s{rng.choice([5, 8, 9, 10]):X}, {P_DEBUG}"]
        if kind == "prefetch":
            # The builder's fin_pre idiom: the next issue, a FIFO block
            # move here, is written on the done edge the HALT wakes on.
            if self.loads < len(self.blocks) and rng.random() < 0.5:
                self.loads += 1
                nxt = CuOp.LOAD
            else:
                self.stores += 1
                nxt = CuOp.STORE
            lines = self.issue(rng.choice(self.FIXED), halt=False)
            return lines + [f"LOAD s2, {cu_encode(nxt, rng.randint(0, 3))}", "HALT", f"OUTPUT s2, {P_CU}"]
        return self.issue(rng.choice(self.FIXED))

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _run_cu_program(seed: int, stepped) -> dict:
    generated = _CuProgram(seed)
    program = assemble(generated.source())
    sim, trace = Simulator(), TraceRecorder()
    upload, download, _run = _harness(stepped)
    core = _core(sim, trace, stepped, key=_rb(seed, 16), fifo_depth_words=generated.depth)
    sink = []

    def feed():
        yield Delay(generated.feed_at)
        return (yield upload(core, generated.blocks[: generated.loads], generated.in_cycles).done)

    def drain():
        yield Delay(generated.drain_at)
        return (yield download(core, sink, 4 * generated.stores, generated.out_cycles).done)

    runs = [sim.add_process(feed()), sim.add_process(drain())]
    done = core.assign_task(TaskParams(Algorithm.CTR, data_blocks=1), program)
    core.controller.irq_vector = program.label("isr")

    def irq():
        for cycle in generated.irq_cycles:
            yield Delay(cycle - sim.now)
            core.controller.post_irq()

    sim.add_process(irq())
    results = [sim.run_until_event(done)]
    for run in runs:
        sim.run_until_event(run.done)
    return _observe(sim, trace, [core], sink, results)


CU_PROGRAM_SEEDS = range(40)


@pytest.mark.parametrize("seed", CU_PROGRAM_SEEDS)
def test_generated_cu_program_matches_stepped(seed):
    """Cycle for cycle and row for row: the decoupled controller (CU
    issues and mask writes ahead of the kernel) against the
    per-instruction controller on the same unit, and against the whole
    stepped model."""
    observed = _run_cu_program(seed, False)
    assert observed == _run_cu_program(seed, True)
    assert observed == _run_cu_program(seed, ALL)


def test_generated_cu_programs_cover_the_issue_paths():
    """The set issues every fixed and engine op, LOADs and STOREs that
    stall, writes both masks, polls status and HALTs, with interrupts
    taken while enabled.  Ahead of the kernel it reaches every path that
    declines: a LOAD whose words are in no known schedule, a STORE on a
    full FIFO with no drain, a HALT that must still yield; and the ones
    that take it: a HALT sleeping inside the quantum, a claim keyed on
    a HALT's wake-up, a claim tied on cycle and stamp with an attempt of
    a 2- or 6-cycle feeder or drainer."""
    seen = set()

    def halt(method):
        def wrapper(self, *args):
            wake = method(self, *args)
            if wake is None:
                seen.add("halt yields")
            elif wake - self.sim.now < SYNC_QUANTUM:
                seen.add("halt in quantum")
            return wake

        return wrapper

    def claim(kind, method):
        def wrapper(self, at, *args):
            ready = method(self, at, *args)
            if at[0] > self.sim.now:  # ahead of the kernel
                if at[1] == at[0]:
                    seen.add("claim on a wake-up")
                run = self._flow.run
                if ready is None and kind == "load":
                    seen.add("load declined")
                elif ready is None and (run is None or run.end is not None):
                    seen.add("store declined, no drain")
            return ready

        return wrapper

    def tie(function):
        def wrapper(run, *args):
            if args[-1] is not None:  # ordered against a claim, not a reader
                seen.add(f"tie with a {run.period}-cycle run")
            return function(run, *args)

        return wrapper

    def claim_tie(claim, run):
        seen.add(f"tie with a {run.period}-cycle run")
        return claim_first(claim, run)

    claim_first = fifo._claim_first
    ops, kinds, irqs = set(), set(), 0
    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(WordFifo, "pop_ready", claim("load", WordFifo.pop_ready)))
        stack.enter_context(mock.patch.object(WordFifo, "push_ready", claim("store", WordFifo.push_ready)))
        stack.enter_context(mock.patch.object(PulseWire, "fixed_wake", halt(PulseWire.fixed_wake)))
        stack.enter_context(mock.patch.object(fifo, "_claim_first", claim_tie))
        stack.enter_context(mock.patch.object(fifo, "_attempt_first", tie(fifo._attempt_first)))
        for seed in CU_PROGRAM_SEEDS:
            generated = _CuProgram(seed)
            text = generated.source()
            irqs += "EINT" in text and bool(generated.irq_cycles)
            kinds.update(k for k in ("HALT", "poll", f"s4, {P_MASK_LO}", f"s4, {P_MASK_HI}") if k in text)
            observed = _run_cu_program(seed, False)
            ops.update(row[3]["op"] for row in observed["trace"] if row[2] == "issue")
    fixed_and_engine = {op.name for op in _CuProgram.FIXED} | {"LOADH", "SAES", "FAES", "FGFM"}
    assert fixed_and_engine | {"LOAD", "STORE"} <= ops
    assert {"HALT", "poll", f"s4, {P_MASK_LO}", f"s4, {P_MASK_HI}"} <= kinds
    assert irqs >= 10
    assert {"load declined", "store declined, no drain", "halt yields", "halt in quantum"} <= seen
    assert "claim on a wake-up" in seen
    assert seen & {"tie with a 2-cycle run", "tie with a 6-cycle run"}


def test_generated_cu_programs_cover_the_superblocks():
    """The set reaches every way a translated block meets a ``HALT`` it
    spans: one that sleeps in the block, one that stops the block (its
    wake-up not fixed yet), and one whose wake-up leaves the rest of the
    block past the quantum, so the block stops after it; and both ways
    a FIFO replays claimed pushes for a waiting consumer run: a stretch
    drained one block at a time, and claims the general replay takes."""
    seen = set()
    fixed_wake, drain = PulseWire.fixed_wake, fifo._Flow.drain

    def in_block(frame) -> bool:
        return frame.f_code.co_filename.startswith("<PC")

    def halt(self, *args):
        wake = fixed_wake(self, *args)
        if in_block(sys._getframe(1)):
            seen.add("in-block halt sleeps" if wake is not None else "in-block halt stops its block")
        return wake

    def stretch(self, run, i, *args):
        j = drain(self, run, i, *args)
        seen.add("drained stretch" if j > i else "drain left to the general replay")
        return j

    def block_returns(frame, event, result):
        if event == "return" and in_block(frame) and isinstance(result, tuple):
            pc, _pending, woken = result
            code = frame.f_locals["c"].program.decoded
            # Right after a HALT's wake-up, before an instruction the
            # block could have run: it stopped at the quantum.
            if woken >= 0 and 0 <= pc < len(code) and (code[pc].op not in SYNC_OPS or code[pc].op is Op.OUTPUT):
                seen.add("in-block halt splits at the quantum")

    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(PulseWire, "fixed_wake", halt))
        stack.enter_context(mock.patch.object(fifo._Flow, "drain", stretch))
        stack.callback(sys.setprofile, None)
        sys.setprofile(block_returns)
        for seed in CU_PROGRAM_SEEDS:
            _run_cu_program(seed, False)
    assert seen == {
        "in-block halt sleeps",
        "in-block halt stops its block",
        "in-block halt splits at the quantum",
        "drained stretch",
        "drain left to the general replay",
    }


# -- the runaway guard: without the sync quantum a loop with no I/O never
# yields, and these would hang the host -----------------------------------------


def _spin():
    sim = Simulator()
    ctrl = Controller8(sim, assemble("loop: JUMP loop"))
    sim.add_process(ctrl.run())
    return sim


def test_spin_loop_stops_at_run_until(hang_guard):
    sim = _spin()
    with hang_guard(10.0):
        sim.run(until=1000)
    assert sim.now == 1000


def test_spin_loop_trips_max_events(hang_guard):
    with hang_guard(10.0), pytest.raises(SimulationError):
        _spin().run(max_events=50)

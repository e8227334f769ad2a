"""Cryptographic Unit: ISA, bank, cores, timing, instruction semantics."""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.crypto.aes import expand_key
from repro.crypto import aes_encrypt_block, ghash
from repro.errors import BankAddressError, DecodeError, UnitError
from repro.sim.fifo import WordFifo
from repro.sim.kernel import Simulator
from repro.unit import BankRegister, CryptoUnit, CuOp, WpOp, cu_decode, cu_encode, wp_encode
from repro.unit.cores.ghash_core import GhashCore
from repro.unit.cores.inc_core import inc16
from repro.unit.isa import CU_DECODE_TABLE
from repro.unit.cores.io_core import IoCore
from repro.unit.cores.xor_core import mask_for_bytes, masked_equal, masked_xor
from repro.unit.timing import DEFAULT_TIMING, TimingModel
from repro.utils.bits import bytes_to_words32, words32_to_bytes


def _int(block: bytes) -> int:
    """A 16-byte block as the 128-bit value the bank register holds."""
    return int.from_bytes(block, "big")


# -- CU instruction encoding -----------------------------------------------------

@given(st.sampled_from(sorted(CuOp)), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_cu_encode_decode(op, a, b):
    assert cu_decode(cu_encode(op, a, b)) == (op, a, b)


def test_cu_decode_rejects():
    with pytest.raises(DecodeError):
        cu_decode(0xF0)  # opcode 0xF unused
    with pytest.raises(DecodeError):
        cu_encode(CuOp.XOR, 4, 0)


def test_cu_decode_table_matches_cu_decode():
    for byte in range(256):
        try:
            decoded = cu_decode(byte)
        except DecodeError:
            assert byte not in CU_DECODE_TABLE
        else:
            assert CU_DECODE_TABLE[byte] == decoded


@pytest.mark.parametrize("byte", [0xF0, 0x100, -1], ids=hex)
def test_issue_rejects_undecodable_bytes(byte):
    _sim, unit, _in, _out = make_unit()
    with pytest.raises(DecodeError):
        unit.start(byte)


# -- bank register ---------------------------------------------------------------

def test_bank_bounds():
    bank = BankRegister()
    with pytest.raises(BankAddressError):
        bank.read(4)
    with pytest.raises(BankAddressError):
        bank.write(0, 1 << 128)
    with pytest.raises(BankAddressError):
        bank.write(0, -1)


# -- functional cores --------------------------------------------------------------

def test_mask_for_bytes():
    assert mask_for_bytes(16) == 0xFFFF
    assert mask_for_bytes(0) == 0
    assert mask_for_bytes(8) == 0xFF00
    with pytest.raises(UnitError):
        mask_for_bytes(17)


def test_masked_xor_and_equal(rb):
    a, b = rb(16), rb(16)
    full = masked_xor(_int(a), _int(b), 0xFFFF)
    assert full == _int(bytes(x ^ y for x, y in zip(a, b)))
    half = masked_xor(_int(a), _int(b), 0xFF00)
    assert half >> 64 == full >> 64 and half & ((1 << 64) - 1) == 0
    assert masked_equal(_int(a), _int(a), 0xFFFF)
    assert masked_equal(_int(a), _int(a[:8] + rb(8)), 0xFF00)
    with pytest.raises(UnitError):
        masked_xor(_int(a), _int(b), 0x10000)


def test_inc16_semantics():
    value = 0x00FF
    assert inc16(value, 1) == 0x0100
    assert inc16(value, 4) == 0x0103
    with pytest.raises(UnitError):
        inc16(value, 5)


# -- the unit end to end ------------------------------------------------------------

def _feed(sim, fifo, words):
    """Push *words* through a producer run, run to its end."""
    sim.run_until_event(fifo.stream_in(list(words)).done)


def _drain(sim, fifo, nwords):
    """Pop *nwords* words through a consumer run, run to its end."""
    sink = []
    sim.run_until_event(fifo.drain_out(sink, nwords).done)
    return sink


def make_unit(key=bytes(16)):
    sim = Simulator()
    in_f = WordFifo(sim, 64, "in")
    out_f = WordFifo(sim, 64, "out")
    io = IoCore(in_f, out_f)
    schedule = tuple(map(tuple, expand_key(key)))
    unit = CryptoUnit(sim, io, lambda: schedule, DEFAULT_TIMING, name="cu")
    return sim, unit, in_f, out_f


@pytest.mark.parametrize("field", ["cu_chain_cycles", "finalize_tail"])
def test_timing_rejects_a_cu_instruction_within_one_controller_instruction(field):
    """Completions order against the controller's accesses by cycle
    alone only if each lands more than 2 cycles after its issue."""
    with pytest.raises(UnitError):
        TimingModel(**{field: 2})
    assert getattr(TimingModel(**{field: 3}), field) == 3


def test_saes_faes_value_and_timing(rb):
    key, block = rb(16), rb(16)
    sim, unit, _, _ = make_unit(key)
    unit.bank.write(0, _int(block))
    unit.start(cu_encode(CuOp.SAES, 0))
    unit.start(cu_encode(CuOp.FAES, 1))  # queues, issues at SAES completion
    sim.run()
    assert unit.bank.read(1) == _int(aes_encrypt_block(key, block))
    # SAES occupies 6, then FAES completes at 44 + 5.
    assert sim.now == DEFAULT_TIMING.aes_busy(128) + DEFAULT_TIMING.finalize_tail


def test_ghash_pipeline(rb):
    h, x1, x2 = rb(16), rb(16), rb(16)
    sim, unit, _, _ = make_unit()
    unit.bank.write(0, _int(h))
    unit.bank.write(1, _int(x1))
    unit.start(cu_encode(CuOp.LOADH, 0))
    unit.start(cu_encode(CuOp.SGFM, 1))
    sim.run()
    unit.bank.write(1, _int(x2))
    unit.start(cu_encode(CuOp.SGFM, 1))
    unit.start(cu_encode(CuOp.FGFM, 2))
    sim.run()
    assert unit.bank.read(2) == _int(ghash(h, x1 + x2))


@pytest.mark.parametrize("instruction", ["SGFM", "FGFM"])
def test_ghash_core_needs_its_subkey(instruction):
    core = GhashCore(DEFAULT_TIMING)
    with pytest.raises(UnitError, match=f"{instruction} before LOADH"):
        if instruction == "SGFM":
            core.absorb(1, 0)
        else:
            core.finalize(0)


def test_load_store_roundtrip(rb):
    sim, unit, in_f, out_f = make_unit()
    block = rb(16)
    _feed(sim, in_f, bytes_to_words32(block))
    unit.start(cu_encode(CuOp.LOAD, 3))
    unit.start(cu_encode(CuOp.STORE, 3))
    sim.run()
    assert words32_to_bytes(_drain(sim, out_f, 4)) == block


def test_load_stalls_until_data(rb):
    sim, unit, in_f, _ = make_unit()
    unit.start(cu_encode(CuOp.LOAD, 0))
    sim.run()
    assert unit.busy  # stalled
    block = rb(16)
    in_f.stream_in(bytes_to_words32(block))
    sim.run()
    assert not unit.busy
    assert unit.bank.read(0) == _int(block)


def test_xor_equ_respect_mask(rb):
    sim, unit, _, _ = make_unit()
    a = rb(16)
    unit.bank.write(0, _int(a))
    unit.bank.write(1, _int(a[:4] + rb(12)))
    unit.set_mask_high(0xF0)
    unit.set_mask_low(0x00)
    unit.start(cu_encode(CuOp.EQU, 0, 1))
    sim.run()
    assert unit.equ_flag  # only the first 4 bytes compared


def test_status_byte_and_reset(rb):
    sim, unit, _, _ = make_unit()
    unit.bank.write(0, _int(rb(16)))
    unit.start(cu_encode(CuOp.SAES, 0))
    assert unit.status_byte() & 0x8  # busy
    sim.run()
    unit.start(cu_encode(CuOp.FAES, 0))
    sim.run()
    unit.reset_for_packet()
    assert unit.bank.regs == [0, 0, 0, 0]
    assert unit.mask == 0xFFFF


def test_faes_without_saes_raises():
    sim, unit, _, _ = make_unit()
    with pytest.raises(UnitError):
        unit.start(cu_encode(CuOp.FAES, 0))


def test_icrecv_without_wire_raises(rb):
    sim, unit, _, _ = make_unit()
    unit.bank.write(0, _int(rb(16)))
    with pytest.raises(UnitError):
        unit.start(cu_encode(CuOp.ICSEND, 0))


def test_intercore_transfer(rb):
    sim, a, _, _ = make_unit()
    in_f = WordFifo(sim, 16, "b.in")
    out_f = WordFifo(sim, 16, "b.out")
    schedule = tuple(map(tuple, expand_key(bytes(16))))
    b = CryptoUnit(sim, IoCore(in_f, out_f), lambda: schedule, DEFAULT_TIMING, name="b")
    a.ic_out = b.ic_in
    b.ic_out = a.ic_in
    block, reply = _int(rb(16)), _int(rb(16))
    a.bank.write(2, block)
    b.bank.write(0, reply)
    a.start(cu_encode(CuOp.ICSEND, 2))
    b.start(cu_encode(CuOp.ICRECV, 1))
    b.start(cu_encode(CuOp.ICSEND, 0))
    a.start(cu_encode(CuOp.ICRECV, 3))
    sim.run()
    # Each neighbour gets the block unchanged; the sender keeps its copy.
    assert b.bank.read(1) == block and a.bank.read(2) == block
    assert a.bank.read(3) == reply
    assert b.ic_in.transfers == 1 and a.ic_in.transfers == 1
    assert not a.ic_in.full and not b.ic_in.full


def test_call_when_idle_waits_for_queue_drain(rb):
    """Idle callbacks fire only after the issue queue empties — the
    core's task-completion hand-off must not race queued tail STOREs
    (the ``reset while busy`` hazard under load)."""
    sim, unit, _, out_f = make_unit()
    unit.bank.write(0, _int(rb(16)))
    unit.start(cu_encode(CuOp.XOR, 0, 1))
    unit.start(cu_encode(CuOp.STORE, 1))   # queued behind the XOR
    fired = []
    unit.call_when_idle(lambda: fired.append(sim.now))
    assert not fired  # still busy, callback deferred
    sim.run()
    assert fired and not unit.busy and not unit._queue
    assert out_f.can_pop()  # the STORE landed before the callback
    # Already idle: runs immediately.
    unit.call_when_idle(lambda: fired.append(-1))
    assert fired[-1] == -1


# -- datapath edges ---------------------------------------------------------------

MASK128 = (1 << 128) - 1


def _run_one(unit, sim, byte):
    unit.start(byte)
    sim.run()
    assert not unit.busy


@pytest.mark.parametrize("amount", [1, 2, 3, 4])
@pytest.mark.parametrize("low", [0x0000, 0xFFFB, 0xFFFF])
def test_inc_wraps_low_16_bits_only(rb, amount, low):
    sim, unit, _, _ = make_unit()
    high = _int(rb(16)) & (MASK128 ^ 0xFFFF)
    unit.bank.write(2, high | low)
    _run_one(unit, sim, cu_encode(CuOp.INC, 2, amount - 1))
    value = unit.bank.read(2)
    assert value & 0xFFFF == (low + amount) % 0x10000
    assert value >> 16 == high >> 16  # no carry into the upper 112 bits


@pytest.mark.parametrize(
    "mask", [0x0000, 0x8000, 0x0001, 0xFFFF, mask_for_bytes(12)], ids=hex
)
def test_xor_and_equ_under_masks(rb, mask):
    sim, unit, _, _ = make_unit()
    a, b = rb(16), rb(16)
    enabled = [bool((mask >> (15 - i)) & 1) for i in range(16)]
    unit.set_mask_high(mask >> 8)
    unit.set_mask_low(mask & 0xFF)
    unit.bank.write(0, _int(a))
    unit.bank.write(1, _int(b))
    _run_one(unit, sim, cu_encode(CuOp.XOR, 0, 1))
    expected = bytes(x ^ y if on else 0 for x, y, on in zip(a, b, enabled))
    assert unit.bank.read(1) == _int(expected)
    assert unit.bank.read(0) == _int(a)  # A is only read

    # EQU: bytes outside the mask never matter; any enabled byte does.
    outside = bytes(x if on else x ^ 0x5A for x, on in zip(a, enabled))
    unit.bank.write(1, _int(outside))
    _run_one(unit, sim, cu_encode(CuOp.EQU, 0, 1))
    assert unit.equ_flag
    if mask:
        first = enabled.index(True)
        inside = bytearray(a)
        inside[first] ^= 0x01
        unit.bank.write(1, _int(bytes(inside)))
        _run_one(unit, sim, cu_encode(CuOp.EQU, 0, 1))
        assert not unit.equ_flag


def test_load_store_keeps_subword_order():
    sim, unit, in_f, out_f = make_unit()
    words = [0x00112233, 0x44556677, 0x8899AABB, 0xCCDDEEFF]
    _feed(sim, in_f, words)
    _run_one(unit, sim, cu_encode(CuOp.LOAD, 3))
    # The first word popped is the most significant sub-word.
    assert unit.bank.read(3) == 0x00112233_44556677_8899AABB_CCDDEEFF
    _run_one(unit, sim, cu_encode(CuOp.STORE, 3))
    assert _drain(sim, out_f, 4) == words


def test_whirlpool_unit_matches_stepped_unit(rb):
    """The loosely timed Whirlpool personality against its stepped copy:
    same bank values, output words and completion cycle."""
    from repro.crypto.whirlpool import compress
    from repro.unit.whirlpool_unit import WhirlpoolUnit
    from stepped_models import (
        SteppedIoCore,
        SteppedWhirlpoolUnit,
        SteppedWordFifo,
        stepped_drainer,
        stepped_feeder,
    )

    message = rb(64)
    program = [wp_encode(WpOp.LOAD, i) for i in range(4)]
    program += [wp_encode(WpOp.WPINIT), wp_encode(WpOp.SWPC), wp_encode(WpOp.FWPC)]
    program += [wp_encode(WpOp.WPDIG, i) for i in range(4)]
    program += [wp_encode(WpOp.STORE, i) for i in range(4)]

    def run(stepped):
        sim = Simulator()
        fifo = SteppedWordFifo if stepped else WordFifo
        in_f, out_f = fifo(sim, 64, "in"), fifo(sim, 64, "out")
        io = (SteppedIoCore if stepped else IoCore)(in_f, out_f)
        unit = (SteppedWhirlpoolUnit if stepped else WhirlpoolUnit)(sim, io, DEFAULT_TIMING)
        # The message is in the FIFO before the first issue.
        port = SimpleNamespace(in_fifo=in_f, out_fifo=out_f, sim=sim)
        blocks = [message[i : i + 16] for i in range(0, 64, 16)]
        if stepped:
            sim.run_until_event(sim.add_process(stepped_feeder(port, blocks)).done)
        else:
            _feed(sim, in_f, bytes_to_words32(message))
        for byte in program:
            unit.start(byte)
        sim.run()
        bank, end = list(unit.bank.regs), sim.now
        if stepped:
            words = []
            sim.run_until_event(sim.add_process(stepped_drainer(port, words, 16)).done)
        else:
            words = _drain(sim, out_f, 16)
        return bank, words, end

    loose, stepped = run(False), run(True)
    assert loose == stepped
    digest = compress(bytes(64), message)
    assert b"".join(v.to_bytes(16, "big") for v in loose[0]) == digest

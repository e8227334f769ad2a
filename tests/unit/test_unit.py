"""Cryptographic Unit: ISA, bank, cores, timing, instruction semantics."""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.crypto.aes import expand_key
from repro.crypto import aes_encrypt_block, ghash
from repro.errors import BankAddressError, DecodeError, UnitError
from repro.sim.fifo import WordFifo
from repro.sim.kernel import Simulator
from repro.unit import BankRegister, CryptoUnit, CuOp, cu_decode, cu_encode
from repro.unit.cores.inc_core import inc16
from repro.unit.isa import CU_DECODE_TABLE
from repro.unit.cores.io_core import IoCore
from repro.unit.cores.xor_core import mask_for_bytes, masked_equal, masked_xor
from repro.unit.timing import DEFAULT_TIMING


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

def test_bank_read_write_subwords(rb):
    bank = BankRegister()
    value = rb(16)
    bank.write(2, value)
    assert bank.read(2) == value
    words = [bank.read_subword(2, i) for i in range(4)]
    assert b"".join(w.to_bytes(4, "big") for w in words) == value
    bank.write_subword(2, 1, 0xDEADBEEF)
    assert bank.read(2)[4:8] == bytes.fromhex("deadbeef")


def test_bank_bounds(rb):
    bank = BankRegister()
    with pytest.raises(BankAddressError):
        bank.read(4)
    with pytest.raises(BankAddressError):
        bank.write(0, rb(15))
    with pytest.raises(BankAddressError):
        bank.read_subword(0, 4)


# -- functional cores --------------------------------------------------------------

def test_mask_for_bytes():
    assert mask_for_bytes(16) == 0xFFFF
    assert mask_for_bytes(0) == 0
    assert mask_for_bytes(8) == 0xFF00
    with pytest.raises(UnitError):
        mask_for_bytes(17)


def test_masked_xor_and_equal(rb):
    a, b = rb(16), rb(16)
    full = masked_xor(a, b, 0xFFFF)
    assert full == bytes(x ^ y for x, y in zip(a, b))
    half = masked_xor(a, b, 0xFF00)
    assert half[:8] == full[:8] and half[8:] == bytes(8)
    assert masked_equal(a, a, 0xFFFF)
    assert masked_equal(a, a[:8] + rb(8), 0xFF00)


def test_inc16_semantics():
    block = bytes(14) + b"\x00\xff"
    assert inc16(block, 1)[-2:] == b"\x01\x00"
    assert inc16(block, 4)[-2:] == b"\x01\x03"
    with pytest.raises(UnitError):
        inc16(block, 5)


# -- the unit end to end ------------------------------------------------------------

def make_unit(key=bytes(16)):
    sim = Simulator()
    in_f = WordFifo(sim, 64, "in")
    out_f = WordFifo(sim, 64, "out")
    io = IoCore(in_f, out_f)
    schedule = expand_key(key)
    unit = CryptoUnit(sim, io, lambda: schedule, DEFAULT_TIMING, name="cu")
    return sim, unit, in_f, out_f


def test_saes_faes_value_and_timing(rb):
    key, block = rb(16), rb(16)
    sim, unit, _, _ = make_unit(key)
    unit.bank.write(0, block)
    unit.start(cu_encode(CuOp.SAES, 0))
    unit.start(cu_encode(CuOp.FAES, 1))  # queues, issues at SAES completion
    sim.run()
    assert unit.bank.read(1) == aes_encrypt_block(key, block)
    # SAES occupies 6, then FAES completes at 44 + 5.
    assert sim.now == DEFAULT_TIMING.aes_busy(128) + DEFAULT_TIMING.finalize_tail


def test_ghash_pipeline(rb):
    h, x1, x2 = rb(16), rb(16), rb(16)
    sim, unit, _, _ = make_unit()
    unit.bank.write(0, h)
    unit.bank.write(1, x1)
    unit.start(cu_encode(CuOp.LOADH, 0))
    unit.start(cu_encode(CuOp.SGFM, 1))
    sim.run()
    unit.bank.write(1, x2)
    unit.start(cu_encode(CuOp.SGFM, 1))
    unit.start(cu_encode(CuOp.FGFM, 2))
    sim.run()
    assert unit.bank.read(2) == ghash(h, x1 + x2)


def test_load_store_roundtrip(rb):
    sim, unit, in_f, out_f = make_unit()
    block = rb(16)
    in_f.push_block(block)
    unit.start(cu_encode(CuOp.LOAD, 3))
    unit.start(cu_encode(CuOp.STORE, 3))
    sim.run()
    assert out_f.pop_block() == block


def test_load_stalls_until_data(rb):
    sim, unit, in_f, _ = make_unit()
    unit.start(cu_encode(CuOp.LOAD, 0))
    sim.run()
    assert unit.busy  # stalled
    block = rb(16)
    in_f.push_block(block)
    sim.run()
    assert not unit.busy
    assert unit.bank.read(0) == block


def test_xor_equ_respect_mask(rb):
    sim, unit, _, _ = make_unit()
    a = rb(16)
    unit.bank.write(0, a)
    unit.bank.write(1, a[:4] + rb(12))
    unit.set_mask_high(0xF0)
    unit.set_mask_low(0x00)
    unit.start(cu_encode(CuOp.EQU, 0, 1))
    sim.run()
    assert unit.equ_flag  # only the first 4 bytes compared


def test_status_byte_and_reset(rb):
    sim, unit, _, _ = make_unit()
    unit.bank.write(0, rb(16))
    unit.start(cu_encode(CuOp.SAES, 0))
    assert unit.status_byte() & 0x8  # busy
    sim.run()
    unit.start(cu_encode(CuOp.FAES, 0))
    sim.run()
    unit.reset_for_packet()
    assert unit.bank.read(0) == bytes(16)
    assert unit.mask == 0xFFFF


def test_faes_without_saes_raises():
    sim, unit, _, _ = make_unit()
    with pytest.raises(UnitError):
        unit.start(cu_encode(CuOp.FAES, 0))


def test_icrecv_without_wire_raises(rb):
    sim, unit, _, _ = make_unit()
    unit.bank.write(0, rb(16))
    with pytest.raises(UnitError):
        unit.start(cu_encode(CuOp.ICSEND, 0))


def test_intercore_transfer(rb):
    sim, a, _, _ = make_unit()
    in_f = WordFifo(sim, 16, "b.in")
    out_f = WordFifo(sim, 16, "b.out")
    b = CryptoUnit(sim, IoCore(in_f, out_f), lambda: expand_key(bytes(16)), DEFAULT_TIMING, name="b")
    a.ic_out = b.ic_in
    block = rb(16)
    a.bank.write(2, block)
    a.start(cu_encode(CuOp.ICSEND, 2))
    b.start(cu_encode(CuOp.ICRECV, 1))
    sim.run()
    assert b.bank.read(1) == block
    assert b.ic_in.transfers == 1


def test_call_when_idle_waits_for_queue_drain(rb):
    """Idle callbacks fire only after the issue queue empties — the
    core's task-completion hand-off must not race queued tail STOREs
    (the ``reset while busy`` hazard under load)."""
    sim, unit, _, out_f = make_unit()
    unit.bank.write(0, rb(16))
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

"""8-bit controller: encoding round-trips, assembler, interpreter."""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.errors import AssemblerError, DecodeError, ExecutionError
from repro.isa import Controller8, Op, assemble, decode, encode
from repro.isa.opcodes import ADDRESS_OPS, NULLARY_OPS, REGISTER_FORMS, SHIFT_OPS
from repro.sim.kernel import Delay, Simulator


# -- encoding ------------------------------------------------------------------

@given(st.sampled_from(sorted(Op)), st.integers(0, 15), st.integers(0, 255))
@settings(max_examples=100, deadline=None)
def test_encode_decode_roundtrip(op, sx, operand):
    if op in ADDRESS_OPS:
        word = encode(op, addr=operand)
        decoded = decode(word)
        assert decoded.op == op and decoded.addr == operand
    else:
        word = encode(op, sx, operand)
        decoded = decode(word)
        assert (decoded.op, decoded.sx, decoded.operand) == (op, sx, operand)


def test_decode_rejects_garbage():
    with pytest.raises(DecodeError):
        decode(0x3F << 12)  # unknown opcode
    with pytest.raises(DecodeError):
        decode(1 << 18)
    with pytest.raises(DecodeError):
        encode(Op.LOAD, sx=16)


def _partition_violations(address, nullary, shift, register):
    """Opcodes that are not exactly one of: address-form, nullary,
    shift, register form, or the immediate twin of a register form."""
    violations = []
    for op in Op:
        twin = Op.__members__.get(op.name + "_R")
        kinds = [
            op in address,
            op in nullary,
            op in shift,
            op in register,
            twin in register,
        ]
        if sum(kinds) != 1:
            violations.append((op, kinds))
    return violations


def test_op_space_partition():
    assert _partition_violations(ADDRESS_OPS, NULLARY_OPS, SHIFT_OPS, REGISTER_FORMS) == []


def test_op_space_partition_catches_an_op_in_two_classes():
    address_op = min(ADDRESS_OPS)
    violations = _partition_violations(
        ADDRESS_OPS, NULLARY_OPS | {address_op}, SHIFT_OPS, REGISTER_FORMS
    )
    assert [op for op, _ in violations] == [address_op]


# -- assembler -----------------------------------------------------------------

def run_program(src, device=None):
    sim = Simulator()
    c = Controller8(sim, assemble(src), device=device)
    sim.add_process(c.run())
    sim.run()
    return c, sim


def test_arithmetic_and_flags():
    c, _ = run_program(
        """
        LOAD s0, 200
        ADD  s0, 100      ; 300 -> 44 with carry
        """
    )
    assert c.regs[0] == 44
    assert c.carry


def test_sub_borrow_and_zero():
    c, _ = run_program(
        """
        LOAD s0, 5
        SUB  s0, 5
        """
    )
    assert c.regs[0] == 0
    assert c.zero and not c.carry
    c, _ = run_program("LOAD s0, 3\nSUB s0, 5")
    assert c.regs[0] == 254 and c.carry


def test_logic_clears_carry():
    c, _ = run_program(
        """
        LOAD s0, 255
        ADD  s0, 10       ; sets carry
        AND  s0, 0xF0
        """
    )
    assert not c.carry


def test_register_forms_and_compare():
    c, _ = run_program(
        """
        LOAD s1, 7
        LOAD s2, 7
        COMPARE s1, s2
        """
    )
    assert c.zero


def test_shifts_and_rotates():
    c, _ = run_program("LOAD s0, 0x81\nSR0 s0")
    assert c.regs[0] == 0x40 and c.carry
    c, _ = run_program("LOAD s0, 0x81\nRL s0")
    assert c.regs[0] == 0x03 and c.carry


def test_jump_loop_and_labels():
    c, _ = run_program(
        """
        CONSTANT n, 5
        LOAD s0, n
        LOAD s1, 0
        top: ADD s1, 2
        SUB  s0, 1
        JUMP NZ, top
        """
    )
    assert c.regs[1] == 10


def test_call_return_and_stack():
    c, _ = run_program(
        """
        LOAD s0, 1
        CALL sub
        ADD  s0, 1
        RETURN
        sub: ADD s0, 10
        RETURN
        """
    )
    assert c.regs[0] == 12
    assert c.stack == []


def test_scratchpad_store_fetch():
    c, _ = run_program(
        """
        LOAD s0, 0xAB
        STORE s0, 5
        LOAD s1, 5
        FETCH s2, (s1)
        """
    )
    assert c.regs[2] == 0xAB


def test_ports_and_indirect_io():
    written = {}

    class Dev:
        def read_port(self, p):
            return p + 1

        def write_port(self, p, v):
            written[p] = v

    c, _ = run_program(
        """
        INPUT  s0, 0x10       ; -> 0x11
        LOAD   s1, 0x20
        OUTPUT s0, (s1)
        """,
        device=Dev(),
    )
    assert written == {0x20: 0x11}


def test_cpi_is_two():
    c, sim = run_program("LOAD s0, 1\nADD s0, 2\nRETURN")
    assert sim.now == 2 * c.instructions_retired


def test_halt_wakes_on_pulse():
    sim = Simulator()
    c = Controller8(sim, assemble("HALT\nLOAD s0, 9\nRETURN"))
    sim.add_process(c.run())

    def waker():
        yield Delay(31)
        c.wake.pulse()

    sim.add_process(waker())
    sim.run()
    assert c.regs[0] == 9 and sim.now >= 31


def test_assembler_errors():
    with pytest.raises(AssemblerError):
        assemble("BOGUS s0, 1")
    with pytest.raises(AssemblerError):
        assemble("LOAD s0, 256")
    with pytest.raises(AssemblerError):
        assemble("JUMP nowhere")
    with pytest.raises(AssemblerError):
        assemble("dup: NOP\ndup: NOP")
    with pytest.raises(AssemblerError):
        assemble("INPUT s0, s1")  # indirect needs parentheses


def test_disassembly_includes_source():
    prog = assemble("LOAD s0, 1  ; hello")
    assert "hello" in prog.disassemble()


def test_pc_out_of_range():
    prog = assemble("NOP")
    with pytest.raises(ExecutionError):
        prog.fetch(5)


def test_interrupt_vector_and_returni():
    src = """
        EINT
        LOAD s0, 1
        LOAD s0, 2
        LOAD s0, 3
        RETURN
        isr: LOAD s1, 0xEE
        RETURNI ENABLE
    """
    sim = Simulator()
    prog = assemble(src)
    c = Controller8(sim, prog)
    c.irq_vector = prog.label("isr")
    sim.add_process(c.run())

    def irq():
        yield Delay(5)
        c.post_irq()

    sim.add_process(irq())
    sim.run()
    assert c.regs[1] == 0xEE
    assert c.regs[0] == 3
    assert c.interrupts_enabled

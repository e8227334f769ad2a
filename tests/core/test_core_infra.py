"""Core infrastructure: key cache, params, firmware library, lifecycle."""

import pytest

from repro.core import Algorithm, CcmRole, Direction, TaskParams, firmware_for
from repro.core.firmware import FIRMWARE_LIBRARY
from repro.core.key_cache import KeyCache
from repro.core.params import PORT_DATA_BLOCKS, PORT_FINAL_MASK_HI, PORT_FLAGS
from repro.crypto.aes import expand_key
from repro.errors import CoreError, FirmwareError, KeyStoreError
from repro.isa.opcodes import IMEM_WORDS


def test_key_cache_lifecycle():
    cache = KeyCache()
    assert not cache.loaded
    with pytest.raises(KeyStoreError):
        cache.round_keys()
    cache.install(expand_key(bytes(24)), 192, key_id=3)
    assert cache.loaded and cache.key_bits == 192 and cache.key_id == 3
    assert len(cache.round_keys()) == 13
    cache.invalidate()
    assert not cache.loaded


def test_key_cache_validates_shape():
    cache = KeyCache()
    with pytest.raises(KeyStoreError):
        cache.install(expand_key(bytes(16)), 192)  # wrong rounds for bits
    with pytest.raises(KeyStoreError):
        cache.install(expand_key(bytes(16)), 160)


def test_task_params_masks_and_ports():
    p = TaskParams(
        algorithm=Algorithm.GCM,
        aad_blocks=2,
        data_blocks=5,
        tag_length=8,
        final_block_bytes=3,
    )
    assert p.final_mask == 0b111 << 13  # first 3 bytes
    assert p.tag_mask == 0xFF00
    assert p.port_value(PORT_DATA_BLOCKS) == 5
    assert p.port_value(PORT_FINAL_MASK_HI) == (p.final_mask >> 8) & 0xFF
    assert p.port_value(PORT_FLAGS) == 0
    dec = TaskParams(algorithm=Algorithm.CCM, direction=Direction.DECRYPT, role=CcmRole.CTR)
    assert dec.port_value(PORT_FLAGS) == 0x05


def test_task_params_validation():
    with pytest.raises(FirmwareError):
        TaskParams(algorithm=Algorithm.GCM, key_bits=100)
    with pytest.raises(FirmwareError):
        TaskParams(algorithm=Algorithm.GCM, data_blocks=300)
    with pytest.raises(FirmwareError):
        TaskParams(algorithm=Algorithm.GCM, final_block_bytes=0)


def test_firmware_library_complete_and_fits():
    # Every (algorithm, direction, role) the device supports exists and
    # fits the 1024-word instruction memory.
    for d in Direction:
        for alg, roles in [
            (Algorithm.CTR, [CcmRole.SINGLE]),
            (Algorithm.GCM, [CcmRole.SINGLE]),
            (Algorithm.CBC_MAC, [CcmRole.SINGLE]),
            (Algorithm.CCM, [CcmRole.SINGLE, CcmRole.MAC, CcmRole.CTR]),
            (Algorithm.WHIRLPOOL, [CcmRole.SINGLE]),
        ]:
            for role in roles:
                prog = firmware_for(alg, d, role)
                assert 0 < len(prog) <= IMEM_WORDS
    assert len(FIRMWARE_LIBRARY) == 14


def test_firmware_for_unknown_raises():
    with pytest.raises(FirmwareError):
        firmware_for(Algorithm.CTR, Direction.ENCRYPT, CcmRole.MAC)


def test_core_rejects_double_assignment(rb):
    from repro.core.crypto_core import CryptoCore
    from repro.sim.kernel import Simulator
    from repro.unit.timing import DEFAULT_TIMING

    sim = Simulator()
    core = CryptoCore(sim, DEFAULT_TIMING)
    core.key_cache.install(expand_key(bytes(16)), 128)
    params = TaskParams(algorithm=Algorithm.CTR, data_blocks=1)
    core.assign_task(params)
    with pytest.raises(CoreError):
        core.assign_task(params)


def test_core_reconfigure_refused_while_busy():
    from repro.core.crypto_core import CryptoCore
    from repro.sim.kernel import Simulator
    from repro.unit.timing import DEFAULT_TIMING

    sim = Simulator()
    core = CryptoCore(sim, DEFAULT_TIMING)
    core.key_cache.install(expand_key(bytes(16)), 128)
    core.assign_task(TaskParams(algorithm=Algorithm.CTR, data_blocks=1))
    with pytest.raises(CoreError):
        core.use_whirlpool_personality(True)


def test_premature_result_defers_until_cu_drains(rb):
    """A program that publishes its result without the drain fence must
    not mark the core reassignable while tail STOREs are queued.

    The shipped firmware always emits ``FW.drain_cu`` before the result
    write; this pins the core-level backstop for custom programs (and
    documents the pre-fence failure: under FIFO backpressure the
    scheduler could grab a core mid-drain and hit ``reset while busy``).
    """
    from repro.core.crypto_core import CryptoCore
    from repro.core.firmware.builder import FW
    from repro.isa.assembler import assemble
    from repro.sim.kernel import Simulator
    from repro.unit.isa import CuOp
    from repro.unit.timing import DEFAULT_TIMING

    fw = FW("premature result")
    fw.pred(CuOp.XOR, 0, 1)
    fw.pred(CuOp.XOR, 0, 1)
    fw.pred(CuOp.STORE, 1)
    # No drain_cu: result goes out while the XOR/STORE tail is queued.
    fw.raw("    LOAD   s3, 1")
    fw.raw("    OUTPUT s3, 32")
    fw.raw("    RETURN")
    program = assemble(fw.source(), "premature")

    sim = Simulator()
    core = CryptoCore(sim, DEFAULT_TIMING)
    core.key_cache.install(expand_key(bytes(16)), 128)
    core.unit.bank.write(0, int.from_bytes(rb(16), "big"))
    core.unit.bank.write(1, int.from_bytes(rb(16), "big"))
    done = core.assign_task(
        TaskParams(algorithm=Algorithm.CTR, data_blocks=1), program=program
    )
    sim.run()
    assert done.triggered and not core.busy
    # Completion waited for the drain: the STORE's words are in the
    # output FIFO by the time the task reports done.
    assert core.out_fifo.can_pop()
    assert not core.unit.busy and not core.unit._queue


def test_run_task_cycle_limit_counts_from_the_call(rb):
    """A simulator already past ``limit`` cycles still runs a short task:
    the budget starts at the call, not at cycle 0."""
    from repro.core.crypto_core import CryptoCore
    from repro.core.harness import run_task
    from repro.crypto import gcm_encrypt
    from repro.radio import format_gcm, parse_output
    from repro.sim.kernel import Simulator
    from repro.unit.timing import DEFAULT_TIMING

    sim = Simulator()
    sim.run(until=100_000_001)
    core = CryptoCore(sim, DEFAULT_TIMING)
    key, iv, data = rb(16), rb(12), rb(64)
    core.key_cache.install(expand_key(key), 128)
    task = format_gcm(128, iv, b"", data, Direction.ENCRYPT)
    run = run_task(sim, core, task)
    assert run.result.ok
    assert parse_output(task, run.output) == gcm_encrypt(key, iv, data, b"")

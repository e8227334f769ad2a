"""MCCP top level: protocol, key memory/scheduler, channels, requests."""

import pytest

from repro import Algorithm, CommController, Direction, Mccp, Packet, Simulator
from repro.errors import ChannelError, KeyStoreError, NoResourceError
from repro.mccp.instructions import (
    CloseInstr,
    DecryptInstr,
    EncryptInstr,
    OpenInstr,
    RetrieveDataInstr,
    ReturnCode,
    TransferDoneInstr,
    decode_instruction,
    encode_instruction,
)
from repro.mccp.key_memory import KeyMemory
from repro.mccp.key_scheduler import KeyScheduler
from repro.core.key_cache import KeyCache
from repro.crypto import gcm_decrypt
from repro.radio import format_gcm
from repro.unit.timing import DEFAULT_TIMING


# -- instruction encoding ----------------------------------------------------------

@pytest.mark.parametrize(
    "instr",
    [
        OpenInstr(Algorithm.GCM, 3),
        CloseInstr(7),
        EncryptInstr(2, 4, 128),
        DecryptInstr(1, 0, 64),
        RetrieveDataInstr(),
        TransferDoneInstr(9),
    ],
    ids=lambda i: type(i).__name__,
)
def test_instruction_roundtrip(instr):
    assert decode_instruction(encode_instruction(instr)) == instr


def test_decode_rejects_bad_words():
    from repro.errors import ProtocolError

    with pytest.raises(ProtocolError):
        decode_instruction(0xF << 28)
    with pytest.raises(ProtocolError):
        decode_instruction(1 << 33)


def test_execute_rejects_unknown_instruction():
    from repro.errors import ProtocolError

    with pytest.raises(ProtocolError):
        Mccp(Simulator()).execute_instruction(object())


# -- key memory -----------------------------------------------------------------------

def test_key_memory_write_protection_and_reads():
    km = KeyMemory(slots=4)
    km.load_key(0, bytes(16))
    assert km.has_key(0) and 0 in km
    assert km.key_bits(0) == 128
    assert km.fetch_for_scheduler(0) == bytes(16)
    assert km.read_counts[0] == 1
    km.seal()
    with pytest.raises(KeyStoreError):
        km.load_key(1, bytes(16))
    with pytest.raises(KeyStoreError):
        km.fetch_for_scheduler(3)


def test_key_memory_validation():
    km = KeyMemory(slots=2)
    with pytest.raises(KeyStoreError):
        km.load_key(5, bytes(16))
    with pytest.raises(KeyStoreError):
        km.load_key(0, bytes(15))
    assert "Key" in repr(km) and "00" not in repr(km)  # never leak bytes


def test_key_scheduler_prices_and_memoises_expansion():
    km = KeyMemory()
    km.load_key(0, bytes(32))
    ks = KeyScheduler(km, DEFAULT_TIMING)
    # 15 round keys x 4 words x 4 cycles.
    assert ks.schedule_cycles(256) == 15 * 4 * 4
    cache = KeyCache()
    assert ks.load_sync(0, cache) == 256
    assert cache.key_bits == 256 and cache.key_id == 0
    assert ks.expansions == 1
    ks.load_sync(0, KeyCache())
    assert ks.expansions == 1  # memoised


@pytest.mark.parametrize("key_bits,round_keys", [(128, 11), (192, 13), (256, 15)])
def test_key_scheduler_prices_each_key_size(key_bits, round_keys):
    ks = KeyScheduler(KeyMemory(), DEFAULT_TIMING)
    words = 4 * round_keys
    assert ks.schedule_cycles(key_bits) == words * DEFAULT_TIMING.key_schedule_word_cycles


def test_key_scheduler_invalidate_installs_the_rewritten_key():
    from repro.crypto.aes import expand_key

    km = KeyMemory()
    km.load_key(0, bytes(16))
    ks = KeyScheduler(km, DEFAULT_TIMING)
    cache = KeyCache()
    ks.load_sync(0, cache)
    km.load_key(0, bytes(range(24)))
    # Until invalidated, the memo still installs the old schedule.
    assert ks.load_sync(0, cache) == 128 and ks.expansions == 1
    assert ks.invalidate(0) is True
    assert ks.load_sync(0, cache) == 192 and ks.expansions == 2
    assert cache.round_keys() == tuple(map(tuple, expand_key(bytes(range(24)))))


# -- device protocol --------------------------------------------------------------------

def make_device():
    sim = Simulator()
    mccp = Mccp(sim, core_count=2)
    mccp.load_session_key(0, bytes(range(16)))
    return sim, mccp


def test_open_close_protocol():
    sim, mccp = make_device()
    code, chan_id = mccp.execute_instruction(OpenInstr(Algorithm.GCM, 0))
    assert code is ReturnCode.OK
    code, _ = mccp.execute_instruction(CloseInstr(chan_id))
    assert code is ReturnCode.OK
    code, _ = mccp.execute_instruction(CloseInstr(99))
    assert code is ReturnCode.UNKNOWN_CHANNEL
    assert mccp.return_register & 0xF == int(ReturnCode.UNKNOWN_CHANNEL)


def test_retrieve_with_nothing_pending():
    sim, mccp = make_device()
    code, _ = mccp.execute_instruction(RetrieveDataInstr())
    assert code is ReturnCode.NOT_READY


def test_no_resource_when_all_cores_busy(rb):
    sim, mccp = make_device()
    chan = mccp.open_channel(Algorithm.GCM, 0)
    task = format_gcm(128, rb(12), b"", rb(64), Direction.ENCRYPT)
    for core in mccp.cores:
        pass
    # Occupy both cores.
    mccp.submit(chan.channel_id, [task])
    task2 = format_gcm(128, rb(12), b"", rb(64), Direction.ENCRYPT)
    mccp.submit(chan.channel_id, [task2])
    with pytest.raises(NoResourceError):
        mccp.submit(chan.channel_id, [task])
    assert mccp.idle_cores == 0
    assert mccp.utilisation() == 1.0


def test_close_with_inflight_request_refused(rb):
    sim, mccp = make_device()
    chan = mccp.open_channel(Algorithm.GCM, 0)
    task = format_gcm(128, rb(12), b"", rb(32), Direction.ENCRYPT)
    comm = CommController(sim, mccp)
    ev = sim.event("go")

    def proc():
        transfer = yield from comm.process_packet(chan, Packet(0, b"", rb(32)))
        ev.trigger(transfer)

    sim.add_process(proc())
    with pytest.raises(ChannelError):
        # Submit happens after the scheduler-overhead delay; run a bit.
        sim.run(until=DEFAULT_TIMING.scheduler_overhead_cycles + 1)
        mccp.close_channel(chan.channel_id)
    sim.run_until_event(ev)
    mccp.close_channel(chan.channel_id)


def test_full_device_roundtrip_via_gold(rb):
    sim, mccp = make_device()
    chan = mccp.open_channel(Algorithm.GCM, 0)
    comm = CommController(sim, mccp)
    payload = rb(500)
    header = rb(9)
    secured = comm.secure_packet_sync(chan, Packet(0, header, payload))
    nonce = (1).to_bytes(12, "big")
    assert gcm_decrypt(bytes(range(16)), nonce, secured.ciphertext, secured.tag, header) == payload
    assert chan.packets_processed == 1


def test_secure_packet_sync_cycle_limit_counts_from_the_call(rb):
    """The blocking helper's budget starts at the call, so a device that
    has already run past ``limit`` cycles still secures a packet."""
    sim, mccp = make_device()
    sim.run(until=200_000_001)
    chan = mccp.open_channel(Algorithm.GCM, 0)
    comm = CommController(sim, mccp)
    payload, header = rb(64), rb(4)
    secured = comm.secure_packet_sync(chan, Packet(0, header, payload))
    nonce = (1).to_bytes(12, "big")
    key = bytes(range(16))
    assert gcm_decrypt(key, nonce, secured.ciphertext, secured.tag, header) == payload


def test_decrypt_auth_fail_path_reports_and_purges(rb):
    sim, mccp = make_device()
    chan = mccp.open_channel(Algorithm.GCM, 0)
    comm = CommController(sim, mccp)
    ct = rb(64)
    ev = sim.event("done")

    def proc():
        transfer = yield from comm.process_packet(
            chan, Packet(0, b"", ct), Direction.DECRYPT,
            nonce=rb(12), tag=bytes(16),
        )
        ev.trigger(transfer)

    sim.add_process(proc())
    transfer = sim.run_until_event(ev, limit=10_000_000)
    assert not transfer.ok
    assert comm.auth_failures == 1
    assert chan.auth_failures == 1

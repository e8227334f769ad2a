"""A dispatch reads its key when its batch leaves the queue.

The drain submits each batch right after taking it off the queue, then
charges the control instruction and the crossbar upload in simulated
time.  A key rewritten in key memory while the drain sleeps in that
charge must not reach the batch already taken: it applies from the
next batch on.
"""

from repro.core.params import Algorithm
from repro.crypto.fast.bulk import ccm_seal
from repro.mccp.channel import FlushPolicy
from repro.mccp.mccp import Mccp
from repro.radio.comm_controller import CommController
from repro.radio.packet import Packet
from repro.sim.kernel import Simulator

OLD_KEY = bytes(range(16))
NEW_KEY = bytes(range(100, 116))
WIDTH = 4


def test_key_rewritten_during_the_crossbar_charge_misses_the_taken_batch():
    sim = Simulator()
    mccp = Mccp(sim)
    mccp.load_session_key(0, OLD_KEY)
    channel = mccp.open_channel(Algorithm.CCM, 0)
    channel.flush_policy = FlushPolicy(coalesce_limit=WIDTH, flush_deadline=None)
    comm = CommController(sim, mccp, seed=5)
    packets = [
        Packet(channel.channel_id, b"hdr", bytes([i]) * 48, sequence=i)
        for i in range(2 * WIDTH)
    ]
    jobs = [comm.submit_job(channel, packet) for packet in packets[:WIDTH]]
    control = mccp.scheduler.overhead_delay().cycles
    # Past the control charge, inside the crossbar upload.
    sim.run(until=control + 1)
    assert channel.pending_count == 0 and channel.in_flight == WIDTH
    assert all(job.transfer is None for job in jobs)
    mccp.load_session_key(0, NEW_KEY)
    sim.run()
    assert all(job.transfer is not None for job in jobs)
    assert sim.now > control + 1  # the batch completed after the rewrite
    for job in jobs:
        assert (job.transfer.payload, job.transfer.tag) == ccm_seal(
            OLD_KEY, job.nonce, job.data, job.aad, channel.tag_length
        )
    later = [comm.submit_job(channel, packet) for packet in packets[WIDTH:]]
    sim.run()
    for job in later:
        assert (job.transfer.payload, job.transfer.tag) == ccm_seal(
            NEW_KEY, job.nonce, job.data, job.aad, channel.tag_length
        )

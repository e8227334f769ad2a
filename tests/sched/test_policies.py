"""Mapping policies: first-idle (paper), round-robin, priority."""

from repro import Algorithm, Direction, Mccp, Simulator
from repro.radio import format_gcm
from repro.sched import FirstIdlePolicy, PriorityReservePolicy, RoundRobinPolicy


def make(policy, cores=4):
    sim = Simulator()
    mccp = Mccp(sim, core_count=cores, policy=policy)
    mccp.load_session_key(0, bytes(16))
    chan = mccp.open_channel(Algorithm.GCM, 0)
    return sim, mccp, chan


def submit_one(mccp, chan, rb, priority=1, feed=False):
    task = format_gcm(128, rb(12), b"", rb(32), Direction.ENCRYPT)
    request = mccp.submit(chan.channel_id, [task], priority)
    if feed:
        core = mccp.cores[request.core_indices[0]]
        for block in task.input_blocks:
            core.in_fifo.push_block(block)
    return request


def test_first_idle_picks_lowest_indices(rb):
    sim, mccp, chan = make(FirstIdlePolicy())
    r1 = submit_one(mccp, chan, rb)
    r2 = submit_one(mccp, chan, rb)
    assert r1.core_indices == (0,)
    assert r2.core_indices == (1,)


def test_first_idle_rejects_when_full(rb):
    sim, mccp, chan = make(FirstIdlePolicy(), cores=1)
    submit_one(mccp, chan, rb)
    assert FirstIdlePolicy().select_cores(mccp.scheduler, 1) is None


def test_round_robin_rotates(rb):
    policy = RoundRobinPolicy()
    sim, mccp, chan = make(policy)
    first = submit_one(mccp, chan, rb, feed=True).core_indices[0]
    # Finish everything, then submit again: a different core starts.
    for req in list(mccp.scheduler.requests.values()):
        sim.run_until_event(req.ready_event, limit=10_000_000)
    second = submit_one(mccp, chan, rb).core_indices[0]
    assert second != first


def test_priority_reserve_blocks_bulk(rb):
    policy = PriorityReservePolicy(reserved_cores=2, priority_threshold=0)
    sim, mccp, chan = make(policy)
    # Bulk traffic may only use cores 0..1.
    a = submit_one(mccp, chan, rb, priority=2)
    b = submit_one(mccp, chan, rb, priority=2)
    assert set(a.core_indices) | set(b.core_indices) == {0, 1}
    assert policy.select_cores(mccp.scheduler, 1, priority=2) is None
    # Voice still gets the reserved cores.
    v = submit_one(mccp, chan, rb, priority=0)
    assert v.core_indices[0] in (2, 3)

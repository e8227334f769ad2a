"""A size-only flush policy over a queue smaller than one batch is rejected,
and so is a queue capacity below one.

``FlushPolicy(coalesce_limit=n, flush_deadline=None)`` dispatches only
when n jobs are queued.  A bounded queue holding fewer never gets
there: the producer backs off forever and the run times out waiting
for the channel to drain.  The specs refuse that shape when built.
"""

import pytest

from repro.mccp.channel import FlushPolicy
from repro.radio.sdr_platform import ChannelConfig, WorkloadSpec
from repro.radio.sessions import SessionWorkload
from repro.radio.standards import RadioStandard
from repro.radio.traffic import TrafficPattern

SIZE_ONLY = FlushPolicy(8, None)


def _config(**kwargs):
    return ChannelConfig(RadioStandard.WIFI, bytes(16), TrafficPattern.SATURATING, packets=6, **kwargs)


def test_workload_spec_rejects_the_run_level_trap():
    # The shape that used to exceed its cycle limit waiting for 'chan0.drained'.
    with pytest.raises(ValueError, match="WorkloadSpec.*never flushes"):
        WorkloadSpec([_config()], dataplane="batched", flush_policy=SIZE_ONLY,
                     queue_capacity=4, limit=2_000_000)


@pytest.mark.parametrize("capacity", [0, -1])
def test_workload_spec_rejects_a_capacity_below_one(capacity):
    # -1 used to back the producer off until the cycle limit.
    with pytest.raises(ValueError, match="queue_capacity must be >= 1"):
        WorkloadSpec([_config()], dataplane="batched", queue_capacity=capacity)


def test_session_workload_rejects_the_trap():
    with pytest.raises(ValueError, match="SessionWorkload"):
        SessionWorkload(sessions=2, flush_policy=SIZE_ONLY, queue_capacity=4)


@pytest.mark.parametrize(
    "policy,capacity",
    [
        (FlushPolicy(8, 300), 4),  # a deadline flushes the short queue
        (FlushPolicy(8, 0), 4),  # so does dispatching on the enqueue cycle
        (SIZE_ONLY, 8),  # the queue holds a whole batch
        (SIZE_ONLY, None),  # unbounded
    ],
    ids=["deadline", "zero_deadline", "capacity_fits", "unbounded"],
)
def test_flushable_shapes_are_accepted(policy, capacity):
    WorkloadSpec([_config()], dataplane="batched", flush_policy=policy, queue_capacity=capacity)
    SessionWorkload(sessions=2, flush_policy=policy, queue_capacity=capacity)


@pytest.mark.parametrize("capacity,rejected", [(7, True), (8, False)])
def test_check_capacity_boundary_is_one_whole_batch(capacity, rejected):
    """A size-only queue must hold exactly one batch; one slot short never flushes."""
    if rejected:
        with pytest.raises(ValueError, match="here: a size-only flush policy"):
            SIZE_ONLY.check_capacity(capacity, "here")
    else:
        SIZE_ONLY.check_capacity(capacity, "here")

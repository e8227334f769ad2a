"""A finished run is freed by reference counting alone.

Dropping a platform after a workload replay or a session storm must
free its jobs, completion records and communication controller without
waiting for the cyclic garbage collector: a replay's cyclic garbage
waits for a generation-2 collection, so a long benchmark's peak RSS
grew with every pass.  The check runs with the collector disabled, then
lets ``gc.collect()`` under ``DEBUG_SAVEALL`` report whatever only a
collection could have freed.
"""

import gc
from collections import Counter

import pytest

from repro.mccp.channel import FlushPolicy
from repro.radio.sdr_platform import ChannelConfig, SdrPlatform, WorkloadSpec
from repro.radio.sessions import SessionManager, SessionWorkload
from repro.radio.standards import RadioStandard
from repro.radio.traffic import TrafficPattern

#: What a finished run must never leave to the cyclic collector.
RUN_STATE = ("PacketJob", "CompletedTransfer", "CommController")


def _cyclic_garbage(run) -> Counter:
    """Type names of the objects *run* leaves that only gc can free."""
    gc.collect()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def _workload():
    configs = [
        ChannelConfig(
            standard,
            bytes(32) if standard is RadioStandard.SATCOM else bytes(16),
            TrafficPattern.SATURATING,
            packets=8,
        )
        for standard in (
            RadioStandard.WIFI, RadioStandard.SATCOM, RadioStandard.TACTICAL_VOICE,
        )
    ]
    # Every idle-deadline wake-up is armed by a channel's first packet
    # and cancelled when size-triggered drains empty the queue, so the
    # run ends with cancelled wake-ups still queued in the simulator.
    SdrPlatform(seed=1).run_workload(
        WorkloadSpec(
            configs, dataplane="batched", backend="inline", rx_fraction=0.25,
            corrupt_rate=0.1,
            flush_policy=FlushPolicy(coalesce_limit=4, flush_deadline=1_000_000),
        )
    )


def _storm():
    SessionManager.provisioned(
        SessionWorkload(sessions=6, horizon_cycles=40_000, backend="inline"),
        seed=3,
    ).run()


def _cores():
    # The cycle-level dataplane: controllers, CUs and FIFOs point back
    # at their core weakly, and a request drops its fired events.
    configs = [
        ChannelConfig(standard, bytes(16), TrafficPattern.SATURATING, packets=3)
        for standard in (RadioStandard.WIFI, RadioStandard.TACTICAL_VOICE)
    ]
    configs.append(
        ChannelConfig(
            RadioStandard.WIMAX, bytes(16), TrafficPattern.SATURATING, packets=3,
            two_core_ccm=True,
        )
    )
    SdrPlatform(seed=2).run_workload(
        WorkloadSpec(configs, dataplane="cores", rx_fraction=0.5, corrupt_rate=0.3)
    )


@pytest.mark.parametrize(
    "run", [_workload, _storm, _cores], ids=["workload", "storm", "cores"]
)
def test_a_dropped_run_leaves_no_cyclic_garbage(run):
    garbage = _cyclic_garbage(run)
    assert {name: garbage[name] for name in RUN_STATE if garbage[name]} == {}

"""The pipelined dataplane: overlap without observable divergence.

The determinism contract under test: ``dataplane="pipelined"`` may
complete batches out of order in wall-clock, but every observable —
payload bytes, tags, ok flags, per-channel fan-out order, completion
cycle stamps, latency accounting, total simulated time — is
byte-identical to the synchronous batched dataplane, across backends,
adversarial completion orders (a scripted-latency backend that finishes
later batches first) and injected faults (retries, degradation,
quarantine, dead letters all happen at reap time).
:class:`WorkloadSpec` validation rides along.
"""

from __future__ import annotations

import time
from dataclasses import replace

import pytest

from repro.core.params import Algorithm
from repro.crypto.fast.exec import ProcessPoolBackend, ResiliencePolicy
from repro.mccp.channel import FlushPolicy
from repro.mccp.mccp import Mccp
from repro.radio.comm_controller import CommController
from repro.radio.packet import Packet
from repro.radio.sdr_platform import ChannelConfig, SdrPlatform, WorkloadSpec
from repro.radio.standards import RadioStandard
from repro.radio.traffic import TrafficPattern
from repro.resilience import FaultPlan, ScriptedFault, set_fault_plan
from repro.sim.kernel import Simulator

FLUSH = FlushPolicy(coalesce_limit=8, flush_deadline=8192)
FAST = ResiliencePolicy(max_retries=2, backoff_base=0.0, backoff_cap=0.0)
KEY = bytes(range(16))


def _configs(packets=24, channels=3):
    standards = (RadioStandard.WIFI, RadioStandard.SATCOM, RadioStandard.WIMAX)
    configs = []
    for index in range(channels):
        standard = standards[index % len(standards)]
        key = bytes([index] * (32 if standard is RadioStandard.SATCOM else 16))
        configs.append(
            ChannelConfig(
                standard,
                key,
                TrafficPattern.SATURATING,
                packets=packets,
            )
        )
    return configs


def _run(spec, plan=None, seed=17):
    """One workload run -> (platform, report, transfers, order)."""
    previous = set_fault_plan(plan)
    try:
        platform = SdrPlatform(core_count=4, seed=seed)
        report = platform.run_workload(spec)
        transfers = {
            (t.channel_id, t.sequence): (t.payload, t.tag, t.ok)
            for t in platform.comm.completed.values()
        }
        order = {}
        for t in platform.comm.completed.values():
            order.setdefault(t.channel_id, []).append(t.sequence)
        return platform, report, transfers, order
    finally:
        set_fault_plan(previous)


def _spec(dataplane, backend=None, depth=2, configs=None):
    return WorkloadSpec(
        configs=tuple(configs or _configs()),
        dataplane=dataplane,
        flush_policy=FLUSH,
        backend=backend,
        pipeline_depth=depth,
        rx_fraction=0.3,
        corrupt_rate=0.1,
    )


def _stamps(platform):
    return {
        (t.channel_id, t.sequence): (t.job.completed_cycle, t.download_done_cycle)
        for t in platform.comm.completed.values()
        if t.job is not None
    }


# -- byte identity vs the synchronous dataplane -------------------------------


@pytest.mark.parametrize(
    "depth,backend,channels",
    [(depth, backend, 3) for backend in (None, "process:2") for depth in (1, 2, 4)]
    + [(2, None, 2), (2, None, 4)],
)
def test_pipelined_identical_to_batched(depth, backend, channels):
    configs = _configs(channels=channels)
    base_platform, base_report, baseline, base_order = _run(
        _spec("batched", backend=backend, configs=configs)
    )
    platform, report, piped, order = _run(
        _spec("pipelined", backend=backend, depth=depth, configs=configs)
    )
    assert piped == baseline
    assert order == base_order
    assert report.total_cycles == base_report.total_cycles
    assert sorted(report.latencies) == sorted(base_report.latencies)
    assert _stamps(platform) == _stamps(base_platform)
    assert report.dataplane == "pipelined"
    assert base_report.dataplane == "batched"
    assert base_report.pipeline_in_flight_peak == 0
    assert report.pipeline_in_flight_peak >= 1


def test_pipelined_identical_on_process_backend():
    backend = ProcessPoolBackend(2)
    try:
        _, base_report, baseline, base_order = _run(
            _spec("batched", backend=backend)
        )
        _, report, piped, order = _run(_spec("pipelined", backend=backend))
        assert piped == baseline
        assert order == base_order
        assert report.total_cycles == base_report.total_cycles
    finally:
        backend.close()


@pytest.mark.parametrize("dataplane", ["batched", "pipelined"])
def test_process_backend_byte_identical_to_inline(dataplane):
    """The arena process pool is a transport change only: it delivers
    the same payload bytes, tags and per-channel order as inline on
    both dataplanes."""
    _, _, baseline, base_order = _run(_spec(dataplane, backend="inline"))
    _, _, transfers, order = _run(_spec(dataplane, backend="process:2"))
    assert transfers == baseline
    assert order == base_order


# -- adversarial completion order ---------------------------------------------


class ScriptedLatencyBackend(ProcessPoolBackend):
    """Process backend whose Nth launched batch sleeps ``delays[N]``.

    Later submissions with shorter delays finish first in wall-clock —
    the adversarial completion order the per-channel FIFO reap must
    mask.  ``launch_log`` records the scripted delay each launched
    batch got, proving the schedule actually applied.
    """

    def __init__(self, delays, workers=4):
        super().__init__(workers)
        self._delays = list(delays)
        self.launch_log = []

    def _launch(self, calls, attempt):
        delay = self._delays.pop(0) if self._delays else 0.0
        self.launch_log.append(delay)
        if delay:
            calls = [(_SlowCall(delay, fn), args) for fn, args in calls]
        return super()._launch(calls, attempt)


class _SlowCall:
    """Top-level so process-pool workers can unpickle it."""

    def __init__(self, delay, fn):
        self.delay = delay
        self.fn = fn

    def __call__(self, *args):
        time.sleep(self.delay)
        return self.fn(*args)


def test_out_of_order_completion_fans_out_in_order():
    """Batch 0 slow, batch 1 instant: wall-clock finishes out of order,
    fan-out must not."""
    configs = _configs(packets=40, channels=1)
    _, _, baseline, base_order = _run(_spec("batched", configs=configs))
    scripted = ScriptedLatencyBackend([0.2, 0.0, 0.1, 0.0, 0.05])
    try:
        _, report, piped, order = _run(
            _spec("pipelined", backend=scripted, depth=4, configs=configs)
        )
    finally:
        scripted.close()
    assert scripted.launch_log[:2] == [0.2, 0.0]  # schedule applied
    assert piped == baseline
    assert order == base_order
    for channel_id, sequence_list in order.items():
        assert sequence_list == sorted(sequence_list)
    assert report.pipeline_in_flight_peak >= 2


# -- faults through the pipelined dataplane -----------------------------------


class TestPipelinedResilience:
    def test_batch_error_quarantines_survivors_identical(self):
        _, _, baseline, base_order = _run(_spec("batched"))
        plan = FaultPlan(seed=5, rates={"batch_error": 0.2})
        platform, report, faulted, order = _run(_spec("pipelined"), plan=plan)
        assert set(faulted) == set(baseline)
        for key, (payload, tag, ok) in faulted.items():
            if ok:
                assert baseline[key] == (payload, tag, True)
        assert order == base_order
        assert report.quarantined > 0
        assert report.dead_lettered >= report.quarantined
        assert platform.comm.dead_letter

    def test_worker_crash_storm_degrades_and_completes(self, hang_guard):
        configs = [
            ChannelConfig(
                RadioStandard.WIFI,
                bytes(16),
                TrafficPattern.SATURATING,
                packets=64,
            )
        ]
        _, _, baseline, base_order = _run(
            _spec("batched", configs=configs)
        )
        plan = FaultPlan(scripted=(ScriptedFault("worker_crash", times=10**9),))
        backend = ProcessPoolBackend(2)
        backend.resilience = FAST
        try:
            with hang_guard(120.0):
                _, report, faulted, order = _run(
                    _spec("pipelined", backend=backend, configs=configs),
                    plan=plan,
                )
        finally:
            backend.close()
        assert faulted == baseline
        assert order == base_order
        assert report.degradations >= 1
        assert report.dead_lettered == 0


# -- flush_now as a pipeline barrier ------------------------------------------


def test_flush_now_reaps_all_in_flight():
    sim = Simulator()
    mccp = Mccp(sim)
    mccp.load_session_key(0, KEY)
    channel = mccp.open_channel(Algorithm.CCM, 0, tag_length=8)
    channel.flush_policy = FlushPolicy(coalesce_limit=8, flush_deadline=None)
    comm = CommController(sim, mccp)
    comm.pipeline_depth = 2
    total = 32
    packets = [
        Packet(channel.channel_id, b"", bytes([i]) * 128, sequence=i)
        for i in range(total)
    ]
    observed = {}
    done = sim.event("barrier")

    def proc():
        for packet in packets:
            comm.submit_job(channel, packet)
        observed["before"] = len(comm.completed)
        observed["returned"] = yield from comm.flush_now(channel)
        done.trigger()

    sim.add_process(proc())
    sim.run_until_event(done)
    # Size drains left up to pipeline_depth batches in flight; the
    # barrier returned exactly those, and afterwards nothing dangles.
    assert observed["before"] < total
    returned_sequences = [t.sequence for t in observed["returned"]]
    assert returned_sequences == list(range(observed["before"], total))
    assert len(comm.completed) == total
    assert [t.sequence for t in comm.completed.values()] == list(range(total))
    assert channel.in_flight == 0
    assert not comm._inflight.get(channel.channel_id)


# -- WorkloadSpec --------------------------------------------------------------


class TestWorkloadSpec:
    def test_run_workload_takes_only_a_spec(self):
        platform = SdrPlatform(core_count=4, seed=1)
        spec = WorkloadSpec(configs=tuple(_configs(packets=2)))
        with pytest.raises(TypeError, match="needs a WorkloadSpec"):
            platform.run_workload(_configs(packets=2))
        with pytest.raises(TypeError):
            platform.run_workload(spec, dataplane="batched")

    def test_spec_validates_dataplane_and_depth(self):
        with pytest.raises(ValueError, match="unknown dataplane"):
            WorkloadSpec(dataplane="gpu")
        with pytest.raises(ValueError, match="pipeline_depth"):
            WorkloadSpec(pipeline_depth=0)
        spec = WorkloadSpec(dataplane="pipelined", pipeline_depth=3)
        assert replace(spec, dataplane="batched").pipeline_depth == 3

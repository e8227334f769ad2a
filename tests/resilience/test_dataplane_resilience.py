"""End-to-end self-healing: dead letters, key retries, survivors.

The resilience invariant, asserted at the radio boundary: under any
injected fault plan, every packet of the fault-free run still
completes, survivors are byte-identical, and per-channel completion
order is preserved — failed packets land in a dead-letter queue with
the reason recorded, never vanish and never take batch-mates down.
"""

from __future__ import annotations

from repro.crypto.fast.exec import ProcessPoolBackend, ResiliencePolicy
from repro.mccp.channel import FlushPolicy
from repro.radio.sdr_platform import ChannelConfig, SdrPlatform, WorkloadSpec
from repro.radio.standards import RadioStandard
from repro.radio.traffic import TrafficPattern
from repro.resilience import FaultPlan, ScriptedFault, set_fault_plan

FLUSH = FlushPolicy(coalesce_limit=32, flush_deadline=8192)
FAST = ResiliencePolicy(max_retries=2, backoff_base=0.0, backoff_cap=0.0)


def _configs(packets=24):
    configs = []
    for index, standard in enumerate(
        (RadioStandard.WIFI, RadioStandard.SATCOM, RadioStandard.WIMAX)
    ):
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


def _run(plan, configs=None, backend=None, dataplane="batched", seed=17):
    previous = set_fault_plan(plan)
    try:
        platform = SdrPlatform(core_count=4, seed=seed)
        report = platform.run_workload(
            WorkloadSpec(
                configs or _configs(),
                dataplane=dataplane,
                flush_policy=FLUSH,
                backend=backend,
                rx_fraction=0.3,
                corrupt_rate=0.1,
            )
        )
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


def _assert_survivors_identical(baseline, faulted):
    assert set(faulted) == set(baseline)
    for key, (payload, tag, ok) in faulted.items():
        if ok:
            assert baseline[key] == (payload, tag, True)


class TestDeadLetterQueue:
    def test_poisoned_packets_route_to_dead_letters(self):
        _, base_report, baseline, base_order = _run(None)
        plan = FaultPlan(seed=5, rates={"batch_error": 0.2})
        platform, report, faulted, order = _run(plan)
        _assert_survivors_identical(baseline, faulted)
        assert order == base_order
        assert report.quarantined > 0
        assert report.dead_lettered >= report.quarantined
        # Dead letters are per-channel, reason-stamped, and excluded
        # from the auth-failure count.
        assert platform.comm.dead_letter
        for channel_id, transfers in platform.comm.dead_letter.items():
            for transfer in transfers:
                assert not transfer.ok
                assert transfer.extra["dead_letter"]
                assert not faulted[(channel_id, transfer.sequence)][2]
        assert report.auth_failures == base_report.auth_failures

    def test_scripted_single_packet_fault(self):
        _, _, baseline, _ = _run(None)
        plan = FaultPlan(
            scripted=(ScriptedFault("batch_error", channel=1, sequence=3),)
        )
        platform, report, faulted, _ = _run(plan)
        _assert_survivors_identical(baseline, faulted)
        assert report.quarantined == 1
        assert report.dead_lettered == 1
        assert [t.sequence for t in platform.comm.dead_letter[1]] == [3]
        channel = platform.mccp.scheduler.channels[1]
        assert len(channel.dead_letters) == 1
        assert channel.dead_letters[0].sequence == 3

    def test_key_error_exhaustion_dead_letters_the_batch(self):
        _, _, baseline, base_order = _run(None)
        # Every fetch attempt for channel 2 fails: retried, exhausted,
        # dead-lettered; the other channels are untouched.
        plan = FaultPlan(
            scripted=(ScriptedFault("key_error", channel=2, times=10**9),)
        )
        platform, report, faulted, order = _run(plan)
        _assert_survivors_identical(baseline, faulted)
        assert order == base_order
        assert report.retries > 0
        assert report.quarantined == 0
        assert report.dead_lettered > 0
        assert set(platform.comm.dead_letter) == {2}
        assert all(not faulted[(2, seq)][2] for seq in order[2])
        for channel_id in (0, 1):
            for seq in order[channel_id]:
                assert faulted[(channel_id, seq)] == baseline[(channel_id, seq)]

    def test_transient_key_error_recovers_without_drops(self):
        _, _, baseline, _ = _run(None)
        plan = FaultPlan(
            scripted=(ScriptedFault("key_error", channel=0, times=1),)
        )
        _, report, faulted, _ = _run(plan)
        assert faulted == baseline
        assert report.retries > 0
        assert report.dead_lettered == 0


class TestCoreStall:
    def test_stall_slows_but_never_corrupts(self):
        configs = _configs(packets=8)
        _, base_report, baseline, base_order = _run(
            None, configs=configs, dataplane="cores"
        )
        plan = FaultPlan(seed=6, rates={"core_stall": 0.4}, stall_cycles=4096)
        _, report, faulted, order = _run(
            plan, configs=configs, dataplane="cores"
        )
        assert faulted == baseline
        assert order == base_order
        assert report.faults_injected > 0
        assert report.total_cycles > base_report.total_cycles


class TestWorkerCrashAcceptance:
    def test_width_32_crash_storm_completes_via_degradation(self, hang_guard):
        """ISSUE 6 acceptance: a worker-crash injection at coalesce
        width 32 completes via backend degradation instead of raising."""
        configs = [
            ChannelConfig(
                RadioStandard.WIFI,
                bytes(16),
                TrafficPattern.SATURATING,
                packets=64,
            )
        ]
        _, _, baseline, base_order = _run(None, configs=configs)
        plan = FaultPlan(scripted=(ScriptedFault("worker_crash", times=10**9),))
        backend = ProcessPoolBackend(2)
        backend.resilience = FAST
        try:
            with hang_guard(120.0):
                _, report, faulted, order = _run(
                    plan, configs=configs, backend=backend
                )
        finally:
            backend.close()
        assert faulted == baseline
        assert order == base_order
        assert report.degradations >= 1
        assert any(
            reason.startswith("process -> inline")
            for reason in report.degradation_reasons
        )
        assert report.dead_lettered == 0

    def test_report_carries_resilience_counters(self):
        _, report, _, _ = _run(FaultPlan(seed=8, rates={"batch_error": 0.2}))
        assert report.faults_injected > 0
        assert report.quarantined == report.dead_lettered > 0
        assert report.degradation_reasons == []


class TestEnvSeeding:
    def test_repro_faults_env_drives_the_dataplane(self, monkeypatch):
        _, _, baseline, _ = _run(None)
        monkeypatch.setenv("REPRO_FAULTS", "batch_error=0.2,seed=5")
        set_fault_plan(None)  # next active_plan() re-reads the env
        try:
            platform, report, faulted, _ = _run(None)
        finally:
            set_fault_plan(None)
        _assert_survivors_identical(baseline, faulted)
        assert report.quarantined > 0
        assert platform.comm.dead_letter

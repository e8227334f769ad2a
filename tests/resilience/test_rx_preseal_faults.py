"""The peer radio's rx pre-seal is outside the fault domain.

``SdrPlatform._rx_plans`` seals every channel's rx packets in batch
calls before the replay starts.  A fault plan that poisons an rx
packet's nonce must not reach that seal: set-up builds the same rx
plans as without a plan, and the packet faults where a poisoned
packet always does — at dispatch, where it is quarantined and
dead-lettered while its batch-mates complete unchanged.
"""

from __future__ import annotations

from repro.radio.sdr_platform import ChannelConfig, SdrPlatform, WorkloadSpec
from repro.radio.standards import RadioStandard
from repro.radio.traffic import TrafficPattern
from repro.resilience import FaultPlan, set_fault_plan

#: One CCM channel and one GCM channel, both with rx traffic.
STANDARDS = (RadioStandard.WIFI, RadioStandard.SATCOM)


def _run(plan, monkeypatch):
    """Replay the workload under *plan*; returns the rx plans and outputs."""
    built = []
    original = SdrPlatform._rx_plans

    def recording(self, requests):
        all_plans = original(self, requests)
        for (channel, *_), plans in zip(requests, all_plans):
            built.append((channel.channel_id, plans))
        return all_plans

    monkeypatch.setattr(SdrPlatform, "_rx_plans", recording)
    configs = [
        ChannelConfig(
            standard,
            bytes([index + 1]) * (32 if standard is RadioStandard.SATCOM else 16),
            TrafficPattern.SATURATING,
            packets=16,
        )
        for index, standard in enumerate(STANDARDS)
    ]
    previous = set_fault_plan(plan)
    try:
        platform = SdrPlatform(seed=3)
        report = platform.run_workload(
            WorkloadSpec(configs, dataplane="batched", rx_fraction=0.5)
        )
    finally:
        set_fault_plan(previous)
        monkeypatch.undo()
    outputs = {
        (t.channel_id, t.sequence): (t.ok, t.payload, t.tag)
        for t in platform.comm.completed.values()
    }
    return built, platform, report, outputs


def test_poisoned_rx_nonce_faults_at_dispatch_not_in_preseal(monkeypatch):
    clean_plans, _, clean_report, clean = _run(None, monkeypatch)
    # One arriving rx packet per channel: CCM and GCM.
    victims = {}
    for channel_id, plans in clean_plans:
        sequence, rx = next(
            (seq, p) for seq, p in enumerate(plans) if p is not None and not p.lost
        )
        victims[(channel_id, sequence)] = rx.nonce
    plan = FaultPlan(seed=9)
    for nonce in victims.values():
        plan.poison(nonce)

    plans, platform, report, faulted = _run(plan, monkeypatch)

    assert plans == clean_plans
    assert report.quarantined == report.dead_lettered == len(victims)
    dead = {
        (channel_id, transfer.sequence)
        for channel_id, transfers in platform.comm.dead_letter.items()
        for transfer in transfers
    }
    assert dead == set(victims)
    assert set(faulted) == set(clean)
    for key, output in faulted.items():
        if key in victims:
            assert output[0] is False
        else:
            assert output == clean[key]
    assert report.auth_failures == clean_report.auth_failures

"""Overload protection: bounded queues, admission control, SLA budgets.

The invariant under test (pinned again in CI by ``overload_sweep`` and
``benchmarks/gate_overload.py``): at sustained >= 4x overload on
bounded channels the workload still completes without unbounded queue
growth; admitted packets are byte-identical to the same packets run
unthrottled; the shed set reproduces across repeats, dataplanes and
execution backends; and shed packets are accounted only as shed —
never as auth failures or dead letters.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import BackpressureError
from repro.experiments.scenarios.overload import (
    _configs,
    _spec,
    _transfers,
    run_overload_cell,
)
from repro.core.params import Direction
from repro.mccp.channel import Channel, FlushPolicy, PacketJob
from repro.radio.admission import AdmissionPolicy
from repro.radio.sdr_platform import SdrPlatform, WorkloadSpec

CAPACITY = 4
PACKETS = 16
SEED = 9


def _run(spec, seed=SEED):
    platform = SdrPlatform(core_count=4, seed=seed)
    return platform, platform.run_workload(spec)


def _channel(**kwargs):
    from repro.core.params import Algorithm

    return Channel(
        channel_id=kwargs.pop("channel_id", 3),
        algorithm=Algorithm.GCM,
        key_id=0,
        key_bits=128,
        **kwargs,
    )


def _job(sequence=0):
    return PacketJob(
        direction=Direction.ENCRYPT,
        nonce=bytes(13),
        data=b"payload",
        sequence=sequence,
    )


class TestBoundedQueues:
    def test_enqueue_at_watermark_raises_typed_signal(self):
        channel = _channel(capacity=2)
        channel.enqueue(_job(0))
        channel.enqueue(_job(1))
        with pytest.raises(BackpressureError):
            channel.enqueue(_job(2))
        assert channel.under_pressure
        assert channel.stats["backpressure_signals"] == 1
        assert channel.pending_count == 2  # the refused job never queued

    def test_pressure_clears_at_the_low_watermark(self):
        channel = _channel(capacity=2, low_watermark=0)
        channel.enqueue(_job(0))
        channel.enqueue(_job(1))
        assert channel.under_pressure
        channel.take_batch()  # drains everything (coalesce default > 2)
        assert not channel.under_pressure

    def test_low_watermark_defaults_to_half_capacity(self):
        assert _channel(capacity=8).effective_low_watermark == 4
        assert (
            _channel(capacity=8, low_watermark=2).effective_low_watermark == 2
        )

    def test_bounded_run_without_admission_completes_via_retries(self):
        spec = replace(_spec(_configs("saturating", PACKETS), CAPACITY,
                             None, "batched"), admission=None)
        _, report = _run(spec)
        assert report.packets_done == 3 * PACKETS  # nothing shed
        assert report.shed == 0
        assert report.backpressure_retries > 0
        assert report.backpressure_signals > 0
        assert report.queue_peak() <= CAPACITY

    def test_queue_peak_never_exceeds_watermark(self):
        spec = _spec(_configs("saturating", PACKETS), CAPACITY,
                     None, "batched")
        _, report = _run(spec)
        assert 0 < report.queue_peak() <= CAPACITY


class TestSustainedOverload:
    def test_offered_load_is_at_least_4x_the_watermark(self):
        # The same storm on unbounded queues: the backlog the bounded
        # run must absorb grows to >= 4x the watermark it is held to.
        spec = _spec(_configs("saturating", 24), None, None, "batched")
        _, report = _run(spec)
        assert report.queue_peak() >= 4 * CAPACITY

    def test_cell_invariant_holds_and_sheds_bulk_first(self):
        # run_overload_cell hard-fails (ExperimentError) on any broken
        # invariant: queue growth, shed accounting, byte identity,
        # per-channel order, shed reproducibility, the SLA.
        metrics = run_overload_cell(
            "saturating", CAPACITY, None, SEED, packets=PACKETS
        )
        assert metrics["admitted"] + metrics["shed"] == metrics["offered"]
        assert metrics["shed"] > 0
        assert metrics["shed_control"] == 0
        assert metrics["shed_bulk"] >= metrics["shed_interactive"]
        assert metrics["sla_holds"] and metrics["bytes_identical"]


class TestShedDeterminism:
    def test_shed_set_reproduces_across_repeats_and_dataplanes(self):
        spec = _spec(_configs("saturating", PACKETS), CAPACITY,
                     None, "batched")
        _, first = _run(spec)
        _, again = _run(spec)
        _, piped = _run(replace(spec, dataplane="pipelined"))
        assert first.shed > 0
        assert first.shed_packets == again.shed_packets
        assert first.shed_packets == piped.shed_packets

    def test_shed_set_identical_across_execution_backends(self):
        spec = _spec(_configs("saturating", PACKETS), CAPACITY,
                     None, "batched")
        shed = {}
        for backend in ("inline", "process:2"):
            _, report = _run(replace(spec, backend=backend))
            shed[backend] = report.shed_packets
        assert shed["inline"] == shed["process:2"]
        assert len(shed["inline"]) > 0


class TestShedAccounting:
    def test_shed_is_its_own_budget(self):
        spec = _spec(_configs("saturating", PACKETS), CAPACITY,
                     None, "batched")
        _, report = _run(spec)
        assert report.shed > 0
        assert report.auth_failures == 0
        assert report.dead_lettered == 0
        assert report.packets_done + report.shed == 3 * PACKETS
        assert sum(report.shed_by_class.values()) == report.shed
        assert sum(report.shed_causes.values()) == report.shed
        assert len(report.shed_packets) == report.shed

    def test_admitted_packets_match_unthrottled_bytes(self):
        configs = _configs("saturating", PACKETS)
        base_platform, _ = _run(_spec(configs, None, None, "batched"))
        base_bytes, base_order = _transfers(base_platform)
        platform, report = _run(
            _spec(configs, CAPACITY, None, "batched")
        )
        got_bytes, got_order = _transfers(platform)
        shed = set(report.shed_packets)
        for key, payload_tag in got_bytes.items():
            assert payload_tag == base_bytes[key]
        for channel_id, base_seq in base_order.items():
            expected = [s for s in base_seq if (channel_id, s) not in shed]
            assert got_order.get(channel_id, []) == expected


class TestAdmissionPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"rate_per_kcycle": 0.0}, "rate_per_kcycle"),
            ({"burst": 0}, "burst"),
            ({"defer_cycles": 0}, "defer_cycles"),
            ({"max_defers": -1}, "max_defers"),
            (
                {"protect_priority": 2, "shed_first_priority": 2},
                "shed_first_priority",
            ),
        ],
    )
    def test_bad_knobs_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            AdmissionPolicy(**kwargs)


class TestFlushPolicyValidation:
    def test_negative_coalesce_limit_rejected(self):
        with pytest.raises(ValueError, match="coalesce_limit must be >= 0"):
            FlushPolicy(coalesce_limit=-1)

    def test_negative_flush_deadline_rejected(self):
        with pytest.raises(
            ValueError, match="flush_deadline must be >= 0 or None"
        ):
            FlushPolicy(flush_deadline=-4096)

    def test_zero_coalesce_limit_still_clamps_to_one(self):
        # Documented floor ("dispatch immediately"), not an error.
        assert FlushPolicy(coalesce_limit=0).coalesce_limit == 1

    def test_none_deadline_still_allowed(self):
        assert FlushPolicy(flush_deadline=None).flush_deadline is None


class TestSpecValidation:
    def test_queue_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="queue_capacity"):
            WorkloadSpec(configs=(), queue_capacity=0)


class TestPerConfigCapacity:
    """Per-config queue capacities under the pipelined dataplane."""

    def test_pipelined_run_holds_per_config_watermarks(self):
        configs = [
            replace(config, queue_capacity=CAPACITY)
            for config in _configs("saturating", PACKETS)
        ]
        spec = WorkloadSpec(
            configs,
            dataplane="pipelined",
            flush_policy=FlushPolicy(coalesce_limit=4, flush_deadline=4096),
        )
        _, report = _run(spec)
        _, again = _run(spec)
        assert report.backpressure_signals > 0
        assert report.backpressure_retries > 0
        assert report.queue_peak() <= CAPACITY
        assert report.packets_done == again.packets_done == 3 * PACKETS
        assert report.total_cycles == again.total_cycles
        assert report.latencies == again.latencies

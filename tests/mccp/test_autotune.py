"""The adaptive flush controller (``FlushPolicy(mode="auto")``).

Contracts under test, mirroring the ``autotune_sweep`` scenario's hard
gates at unit granularity:

- :func:`decide_knobs` is a pure function: widen only under genuine
  saturation, retarget the deadline only outside the hysteresis band,
  hold otherwise — identical inputs always yield identical knobs.
- The per-channel controller converges: on a steady profile the
  decision trace settles (no oscillation) within a few windows, and
  repeats with the same seed reproduce the trace exactly across the
  inline and process execution backends.
- Auto never changes payload bytes relative to a static policy, and on
  a saturating profile it widens and never trails the static defaults
  on simulated cycles.
- The workload-level advisor is deterministic in ``(profile,
  cpu_count)`` and sends only sustained bulk traffic on a 4+ CPU host
  to the arena process pool.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import pytest

from repro.experiments.scenarios.autotune import _profile_configs
from repro.mccp.autotune import (
    AutotuneConfig,
    FlushController,
    TrafficProfile,
    WindowStats,
    advise_backend,
    decide_knobs,
)
from repro.mccp.channel import FlushPolicy
from repro.radio.sdr_platform import (
    ChannelConfig,
    SdrPlatform,
    WorkloadSpec,
    _traffic_profile,
)
from repro.radio.standards import RadioStandard
from repro.radio.traffic import TrafficPattern

CONFIG = AutotuneConfig()


def _stats(**overrides) -> WindowStats:
    base = dict(window_index=0, start_cycle=0, end_cycle=8192)
    base.update(overrides)
    return WindowStats(**base)


class TestDecideKnobs:
    def test_idle_window_holds(self):
        limit, deadline, cause = decide_knobs(
            0, _stats(), 32, 8192, CONFIG
        )
        assert (limit, deadline, cause) == (32, 8192, "hold:idle")

    def test_widens_under_saturation(self):
        stats = _stats(jobs=96, dispatches=3, dispatched_jobs=96,
                       size_flushes=3, queue_peak=80)
        limit, deadline, cause = decide_knobs(0, stats, 32, 8192, CONFIG)
        assert (limit, deadline) == (64, 8192)
        assert cause == "widen:saturated"

    def test_widen_needs_deep_queue(self):
        # Size flushes alone are healthy coalescing, not saturation:
        # the queue must outrun the width 2x before widening.
        stats = _stats(jobs=40, dispatches=1, dispatched_jobs=32,
                       size_flushes=1, queue_peak=40)
        limit, _, cause = decide_knobs(0, stats, 32, 8192, CONFIG)
        assert limit == 32
        assert cause == "hold:steady"

    def test_widen_caps_at_max_coalesce(self):
        stats = _stats(jobs=600, dispatches=4, dispatched_jobs=512,
                       size_flushes=4, queue_peak=512)
        limit, _, cause = decide_knobs(0, stats, 96, 8192, CONFIG)
        assert limit == CONFIG.max_coalesce
        assert cause == "widen:saturated"
        held, _, held_cause = decide_knobs(
            0, stats, CONFIG.max_coalesce, 8192, CONFIG
        )
        assert held == CONFIG.max_coalesce
        assert held_cause == "hold:steady"

    def test_deadline_retargets_on_idle_dominated_traffic(self):
        stats = _stats(jobs=4, dispatches=4, dispatched_jobs=4,
                       deadline_flushes=4, queue_peak=1,
                       max_cluster_span=10)
        limit, deadline, cause = decide_knobs(0, stats, 32, 8192, CONFIG)
        assert limit == 32
        assert deadline == 20  # 2x the widest arrival cluster
        assert cause == "deadline:retarget"

    def test_deadline_hysteresis_band_holds(self):
        # A target inside [deadline // 2, deadline * 2] is close
        # enough: retuning would only oscillate.
        stats = _stats(jobs=4, dispatches=4, dispatched_jobs=4,
                       deadline_flushes=4, max_cluster_span=3000)
        _, deadline, cause = decide_knobs(0, stats, 32, 8192, CONFIG)
        assert deadline == 8192
        assert cause == "hold:steady"

    def test_deadline_respects_ceiling_and_none(self):
        stats = _stats(jobs=4, dispatches=4, dispatched_jobs=4,
                       deadline_flushes=4, max_cluster_span=10 ** 9)
        _, deadline, _ = decide_knobs(0, stats, 32, 2, CONFIG)
        assert deadline == CONFIG.deadline_ceiling
        # No deadline at all -> nothing to retarget.
        _, kept, cause = decide_knobs(
            0, _stats(jobs=4, dispatches=4, dispatched_jobs=4,
                      deadline_flushes=4),
            32, None, CONFIG,
        )
        assert kept is None
        assert cause == "hold:steady"

    def test_pure_function(self):
        stats = _stats(jobs=96, dispatches=3, dispatched_jobs=96,
                       size_flushes=3, queue_peak=80)
        first = decide_knobs(7, stats, 32, 8192, CONFIG)
        assert all(
            decide_knobs(7, stats, 32, 8192, CONFIG) == first
            for _ in range(5)
        )


class TestConfigValidation:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError, match="window_cycles"):
            AutotuneConfig(window_cycles=0)
        with pytest.raises(ValueError, match="max_coalesce"):
            AutotuneConfig(max_coalesce=0)
        with pytest.raises(ValueError, match="deadline bounds"):
            AutotuneConfig(deadline_floor=100, deadline_ceiling=10)

    def test_workload_spec_normalizes_autotune(self):
        config = ChannelConfig(
            RadioStandard.WIFI, bytes(16), TrafficPattern.CBR, packets=1
        )
        assert WorkloadSpec(configs=(config,)).autotune is None
        assert WorkloadSpec(configs=(config,), autotune=False).autotune is None
        spec = WorkloadSpec(configs=(config,), autotune=True)
        assert spec.autotune == AutotuneConfig()
        custom = AutotuneConfig(window_cycles=1024)
        assert WorkloadSpec(
            configs=(config,), autotune=custom
        ).autotune is custom
        with pytest.raises(TypeError, match="autotune must be"):
            WorkloadSpec(configs=(config,), autotune="yes")


@dataclass
class _Job:
    data: bytes
    priority: int = 1


class _FakeChannel:
    """Just enough channel for the controller's observation hooks."""

    def __init__(self, policy: FlushPolicy):
        self.flush_policy = policy
        self.pending_count = 0


class TestFlushControllerWindows:
    def test_steady_deadline_traffic_settles_without_oscillation(self):
        policy = FlushPolicy()  # 32 / 8192
        channel = _FakeChannel(policy)
        controller = FlushController(1, seed=0)
        now = 0
        for _ in range(16):
            channel.pending_count = 1
            controller.observe_enqueue(channel, _Job(b"x" * 160), now)
            channel.pending_count = 0
            controller.observe_flush(channel, "deadline", 1, now + policy.flush_deadline)
            now += 40_000
        assert len(controller.trace) >= 10
        # One retarget toward same-cycle flushing, then holds forever.
        assert policy.flush_deadline == 0
        assert controller.adjustments == 1
        assert controller.settled(3)
        causes = [d.cause for d in controller.trace]
        assert causes.count("deadline:retarget") == 1
        assert policy.coalesce_limit == 32  # width never narrows

    def test_saturated_windows_widen_to_cap(self):
        policy = FlushPolicy(coalesce_limit=32, flush_deadline=None)
        channel = _FakeChannel(policy)
        controller = FlushController(2, seed=0)
        now = 0
        for _ in range(4):
            for _ in range(3):
                channel.pending_count = 4 * policy.coalesce_limit
                controller.observe_flush(
                    channel, "size", policy.coalesce_limit, now
                )
                now += 4000
        assert policy.coalesce_limit == CONFIG.max_coalesce
        widens = [d for d in controller.trace if d.cause == "widen:saturated"]
        assert len(widens) == 2  # 32 -> 64 -> 128
        # The trace records knobs before and after every decision.
        assert widens[0].coalesce_before == 32
        assert widens[0].coalesce_after == 64

    def test_trace_dicts_are_json_safe(self):
        import json

        policy = FlushPolicy()
        channel = _FakeChannel(policy)
        controller = FlushController(3, seed=5)
        channel.pending_count = 1
        controller.observe_enqueue(channel, _Job(b"y" * 64, priority=0), 0)
        controller.observe_enqueue(channel, _Job(b"y" * 64), 9000)
        assert len(controller.trace) == 1
        entry = json.loads(json.dumps(controller.trace_dicts()))[0]
        assert entry["cause"] == "hold:steady"
        assert entry["jobs"] == 1
        assert entry["class_mix"] == {"0": 1}
        assert entry["coalesce_before"] == entry["coalesce_after"] == 32


def _steady_configs(packets=10, channels=2):
    return tuple(
        ChannelConfig(
            RadioStandard.WIFI,
            bytes([index] * 16),
            TrafficPattern.CBR,
            packets=packets,
        )
        for index in range(channels)
    )


def _saturating_configs(packets=96, channels=2):
    return tuple(
        ChannelConfig(
            RadioStandard.SATCOM,
            bytes([index] * 32),
            TrafficPattern.SATURATING,
            packets=packets,
        )
        for index in range(channels)
    )


def _run(configs, seed=11, backend=None, autotune=None, policy=None):
    platform = SdrPlatform(core_count=4, seed=seed)
    report = platform.run_workload(
        WorkloadSpec(
            configs=configs,
            dataplane="batched",
            flush_policy=policy,
            backend=backend,
            autotune=autotune,
        )
    )
    digest = hashlib.sha256()
    for key in sorted(
        platform.comm.completed,
        key=lambda k: (
            platform.comm.completed[k].channel_id,
            platform.comm.completed[k].sequence,
        ),
    ):
        transfer = platform.comm.completed[key]
        digest.update(transfer.payload)
        digest.update(transfer.tag or b"")
    return report, digest.hexdigest()


class TestWorkloadIntegration:
    def test_steady_profile_traces_settle_and_reproduce(self):
        report, _ = _run(_steady_configs(), autotune=True)
        assert report.autotune_traces
        for trace in report.autotune_traces.values():
            assert len(trace) >= 5
            changed = [
                entry for entry in trace
                if entry["coalesce_before"] != entry["coalesce_after"]
                or entry["deadline_before"] != entry["deadline_after"]
            ]
            # Every change lands in the first windows; the tail holds.
            tail = trace[3:]
            assert all(
                entry["coalesce_before"] == entry["coalesce_after"]
                and entry["deadline_before"] == entry["deadline_after"]
                for entry in tail
            )
            assert changed, "steady CBR should retarget the deadline once"
        repeat, _ = _run(_steady_configs(), autotune=True)
        assert repeat.autotune_traces == report.autotune_traces

    @pytest.mark.parametrize("backend", ["process"])
    def test_traces_identical_across_backends(self, backend):
        inline_report, inline_digest = _run(_steady_configs(), autotune=True)
        pooled_report, pooled_digest = _run(
            _steady_configs(), backend=backend, autotune=True
        )
        assert pooled_report.autotune_traces == inline_report.autotune_traces
        assert pooled_report.autotune_adjustments == (
            inline_report.autotune_adjustments
        )
        assert pooled_digest == inline_digest
        assert pooled_report.total_cycles == inline_report.total_cycles

    def test_auto_matches_static_bytes_and_never_trails_default(self):
        static_report, static_digest = _run(
            _saturating_configs(), policy=FlushPolicy()
        )
        auto_report, auto_digest = _run(_saturating_configs(), autotune=True)
        assert auto_digest == static_digest
        assert auto_report.payload_bytes == static_report.payload_bytes
        assert auto_report.total_cycles <= static_report.total_cycles

    def test_saturating_profile_widens(self):
        report, _ = _run(_saturating_configs(), autotune=True)
        assert report.autotune_adjustments >= 1
        causes = [
            entry["cause"]
            for trace in report.autotune_traces.values()
            for entry in trace
        ]
        assert "widen:saturated" in causes

    def test_fixed_policy_attaches_no_controller(self):
        report, _ = _run(_steady_configs(), policy=FlushPolicy())
        assert report.autotune_traces == {}
        assert report.autotune_adjustments == 0

    def test_advisor_fields_land_in_report(self):
        report, _ = _run(
            _steady_configs(),
            autotune=AutotuneConfig(advise_backend=True, cpu_count=1),
        )
        assert report.autotune_backend == "inline"
        assert report.autotune_policy == "inline-small"
        assert report.autotune_pipeline_depth == 1


class TestBackendAdvisor:
    def test_single_cpu_always_inline(self):
        profile = TrafficProfile(
            channels=8, total_packets=10 ** 6, mean_packet_bytes=2048.0,
            sustained_fraction=1.0, control_fraction=0.0,
        )
        advice = advise_backend(profile, cpu_count=1)
        assert advice.backend == "inline"
        assert advice.pipeline_depth == 1

    def test_sustained_bulk_on_big_host_picks_arena(self):
        profile = TrafficProfile(
            channels=8, total_packets=10 ** 6, mean_packet_bytes=2048.0,
            sustained_fraction=1.0, control_fraction=0.0,
        )
        advice = advise_backend(profile, cpu_count=8)
        assert advice.backend == "process-arena"
        assert advice.pipeline_depth == 4
        assert advice.policy == "process-arena-bulk"

    def test_small_workload_stays_inline_anywhere(self):
        profile = TrafficProfile(
            channels=1, total_packets=4, mean_packet_bytes=160.0,
            sustained_fraction=0.0, control_fraction=1.0,
        )
        assert advise_backend(profile, cpu_count=16).backend == "inline"

    def test_deterministic_given_profile_and_cpus(self):
        profile = _traffic_profile(_saturating_configs())
        assert profile.sustained_fraction == 1.0
        assert profile.mean_packet_bytes == 2048.0
        first = advise_backend(profile, cpu_count=4)
        assert all(
            advise_backend(profile, cpu_count=4) == first for _ in range(3)
        )
        assert (first.backend, first.pipeline_depth) == ("process-arena", 4)

    @pytest.mark.parametrize("quick", [True, False])
    def test_scenario_profiles_pick_by_traffic_shape(self, quick):
        picks = {
            name: advise_backend(
                _traffic_profile(_profile_configs(name, 3, quick)),
                cpu_count=4,
            ).backend
            for name in ("steady", "bursty", "mixed")
        }
        assert picks == {
            "steady": "inline",
            "bursty": "inline",
            "mixed": "process-arena",
        }

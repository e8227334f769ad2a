"""The session layer: plans, arrivals, rekey/handoff, determinism."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.throughput import ClassSla, SlaSpec
from repro.crypto.fast.exec import ProcessPoolBackend
from repro.mccp.channel import FlushPolicy
from repro.radio.admission import AdmissionPolicy
from repro.radio.sdr_platform import ChannelConfig, SdrPlatform, WorkloadSpec
from repro.radio.sessions import (
    DEFAULT_MIX,
    PriorityClass,
    SessionManager,
    SessionProfile,
    SessionWorkload,
    build_session_plans,
    run_sessions,
    session_key_material,
)
from repro.radio.standards import RadioStandard
from repro.radio.traffic import TrafficPattern
from repro.resilience import stats

#: Small-but-real storm the execution tests share.
STORM = SessionWorkload(sessions=10, horizon_cycles=40_000)
SEED = 7


def _single_profile_mix(**overrides):
    profile = SessionProfile(
        name="solo",
        standard=RadioStandard.WIFI,
        priority=PriorityClass.INTERACTIVE,
        packets_mean=10,
        packet_gap_cycles=2_000,
        **overrides,
    )
    return (profile,)


def _transfers(manager):
    return {
        (t.channel_id, t.sequence): (t.payload, t.tag)
        for t in manager.platform.comm.completed.values()
    }


class TestValidation:
    def test_ctr_standard_rejected_from_the_mix(self):
        # UMTS-like is a CTR stream: no tag, not batchable, and the
        # session layer rides the batched dataplane.
        with pytest.raises(ValueError, match="AEAD standards only"):
            SessionProfile(
                name="stream",
                standard=RadioStandard.UMTS_LIKE,
                priority=PriorityClass.BULK,
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"weight": 0.0},
            {"packets_mean": 0},
            {"packet_gap_cycles": 0},
            {"rekey_interval": 0},
            {"handoff_fraction": 1.5},
        ],
    )
    def test_bad_profile_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SessionProfile(
                name="bad",
                standard=RadioStandard.WIFI,
                priority=PriorityClass.BULK,
                **kwargs,
            )

    def test_cores_dataplane_rejected(self):
        with pytest.raises(ValueError, match="batched or pipelined"):
            SessionWorkload(dataplane="cores")

    def test_unknown_arrival_rejected(self):
        with pytest.raises(ValueError, match="unknown arrival profile"):
            SessionWorkload(arrival="flat")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sessions": 0},
            {"horizon_cycles": 0},
            {"mix": ()},
            {"pipeline_depth": 0},
            {"queue_capacity": 0},
            {"key_bytes": 20},
        ],
    )
    def test_bad_workload_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SessionWorkload(**kwargs)


class TestPlans:
    def test_plans_are_a_pure_function_of_workload_and_seed(self):
        assert build_session_plans(STORM, SEED) == build_session_plans(
            STORM, SEED
        )
        assert build_session_plans(STORM, SEED) != build_session_plans(
            STORM, SEED + 1
        )

    @pytest.mark.parametrize("arrival", ["poisson", "bursty", "diurnal"])
    def test_arrivals_are_ordered_and_inside_the_horizon(self, arrival):
        plans = build_session_plans(
            replace(STORM, arrival=arrival, sessions=40), SEED
        )
        cycles = [p.arrival_cycle for p in plans]
        assert cycles == sorted(cycles)
        assert all(0 < c <= STORM.horizon_cycles for c in cycles)

    def test_every_plan_carries_at_least_one_packet(self):
        for plan in build_session_plans(replace(STORM, sessions=64), SEED):
            assert plan.total_packets >= 1
            assert [s.segment for s in plan.segments] in ([0], [0, 1])

    def test_key_material_is_deterministic_and_epoch_sensitive(self):
        a = session_key_material(SEED, 3, 0, 0)
        assert a == session_key_material(SEED, 3, 0, 0)
        assert len(a) == 16
        assert a != session_key_material(SEED, 3, 0, 1)  # epoch
        assert a != session_key_material(SEED, 4, 0, 0)  # session
        assert a != session_key_material(SEED + 1, 3, 0, 0)  # seed
        assert len(session_key_material(SEED, 3, 0, 0, key_bytes=32)) == 32


class TestProvisioning:
    def test_every_planned_segment_is_pre_opened(self):
        manager = SessionManager.provisioned(STORM, seed=SEED)
        plans = build_session_plans(STORM, SEED)
        expected = {
            (p.sid, s.segment) for p in plans for s in p.segments
        }
        assert set(manager.channels) == expected
        assert all(c.is_open for c in manager.channels.values())

    def test_channel_ids_do_not_depend_on_throttling(self):
        plain = SessionManager.provisioned(STORM, seed=SEED)
        throttled = SessionManager.provisioned(
            replace(
                STORM,
                queue_capacity=4,
                admission=AdmissionPolicy(defer_cycles=400, max_defers=32),
            ),
            seed=SEED,
        )
        assert {
            key: channel.channel_id for key, channel in plain.channels.items()
        } == {
            key: channel.channel_id
            for key, channel in throttled.channels.items()
        }

    def test_every_channel_runs_the_workloads_policy(self):
        """The workload's frozen policy reaches every session channel, and
        running it leaves nothing for a replay to inherit."""
        policy = FlushPolicy(coalesce_limit=3, flush_deadline=600)
        workload = replace(STORM, flush_policy=policy, queue_capacity=6)
        first = SessionManager.provisioned(workload, seed=SEED)
        assert all(
            channel.flush_policy is policy for channel in first.channels.values()
        )
        report = first.run()
        assert report.flush_causes
        again = SessionManager.provisioned(workload, seed=SEED).run()
        assert again == report


class TestExecution:
    def test_storm_runs_to_teardown_and_reproduces(self):
        first = run_sessions(STORM, seed=SEED)
        again = run_sessions(STORM, seed=SEED)
        assert first.sessions_started == STORM.sessions
        assert first.sessions_completed == STORM.sessions
        assert first.packets_done > 0
        assert first.packets_done == again.packets_done
        assert first.total_cycles == again.total_cycles
        assert first.latencies == again.latencies

    def test_batched_and_pipelined_agree(self):
        batched = run_sessions(STORM, seed=SEED)
        piped = run_sessions(
            replace(STORM, dataplane="pipelined"), seed=SEED
        )
        assert piped.packets_done == batched.packets_done
        assert piped.payload_bytes == batched.payload_bytes
        assert piped.total_cycles == batched.total_cycles

    def test_counters_match_the_plan(self):
        plans = build_session_plans(STORM, SEED)
        report = run_sessions(STORM, seed=SEED)
        expected_handoffs = sum(
            1 for p in plans if len(p.segments) == 2
        )
        expected_rekeys = sum(
            (p.total_packets - 1) // p.profile.rekey_interval
            for p in plans
            if p.profile.rekey_interval is not None
        )
        assert report.handoffs == expected_handoffs
        assert report.rekeys == expected_rekeys
        assert report.packets_done == sum(p.total_packets for p in plans)

    def test_rekey_changes_the_bytes_on_the_air(self):
        base = replace(
            STORM, sessions=4, mix=_single_profile_mix(rekey_interval=None)
        )
        rekeyed = replace(
            base, mix=_single_profile_mix(rekey_interval=4)
        )
        manager_a = SessionManager.provisioned(base, seed=SEED)
        manager_a.run()
        manager_b = SessionManager.provisioned(rekeyed, seed=SEED)
        report_b = manager_b.run()
        a, b = _transfers(manager_a), _transfers(manager_b)
        # Same storm shape (the rekey knob does not perturb the plan)...
        assert set(a) == set(b)
        assert report_b.rekeys > 0
        # ...epoch-0 packets identical, post-rekey packets re-secured
        # under fresh material.
        assert any(a[key] == b[key] for key in a)
        assert any(a[key] != b[key] for key in a)
        assert report_b.auth_failures == 0

    def test_a_second_storm_on_one_platform_matches_a_fresh_one(self):
        # The cycle budget covers one storm (about 88,000 cycles) but not
        # two back to back, so the second run's budget must start at its
        # own start cycle.
        workload = replace(STORM, sessions=4, limit=100_000)
        fresh = run_sessions(workload, seed=SEED)
        manager = SessionManager.provisioned(workload, seed=SEED)
        manager.run()
        again = SessionManager(manager.platform, workload, seed=SEED).run()
        assert again.total_cycles == fresh.total_cycles
        assert sorted(again.latencies) == sorted(fresh.latencies)
        assert again.packets_done == fresh.packets_done


class TestOverloadedSessions:
    def test_shedding_protects_control_and_reproduces(self):
        protected = replace(
            STORM,
            sessions=16,
            arrival="bursty",
            queue_capacity=4,
            admission=AdmissionPolicy(defer_cycles=400, max_defers=32),
        )
        first = run_sessions(protected, seed=SEED)
        again = run_sessions(protected, seed=SEED)
        piped = run_sessions(
            replace(protected, dataplane="pipelined"), seed=SEED
        )
        assert first.sessions_completed == protected.sessions
        assert first.queue_peak() <= 4
        assert first.shed_by_class.get(int(PriorityClass.CONTROL), 0) == 0
        assert first.shed_packets == again.shed_packets
        assert first.shed_packets == piped.shed_packets
        assert first.auth_failures == 0 and first.dead_lettered == 0

    def test_control_class_sla_holds_under_pressure(self):
        protected = replace(
            STORM,
            sessions=16,
            arrival="bursty",
            queue_capacity=4,
            admission=AdmissionPolicy(defer_cycles=400, max_defers=32),
        )
        report = run_sessions(protected, seed=SEED)
        spec = SlaSpec(
            classes={
                int(PriorityClass.CONTROL): ClassSla(
                    p99_us=10_000.0, max_drop_fraction=0.0
                )
            },
            max_auth_failures=0,
            max_dead_lettered=0,
        )
        assert report.check_sla(spec) == []
        summary = report.sla_summary()
        assert "control" in summary or report.per_class_latencies


def test_default_mix_covers_all_three_classes():
    assert {int(p.priority) for p in DEFAULT_MIX} == {0, 1, 2}


class TestCommState:
    def test_session_report_counts_the_run_backends_expansions(self):
        """The report's key-schedule expansions are the ones the workers
        of the backend the storm dispatched to reported during the run,
        not the platform's own backend's."""
        backend = ProcessPoolBackend(2)
        try:
            workload = replace(STORM, sessions=6, backend=backend)
            manager = SessionManager.provisioned(workload, seed=SEED)
            with stats.counting() as counters:
                report = manager.run()
        finally:
            backend.close()
        assert counters["key_schedule_expansions"] > 0
        assert report.key_schedule_expansions == counters["key_schedule_expansions"]

    @pytest.mark.parametrize("caller", ["run_workload", "sessions"])
    def test_a_run_that_raises_restores_comm_state(self, caller, monkeypatch):
        if caller == "run_workload":
            platform = SdrPlatform(seed=SEED)
            spec = WorkloadSpec(
                configs=(
                    ChannelConfig(
                        RadioStandard.WIFI, bytes(16),
                        TrafficPattern.SATURATING, packets=4,
                    ),
                ),
                dataplane="pipelined",
                backend="inline",
                pipeline_depth=3,
            )

            def run():
                return platform.run_workload(spec)
        else:
            workload = replace(
                STORM, dataplane="pipelined", backend="inline",
                pipeline_depth=3,
            )
            manager = SessionManager.provisioned(workload, seed=SEED)
            platform = manager.platform
            run = manager.run
        comm = platform.comm
        saved = (comm.backend, comm.pipeline_depth)
        during = {}

        def boom(event, limit=None):
            during["state"] = (comm.backend, comm.pipeline_depth)
            raise RuntimeError("run aborted")

        monkeypatch.setattr(platform.sim, "run_until_event", boom)
        with pytest.raises(RuntimeError, match="run aborted"):
            run()
        assert during["state"] == ("inline", 3)
        assert (comm.backend, comm.pipeline_depth) == saved

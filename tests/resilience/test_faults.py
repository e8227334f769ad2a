"""Fault plans: determinism, scripting, poison, env seeding."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import WorkerCrashError
from repro.resilience import (
    SITES,
    FaultPlan,
    FaultPoint,
    ScriptedFault,
    active_plan,
    injected_faults,
    plan_from_spec,
    set_fault_plan,
    stats,
)
from repro.resilience.faults import executing


class TestDecide:
    def test_pure_function_of_seed_site_key_attempt(self):
        plan = FaultPlan(seed=7, rates={"worker_crash": 0.5})
        first = [plan.decide("worker_crash", (0, i)) for i in range(64)]
        again = [plan.decide("worker_crash", (0, i)) for i in range(64)]
        assert first == again
        assert any(first) and not all(first)

    def test_distinct_seeds_give_distinct_schedules(self):
        a = FaultPlan(seed=1, rates={"batch_error": 0.5})
        b = FaultPlan(seed=2, rates={"batch_error": 0.5})
        keys = [(0, i) for i in range(128)]
        assert [a.decide("batch_error", k) for k in keys] != [
            b.decide("batch_error", k) for k in keys
        ]

    def test_attempt_rerolls_the_decision(self):
        plan = FaultPlan(seed=3, rates={"worker_crash": 0.5})
        decisions = {
            plan.decide("worker_crash", (1, 1), attempt) for attempt in range(16)
        }
        assert decisions == {True, False}

    def test_rate_zero_never_fires_rate_one_always(self):
        plan = FaultPlan(seed=0, rates={"slow_sweep": 1.0})
        assert plan.decide("slow_sweep", (9, 9))
        assert not plan.decide("worker_hang", (9, 9))

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan(rates={"meteor_strike": 0.5})
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan(scripted=(ScriptedFault("meteor_strike"),))

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="within"):
            FaultPlan(rates={"worker_crash": 1.5})


class TestScripted:
    def test_exact_channel_sequence_match(self):
        plan = FaultPlan(
            scripted=(ScriptedFault("batch_error", channel=2, sequence=5),)
        )
        assert plan.decide("batch_error", (2, 5))
        assert not plan.decide("batch_error", (2, 6))
        assert not plan.decide("batch_error", (3, 5))
        assert not plan.decide("worker_crash", (2, 5))

    def test_wildcards(self):
        plan = FaultPlan(scripted=(ScriptedFault("key_error", channel=1),))
        assert plan.decide("key_error", (1, 0))
        assert plan.decide("key_error", (1, 99))
        assert not plan.decide("key_error", (0, 0))

    def test_times_bounds_attempts(self):
        plan = FaultPlan(scripted=(ScriptedFault("worker_crash", times=2),))
        assert plan.decide("worker_crash", (0, 0), attempt=0)
        assert plan.decide("worker_crash", (0, 0), attempt=1)
        assert not plan.decide("worker_crash", (0, 0), attempt=2)


class TestPoison:
    def test_membership_survives_pickling(self):
        plan = FaultPlan(seed=1)
        plan.poison(b"\x01" * 12)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.is_poisoned(b"\x01" * 12)
        assert not clone.is_poisoned(b"\x02" * 12)


class TestDirective:
    def test_worker_crash_raises_outside_pool_worker(self):
        plan = FaultPlan(scripted=(ScriptedFault("worker_crash", times=1),))
        point = FaultPoint(plan, (0, 0))
        with pytest.raises(WorkerCrashError):
            point.directive(0, "process").apply()
        # The attempt re-roll: attempt 1 is past `times`, so it is clean.
        point.directive(1, "process").apply()

    def test_worker_crash_inert_on_inline(self):
        plan = FaultPlan(scripted=(ScriptedFault("worker_crash", times=10),))
        FaultPoint(plan, (0, 0)).directive(0, "inline").apply()

    def test_executing_installs_plan_thread_locally(self):
        plan = FaultPlan(seed=5)
        directive = FaultPoint(plan, (0, 0)).directive(0, "inline")
        assert active_plan() is None
        with executing(directive):
            assert active_plan() is plan
        assert active_plan() is None

    def test_faults_are_counted(self, counters):
        plan = FaultPlan(
            slow_seconds=0.0,
            scripted=(ScriptedFault("slow_sweep", times=1),),
        )
        FaultPoint(plan, (0, 0)).directive(0, "inline").apply()
        assert counters["faults_injected"] == 1

    def test_counts_reach_every_open_scope_and_no_other(self, counters):
        plan = FaultPlan(
            slow_seconds=0.0,
            scripted=(ScriptedFault("slow_sweep", times=2),),
        )
        with stats.counting() as inner:
            FaultPoint(plan, (0, 0)).directive(0, "inline").apply()
        FaultPoint(plan, (0, 0)).directive(1, "inline").apply()
        with stats.counting() as later:
            pass
        assert (inner["faults_injected"], counters["faults_injected"]) == (1, 2)
        assert later["faults_injected"] == 0


class TestSpecParsing:
    def test_rates_and_knobs(self):
        plan = plan_from_spec(
            "worker_crash=0.2,batch_error=0.1,seed=7,hang=0.5,slow=0.01,stall=2048"
        )
        assert plan.seed == 7
        assert plan.rates == {"worker_crash": 0.2, "batch_error": 0.1}
        assert plan.hang_seconds == 0.5
        assert plan.slow_seconds == 0.01
        assert plan.stall_cycles == 2048

    def test_empty_spec_is_no_plan(self):
        assert plan_from_spec("") is None
        assert plan_from_spec("   ") is None

    def test_bad_key_and_value_rejected(self):
        with pytest.raises(ValueError, match="unknown REPRO_FAULTS key"):
            plan_from_spec("volcano=0.5")
        with pytest.raises(ValueError, match="bad REPRO_FAULTS value"):
            plan_from_spec("worker_crash=often")

    def test_unknown_key_error_lists_every_site_and_the_token(self):
        with pytest.raises(ValueError) as excinfo:
            plan_from_spec("worker_crash=0.2,volcano=0.5")
        message = str(excinfo.value)
        for site in SITES:
            assert site in message
        assert "'volcano'" in message
        assert "'volcano=0.5'" in message  # the offending token verbatim
        assert "seed, hang, slow, stall" in message

    def test_bad_value_error_lists_every_site_and_the_token(self):
        with pytest.raises(ValueError) as excinfo:
            plan_from_spec("batch_error=lots")
        message = str(excinfo.value)
        for site in SITES:
            assert site in message
        assert "'lots'" in message
        assert "'batch_error=lots'" in message

    def test_env_seeds_the_process_plan(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "key_error=0.25,seed=11")
        set_fault_plan(None)  # force a re-read of the environment
        plan = active_plan()
        assert plan is not None
        assert plan.seed == 11 and plan.rates == {"key_error": 0.25}

    def test_sites_cover_every_documented_site(self):
        assert set(SITES) == {
            "worker_crash",
            "worker_hang",
            "batch_error",
            "slow_sweep",
            "core_stall",
            "key_error",
        }


class TestScoping:
    def test_injected_faults_restores_prior_state(self):
        plan = FaultPlan(seed=9)
        assert active_plan() is None
        with injected_faults(plan) as installed:
            assert installed is plan and active_plan() is plan
        assert active_plan() is None

    def test_set_fault_plan_returns_previous(self):
        plan = FaultPlan(seed=4)
        assert set_fault_plan(plan) is None
        assert set_fault_plan(None) is plan

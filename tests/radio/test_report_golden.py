"""Golden :class:`WorkloadReport` values for three representative runs.

Every field of ``dataclasses.asdict(report)`` is pinned against
``golden_reports.json``, so a change to how a report is assembled
(counter scoping, latency collection, admission or resilience tallies)
cannot move a value unnoticed.  Each run names the inline backend:
worker key-schedule expansions, and so ``key_schedule_expansions``,
depend on the execution backend and the host's CPU count, and the pins
must hold under any ``REPRO_BACKEND``.  The three runs cover:

- a batched replay with injected ``key_error`` and ``batch_error``
  faults, rx traffic with losses and corrupted tags, bounded queues,
  and admission control;
- a small session storm with rekeys, handoffs and admission control;
- a ``cores`` replay on two cores, so core-path retries and
  auth failures show up.

Regenerate the fixture only for an intended report change::

    PYTHONPATH=src python tests/radio/test_report_golden.py
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.mccp.channel import FlushPolicy
from repro.radio.admission import AdmissionPolicy
from repro.radio.sdr_platform import ChannelConfig, SdrPlatform, WorkloadSpec
from repro.radio.sessions import SessionWorkload, run_sessions
from repro.radio.standards import STANDARD_PROFILES, RadioStandard
from repro.radio.traffic import TrafficPattern
from repro.resilience import FaultPlan, injected_faults

GOLDEN = Path(__file__).with_name("golden_reports.json")


def _config(index, standard, packets, priority=1):
    key = bytes([index + 1]) * (STANDARD_PROFILES[standard].key_bits // 8)
    return ChannelConfig(
        standard, key, TrafficPattern.SATURATING, packets=packets, priority=priority
    )


def _faulted_batched():
    configs = [
        _config(0, RadioStandard.WIFI, 20, priority=0),
        _config(1, RadioStandard.SATCOM, 20, priority=2),
        _config(2, RadioStandard.WIMAX, 20, priority=1),
    ]
    plan = FaultPlan(seed=6, rates={"key_error": 0.3, "batch_error": 0.1})
    platform = SdrPlatform(seed=5)
    with injected_faults(plan):
        return platform.run_workload(
            WorkloadSpec(
                configs,
                dataplane="batched",
                flush_policy=FlushPolicy(),
                backend="inline",
                rx_fraction=0.3,
                loss_rate=0.2,
                corrupt_rate=0.3,
                queue_capacity=8,
                admission=AdmissionPolicy(defer_cycles=100, max_defers=12),
            )
        )


def _session_storm():
    workload = SessionWorkload(
        sessions=8,
        horizon_cycles=20_000,
        arrival="bursty",
        queue_capacity=4,
        admission=AdmissionPolicy(defer_cycles=400, max_defers=4),
        backend="inline",
    )
    return run_sessions(workload, seed=11)


def _cores():
    configs = [
        _config(0, RadioStandard.WIFI, 3),
        _config(1, RadioStandard.SATCOM, 3, priority=0),
        _config(2, RadioStandard.WIMAX, 2),
    ]
    return SdrPlatform(core_count=2, seed=4).run_workload(
        WorkloadSpec(configs, dataplane="cores", backend="inline",
                     rx_fraction=0.4, corrupt_rate=0.5)
    )


RUNS = {
    "faulted_batched": _faulted_batched,
    "session_storm": _session_storm,
    "cores": _cores,
}


def _as_json(report) -> dict:
    """The report as the fixture stores it (int keys become strings)."""
    return json.loads(json.dumps(dataclasses.asdict(report), sort_keys=True))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())[name]
    assert _as_json(RUNS[name]()) == golden


def test_golden_runs_exercise_their_counters():
    """The fixture is not vacuous: each run moves the counters it covers."""
    golden = json.loads(GOLDEN.read_text())
    faulted = golden["faulted_batched"]
    for field in ("faults_injected", "retries", "quarantined", "dead_lettered",
                  "auth_failures", "rx_lost", "deferrals"):
        assert faulted[field] > 0, field
    assert faulted["shed_by_class"]
    storm = golden["session_storm"]
    assert storm["rekeys"] > 0 and storm["handoffs"] > 0
    cores = golden["cores"]
    assert cores["core_submits"] > 0 and cores["backpressure_retries"] > 0
    assert cores["auth_failures"] > 0


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: _as_json(run()) for name, run in RUNS.items()},
                   indent=1, sort_keys=True) + "\n"
    )

"""The adaptive flush controller as a sweepable scenario.

Runs the same multi-channel workload once per *static* flush policy
(the defaults, a narrow low-latency setting, a wide bulk setting) and
once under ``FlushPolicy(mode="auto")`` (:mod:`repro.mccp.autotune`),
per traffic profile x execution backend, and pins the controller's
three contracts hard — a violation raises inside the scenario, so the
sweep itself fails, not just a baseline comparison:

- **byte identity**: the auto run's secured packets are digest-equal
  to every static run's (the controller moves batching geometry,
  never bytes);
- **throughput**: auto's simulated cycle count is never worse than the
  default static policy's, and within 2% of the best static candidate
  (sim cycles are deterministic; the tolerance covers the controller's
  first-window ramp, not measurement noise);
- **determinism**: repeating the auto run — same seed, and again on
  the inline backend — reproduces the decision traces exactly.

The traces themselves ship in the artifact (``trace_json``), so "why
did it widen here" is answerable offline from any sweep run.
"""

from __future__ import annotations

import hashlib
import json

from repro.experiments.scenario import register
from repro.experiments.scenarios._util import deterministic_bytes
from repro.mccp.autotune import advise_backend
from repro.mccp.channel import FlushPolicy
from repro.radio.sdr_platform import (
    ChannelConfig,
    SdrPlatform,
    WorkloadSpec,
    _traffic_profile,
)
from repro.radio.standards import RadioStandard
from repro.radio.traffic import TrafficPattern

#: The static candidates auto competes against.  "default" is the
#: knob-for-knob FlushPolicy() the strict floor is measured against.
_STATIC_POLICIES = (
    ("default", FlushPolicy()),
    ("narrow", FlushPolicy(coalesce_limit=4, flush_deadline=512)),
    ("wide", FlushPolicy(coalesce_limit=128, flush_deadline=32768)),
)


def _profile_configs(profile: str, seed: int, quick: bool):
    """The channel mix for one traffic profile."""
    if profile == "steady":
        # Paced CBR on every channel: the deadline-retarget case.
        return [
            ChannelConfig(
                RadioStandard.WIFI,
                deterministic_bytes(16, seed + index),
                TrafficPattern.CBR,
                packets=8 if quick else 12,
            )
            for index in range(4)
        ]
    if profile == "bursty":
        # Clustered arrivals: the controller must keep each burst in
        # one batch while cutting the idle wait between bursts.
        return [
            ChannelConfig(
                RadioStandard.WIFI if index % 2 else RadioStandard.WIMAX,
                deterministic_bytes(16, seed + index),
                TrafficPattern.BURSTY,
                packets=12 if quick else 24,
            )
            for index in range(4)
        ]
    if profile == "mixed":
        # Sustained 2 KB bulk (the widen case) sharing the platform
        # with small latency-critical control-class voice frames.
        configs = [
            ChannelConfig(
                RadioStandard.SATCOM,
                deterministic_bytes(32, seed + index),
                TrafficPattern.SATURATING,
                packets=96 if quick else 192,
            )
            for index in range(2)
        ]
        configs += [
            ChannelConfig(
                RadioStandard.TACTICAL_VOICE,
                deterministic_bytes(16, seed + 10 + index),
                TrafficPattern.CBR,
                packets=8 if quick else 16,
                priority=0,
            )
            for index in range(2)
        ]
        return configs
    raise ValueError(f"unknown profile {profile!r}")


def _run(configs, seed, backend, policy=None, autotune=False):
    """One workload replay; returns (report, payload digest)."""
    platform = SdrPlatform(core_count=4, seed=seed)
    report = platform.run_workload(
        WorkloadSpec(
            configs=tuple(configs),
            dataplane="batched",
            flush_policy=policy,
            backend=None if backend == "inline" else backend,
            autotune=autotune,
        )
    )
    digest = hashlib.sha256()
    transfers = sorted(
        (t for t in platform.comm.completed.values() if t.job is not None),
        key=lambda t: (t.channel_id, t.sequence),
    )
    for transfer in transfers:
        digest.update(transfer.payload)
        digest.update(transfer.tag or b"")
    return report, digest.hexdigest()


@register(
    name="autotune_sweep",
    title="Adaptive flush controller: auto vs static, profile x backend",
    description="FlushPolicy(mode='auto') against default/narrow/wide "
    "static policies on steady/bursty/mixed traffic: payload digests "
    "must match, auto must never trail the defaults on simulated "
    "cycles, and decision traces must reproduce across repeats and "
    "backends — violations raise inside the scenario.",
    grid={
        "profile": ["steady", "bursty", "mixed"],
        "backend": ["inline", "process"],
    },
    quick_grid={
        "profile": ["steady", "bursty", "mixed"],
        "backend": ["inline"],
    },
    tags=("radio", "autotune", "dataplane", "perf"),
)
def autotune_sweep(params, seed, quick):
    """One profile x backend point: static ladder vs the controller."""
    profile = params["profile"]
    backend = params["backend"]
    configs = _profile_configs(profile, seed, quick)

    static = {}
    for name, policy in _STATIC_POLICIES:
        static[name] = _run(configs, seed, backend, policy=policy)
    auto, auto_digest = _run(configs, seed, backend, autotune=True)
    repeat, repeat_digest = _run(configs, seed, backend, autotune=True)
    inline_auto, _ = _run(configs, seed, "inline", autotune=True)

    digests = {auto_digest, repeat_digest}
    digests.update(digest for _, digest in static.values())
    digest_match = len(digests) == 1
    if not digest_match:
        raise RuntimeError(
            f"autotune_sweep[{profile}/{backend}]: auto changed payload "
            "bytes relative to a static policy"
        )

    default_cycles = static["default"][0].total_cycles
    best_name, best_cycles = min(
        ((name, report.total_cycles) for name, (report, _) in static.items()),
        key=lambda item: item[1],
    )
    auto_ge_default = auto.total_cycles <= default_cycles
    auto_ge_best = auto.total_cycles <= best_cycles * 1.02
    if not auto_ge_default:
        raise RuntimeError(
            f"autotune_sweep[{profile}/{backend}]: auto took "
            f"{auto.total_cycles} cycles, worse than the default static "
            f"policy's {default_cycles}"
        )
    if not auto_ge_best:
        raise RuntimeError(
            f"autotune_sweep[{profile}/{backend}]: auto took "
            f"{auto.total_cycles} cycles, more than 2% over the best "
            f"static candidate {best_name} ({best_cycles})"
        )

    trace_reproducible = auto.autotune_traces == repeat.autotune_traces
    trace_backend_identical = (
        auto.autotune_traces == inline_auto.autotune_traces
    )
    if not (trace_reproducible and trace_backend_identical):
        raise RuntimeError(
            f"autotune_sweep[{profile}/{backend}]: decision traces "
            "diverged across repeats or backends for the same seed"
        )

    # What the workload-level advisor would pick for this profile on a
    # canonical 4-CPU host (deterministic; the gate exercises the real
    # host path).
    advice = advise_backend(_traffic_profile(configs), cpu_count=4)

    return {
        "packets_done": auto.packets_done,
        "payload_bytes": auto.payload_bytes,
        "digest_match": digest_match,
        "output_digest": auto_digest[:32],
        "cycles_auto": auto.total_cycles,
        "cycles_default": default_cycles,
        "cycles_best_static": best_cycles,
        "best_static": best_name,
        "auto_ge_default": auto_ge_default,
        "auto_ge_best": auto_ge_best,
        "trace_reproducible": trace_reproducible,
        "trace_backend_identical": trace_backend_identical,
        "autotune_adjustments": auto.autotune_adjustments,
        "latency_mean_us_auto": round(auto.mean_latency_us(), 2),
        "latency_mean_us_default": round(
            static["default"][0].mean_latency_us(), 2
        ),
        "advisor_backend": advice.backend,
        "advisor_policy": advice.policy,
        "trace_json": json.dumps(
            {str(cid): trace for cid, trace in auto.autotune_traces.items()},
            sort_keys=True,
        ),
    }

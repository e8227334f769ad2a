"""The benchmark's workloads, their replays and their output checks.

Every workload is open-loop in simulated time: arrivals are scheduled
in sim cycles whatever the device does.  Each is built so that one or
two layers do most of its work and a sibling workload bypasses them:

- ``radio_bulk``: six saturating AEAD channels (2 x WIFI CCM, 2 x WIMAX
  CCM, 2 x SATCOM GCM) on the ``batched`` dataplane, inline backend,
  default coalescing (32), 25 % rx traffic with 2 % corrupted tags.
  Crypto kernels and traffic generation dominate; keys are warm.
- ``radio_bulk_arena``: the same traffic through the ``pipelined``
  dataplane (depth 2) on the ``process-arena:2`` backend, the only
  workload with backend transport on the critical path.
- ``session_storm``: session storms (``SessionManager``, as
  ``run_sessions`` drives them, set-up timed apart) with ``DEFAULT_MIX``,
  bursty arrivals, bounded queues and an admission rate limit; every
  session has fresh keys, so per-key GCM table builds dominate.
- ``cores_cycle``: four saturating 2 KB GCM-256 channels on the
  ``cores`` dataplane (the paper's ``gcm_4x1`` configuration) with the
  same rx mix, the only workload that runs the cycle-level device
  model.

A workload is a fixed list of replay inputs derived from the seed; a
replay builds a fresh platform (set-up) and replays one input
(timed).  The workload's ``check`` then re-seals or re-opens every
completed transfer on the single-packet ``repro.crypto.fast.bulk`` path
and checks packet conservation; it pins no digests, so a change to how
payloads are generated needs no benchmark edit.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.params import Algorithm, Direction
from repro.crypto.fast import bulk, clear_caches
from repro.crypto.fast.exec import ExecutionBackend
from repro.errors import AuthenticationFailure
from repro.radio.admission import AdmissionPolicy
from repro.radio.sdr_platform import ChannelConfig, SdrPlatform, WorkloadSpec
from repro.radio.sessions import (
    DEFAULT_MIX,
    SessionManager,
    SessionWorkload,
    build_session_plans,
    session_key_material,
)
from repro.radio.standards import STANDARD_PROFILES, RadioStandard
from repro.radio.traffic import TrafficGenerator, TrafficPattern

#: Radio mix shared by both ``radio_bulk`` workloads.
RADIO_STANDARDS = (
    RadioStandard.WIFI,
    RadioStandard.WIFI,
    RadioStandard.WIMAX,
    RadioStandard.WIMAX,
    RadioStandard.SATCOM,
    RadioStandard.SATCOM,
)
#: Packets per radio channel and replay (6 x 64 = 384 packets).
RADIO_PACKETS = 64
RADIO_RX_FRACTION = 0.25
RADIO_CORRUPT_RATE = 0.02

#: ``cores_cycle``: four 2 KB GCM-256 channels (SATCOM profile), each
#: carrying 12 or 13 packets by seed, with the radio rx mix.  Without
#: rx traffic every packet has the same service time on the device, so
#: the median latency was the same for every seed.
CORES_CHANNELS = 4
CORES_PACKETS = (12, 13)

#: ``session_storm``: a run replays a fixed list of ``STORMS`` storms
#: of ``STORM_SESSIONS`` sessions each.  The session plans (profiles,
#: packet counts, keys) are those of the first plan seeds whose storm
#: rekeys at least once; the benchmark seed sets each storm's arrival
#: window within ``STORM_HORIZON`` +- ``STORM_HORIZON_JITTER``.
#: Drawing whole plans from the seed swung packets/s by a third
#: between seeds at this size, far beyond any useful bound.
STORM_SESSIONS = 24
STORMS = 6
STORM_HORIZON = 200_000
STORM_HORIZON_JITTER = 0.02
STORM_WORKLOAD = dict(
    sessions=STORM_SESSIONS,
    arrival="bursty",
    mix=DEFAULT_MIX,
    queue_capacity=16,
    # The rate limit defers packets during bursts; the defer budget is
    # large enough that deferral never turns into shedding, so the run
    # has no failed packets.  At 2 packets/kcycle the control tail
    # jumped between defer counts from seed to seed (27 % spread).
    admission=AdmissionPolicy(rate_per_kcycle=3.0, burst=8, max_defers=1000),
)


def channel_key(seed: int, index: int, standard: RadioStandard) -> bytes:
    """Deterministic per-(seed, channel) key of the standard's size."""
    size = STANDARD_PROFILES[standard].key_bits // 8
    return hashlib.sha256(f"perfbench-key|{seed}|{index}".encode()).digest()[:size]


@dataclass
class Replay:
    """One finished replay: what the checks and metrics read."""

    seconds: float
    setup_seconds: float
    report: object
    #: Transfers in completion order.
    transfers: list
    #: Packets the input offered.
    offered: int
    #: Simulator events the replay scheduled.
    events: int
    #: Latency samples (cycles) per priority class, from the packet's
    #: scheduled creation to its completion.
    class_latencies: Dict[int, List[int]] = field(default_factory=dict)
    #: ``cache_info()`` of the per-key caches as the replay started,
    #: and the hits/misses the replay added.
    cache_info: dict = field(default_factory=dict)
    cache_delta: dict = field(default_factory=dict)


@dataclass
class Check:
    """Outcome of checking one replay's outputs."""

    attempted: int
    failed: int
    errors: List[str]
    digest: str


@dataclass
class Workload:
    """One named workload: inputs, set-up, replay and output check."""

    name: str
    backend_spec: str
    #: Replay inputs for a seed (a fixed list).
    inputs: Callable[[int], list]
    warm_up: Callable[[int, ExecutionBackend], None]
    #: ``(input, backend) -> state``: platform construction and
    #: provisioning, timed as set-up.
    setup: Callable
    #: ``state -> WorkloadReport``: the timed replay.
    replay: Callable
    #: ``(state, Replay) -> Check``: the output check.
    check: Callable
    #: ``state -> (transfers, offered, sim events)`` after a replay.
    collect: Callable
    #: Called before every timed replay, untimed (cache state).
    before_replay: Optional[Callable[[], None]] = None


# -- radio workloads ---------------------------------------------------------


@dataclass
class RadioInput:
    seed: int
    configs: List[ChannelConfig]
    dataplane: str
    rx_fraction: float
    corrupt_rate: float

    def spec(self, backend: ExecutionBackend) -> WorkloadSpec:
        return WorkloadSpec(
            self.configs,
            dataplane=self.dataplane,
            backend=backend,
            rx_fraction=self.rx_fraction,
            corrupt_rate=self.corrupt_rate,
            pipeline_depth=2,
        )


def _radio_input(seed: int, dataplane: str) -> RadioInput:
    configs = [
        ChannelConfig(
            standard,
            channel_key(seed, i, standard),
            TrafficPattern.SATURATING,
            packets=RADIO_PACKETS,
        )
        for i, standard in enumerate(RADIO_STANDARDS)
    ]
    return RadioInput(seed, configs, dataplane, RADIO_RX_FRACTION, RADIO_CORRUPT_RATE)


def _bulk_input(seed: int) -> RadioInput:
    return _radio_input(seed, "batched")


def _arena_input(seed: int) -> RadioInput:
    return _radio_input(seed, "pipelined")


def _cores_input(seed: int) -> RadioInput:
    rng = random.Random(f"perfbench-cores|{seed}")
    configs = [
        ChannelConfig(
            RadioStandard.SATCOM,
            channel_key(seed, i, RadioStandard.SATCOM),
            TrafficPattern.SATURATING,
            packets=rng.choice(CORES_PACKETS),
        )
        for i in range(CORES_CHANNELS)
    ]
    return RadioInput(seed, configs, "cores", RADIO_RX_FRACTION, RADIO_CORRUPT_RATE)


@dataclass
class RadioState:
    platform: SdrPlatform
    spec: WorkloadSpec
    inp: RadioInput


def _radio_setup(inp: RadioInput, backend: ExecutionBackend) -> RadioState:
    platform = SdrPlatform(seed=inp.seed, backend=backend)
    return RadioState(platform, inp.spec(backend), inp)


def _radio_replay(state: RadioState):
    return state.platform.run_workload(state.spec)


def _radio_warm_up(make_input: Callable[[int], RadioInput], packets: Optional[int] = None):
    """Warm-up: replay the seed's input once (*packets* per channel)."""

    def warm_up(seed: int, backend: ExecutionBackend) -> None:
        inp = make_input(seed)
        if packets is not None:
            for config in inp.configs:
                config.packets = packets
        _radio_replay(_radio_setup(inp, backend))

    return warm_up


def _ordered_channels(platform) -> list:
    """The replay's channels in provisioning (= config) order."""
    return sorted(platform.mccp.scheduler.channels.values(), key=lambda c: c.key_id)


def _seal_open(algorithm: Algorithm):
    if algorithm is Algorithm.GCM:
        return bulk.gcm_seal, bulk.gcm_open
    return bulk.ccm_seal, bulk.ccm_open


def _check_aead(errors, label, transfer, key, channel, plaintext, job) -> bool:
    """Re-seal (tx) or re-open (rx) one transfer on the bulk path."""
    seal, open_ = _seal_open(channel.algorithm)
    if job.direction is Direction.ENCRYPT:
        ciphertext, tag = seal(key, job.nonce, plaintext, job.aad, channel.tag_length)
        if transfer.ok and transfer.payload == ciphertext and transfer.tag == tag:
            return True
        errors.append(f"{label}: sealed output differs from the bulk path")
        return False
    try:
        opened = open_(key, job.nonce, job.data, job.tag, job.aad)
    except AuthenticationFailure:
        opened = None
    if opened is None:
        if not transfer.ok and transfer.payload == b"":
            return True
        errors.append(f"{label}: corrupted rx packet was accepted")
        return False
    if transfer.ok and transfer.payload == opened == plaintext:
        return True
    errors.append(f"{label}: clean rx packet did not return its plaintext")
    return False


def _conservation(errors, offered, transfers, shed, lost) -> int:
    """Check offered = done + shed + lost; returns packets missing."""
    missing = offered - len(transfers) - shed - lost
    if missing != 0:
        errors.append(
            f"packet conservation broken: offered {offered}, done "
            f"{len(transfers)}, shed {shed}, lost {lost}"
        )
    return max(0, missing)


def _order_and_nonces(errors, transfers, key_of) -> None:
    """Per-channel completion order and (key, nonce) uniqueness on tx."""
    last: Dict[int, int] = {}
    seen = set()
    for transfer in transfers:
        job = transfer.job
        if last.get(job.channel_id, -1) >= job.sequence:
            errors.append(f"channel {job.channel_id}: completions out of order")
        last[job.channel_id] = job.sequence
        if job.direction is Direction.ENCRYPT:
            pair = (key_of(transfer), bytes(job.nonce))
            if pair in seen:
                errors.append(f"channel {job.channel_id}: nonce reused under one key")
            seen.add(pair)


def digest_transfers(replay: Replay) -> str:
    """Order-sensitive digest of every output, cycle and report total."""
    h = hashlib.sha256()
    for transfer in replay.transfers:
        h.update(
            f"{transfer.channel_id}|{transfer.sequence}|{transfer.ok}|"
            f"{transfer.download_done_cycle}|".encode()
        )
        h.update(transfer.payload)
        h.update(transfer.tag or b"")
    h.update(f"{replay.report.total_cycles}|{replay.report.payload_bytes}".encode())
    return h.hexdigest()


def _events(sim) -> int:
    """Entries the replay's fresh simulator scheduled.

    Read from the kernel's sequence counter: the ``Delay`` fast path
    pushes entries without going through ``Simulator.call_at``, and the
    kernel keeps no public count.
    """
    return sim._seq


def _radio_collect(state: RadioState) -> tuple:
    transfers = list(state.platform.comm.completed.values())
    offered = sum(c.packets for c in state.inp.configs)
    return transfers, offered, _events(state.platform.sim)


def _radio_check(state: RadioState, replay: Replay) -> Check:
    """Outputs against the bulk path; latencies from scheduled arrival."""
    errors: List[str] = []
    report = replay.report
    channels = _ordered_channels(state.platform)
    by_id = {}
    for config, channel in zip(state.inp.configs, channels):
        profile = STANDARD_PROFILES[config.standard]
        if channel.algorithm is not profile.algorithm:
            errors.append(f"channel {channel.channel_id}: provisioned out of order")
        schedule = TrafficGenerator(
            channel.channel_id,
            profile,
            config.pattern,
            seed=state.inp.seed,
            priority=config.priority,
        ).generate(config.packets)
        by_id[channel.channel_id] = (config, channel, schedule)
    wrong = 0
    for transfer in replay.transfers:
        job = transfer.job
        config, channel, schedule = by_id[job.channel_id]
        item = schedule[job.sequence]
        label = f"channel {job.channel_id} seq {job.sequence}"
        replay.class_latencies.setdefault(job.priority, []).append(
            job.completed_cycle - item.arrival_cycle
        )
        if "dead_letter" in transfer.extra:
            errors.append(f"{label}: dead-lettered ({transfer.extra['dead_letter']})")
            wrong += 1
            continue
        if job.aad != item.packet.header:
            errors.append(f"{label}: AAD is not the generated header")
            wrong += 1
            continue
        if job.direction is Direction.ENCRYPT and job.data != item.packet.payload:
            errors.append(f"{label}: payload is not the generated payload")
            wrong += 1
            continue
        if not _check_aead(
            errors, label, transfer, config.key, channel, item.packet.payload, job
        ):
            wrong += 1
    _order_and_nonces(errors, replay.transfers, lambda t: by_id[t.job.channel_id][0].key)
    missing = _conservation(errors, replay.offered, replay.transfers, report.shed, report.rx_lost)
    failed = wrong + missing + report.shed
    return Check(replay.offered, failed, errors, digest_transfers(replay))


# -- session storm -----------------------------------------------------------


@dataclass
class StormInput:
    plan_seed: int
    horizon_cycles: int


@dataclass
class StormState:
    manager: SessionManager
    seed: int


def _storm_plan_seeds(count: int) -> list:
    """The first *count* plan seeds whose storm has a rekey."""
    workload = SessionWorkload(horizon_cycles=STORM_HORIZON, **STORM_WORKLOAD)
    seeds = []
    candidate = 0
    while len(seeds) < count:
        plans = build_session_plans(workload, candidate)
        if any(
            p.profile.rekey_interval is not None and p.total_packets > p.profile.rekey_interval
            for p in plans
        ):
            seeds.append(candidate)
        candidate += 1
    return seeds


def _storm_inputs(seed: int) -> list:
    rng = random.Random(f"perfbench-storm|{seed}")
    return [
        StormInput(
            plan_seed,
            int(STORM_HORIZON * (1 + rng.uniform(-STORM_HORIZON_JITTER, STORM_HORIZON_JITTER))),
        )
        for plan_seed in _storm_plan_seeds(STORMS)
    ]


def _storm_setup(inp: StormInput, backend: ExecutionBackend) -> StormState:
    workload = SessionWorkload(
        backend=backend, horizon_cycles=inp.horizon_cycles, **STORM_WORKLOAD
    )
    return StormState(SessionManager.provisioned(workload, seed=inp.plan_seed), inp.plan_seed)


def _storm_replay(state: StormState):
    return state.manager.run()


def _storm_warm_up(seed: int, backend: ExecutionBackend) -> None:
    workload = SessionWorkload(backend=backend, **dict(STORM_WORKLOAD, sessions=4))
    # A plan seed no timed storm uses: its keys warm nothing they need.
    unused = max(_storm_plan_seeds(STORMS)) + 1
    SessionManager.provisioned(workload, seed=unused).run()


def _storm_check(state: StormState, replay: Replay) -> Check:
    """Every sealed packet against its epoch key on the bulk path."""
    errors: List[str] = []
    manager = state.manager
    report = replay.report
    key_bytes = manager.workload.key_bytes
    # channel id -> (plan, segment plan, first session-wide packet index)
    segments = {}
    for plan in manager.plans:
        start = 0
        for seg in plan.segments:
            channel = manager.channels[(plan.sid, seg.segment)]
            segments[channel.channel_id] = (plan, seg, start, channel)
            start += seg.packets

    def key_of(transfer):
        plan, seg, start, _channel = segments[transfer.job.channel_id]
        interval = plan.profile.rekey_interval
        epoch = (start + transfer.job.sequence) // interval if interval else 0
        return session_key_material(state.seed, plan.sid, seg.segment, epoch, key_bytes)

    wrong = 0
    for transfer in replay.transfers:
        job = transfer.job
        _plan, _seg, _start, channel = segments[job.channel_id]
        label = f"session channel {job.channel_id} seq {job.sequence}"
        if "dead_letter" in transfer.extra:
            errors.append(f"{label}: dead-lettered ({transfer.extra['dead_letter']})")
            wrong += 1
            continue
        if not _check_aead(
            errors, label, transfer, key_of(transfer), channel, job.data, job
        ):
            wrong += 1
    _order_and_nonces(errors, replay.transfers, key_of)
    for priority, samples in report.per_class_latencies.items():
        replay.class_latencies.setdefault(priority, []).extend(samples)
    missing = _conservation(errors, replay.offered, replay.transfers, report.shed, 0)
    failed = wrong + missing + report.shed
    return Check(replay.offered, failed, errors, digest_transfers(replay))


def _storm_collect(state: StormState) -> tuple:
    platform = state.manager.platform
    transfers = list(platform.comm.completed.values())
    offered = sum(plan.total_packets for plan in state.manager.plans)
    return transfers, offered, _events(platform.sim)


WORKLOADS: Dict[str, Workload] = {
    "radio_bulk": Workload(
        name="radio_bulk",
        backend_spec="inline",
        inputs=lambda seed: [_bulk_input(seed)],
        warm_up=_radio_warm_up(_bulk_input),
        setup=_radio_setup,
        replay=_radio_replay,
        check=_radio_check,
        collect=_radio_collect,
    ),
    "radio_bulk_arena": Workload(
        name="radio_bulk_arena",
        backend_spec="process-arena:2",
        inputs=lambda seed: [_arena_input(seed)],
        warm_up=_radio_warm_up(_arena_input),
        setup=_radio_setup,
        replay=_radio_replay,
        check=_radio_check,
        collect=_radio_collect,
    ),
    "session_storm": Workload(
        name="session_storm",
        backend_spec="inline",
        inputs=_storm_inputs,
        warm_up=_storm_warm_up,
        setup=_storm_setup,
        replay=_storm_replay,
        check=_storm_check,
        collect=_storm_collect,
        # Every storm starts cold: the key set-up real sessions pay is
        # never served from an earlier replay's caches.
        before_replay=clear_caches,
    ),
    "cores_cycle": Workload(
        name="cores_cycle",
        backend_spec="inline",
        inputs=lambda seed: [_cores_input(seed)],
        # One packet per channel: a full replay takes seconds here.
        warm_up=_radio_warm_up(_cores_input, packets=1),
        setup=_radio_setup,
        replay=_radio_replay,
        check=_radio_check,
        collect=_radio_collect,
    ),
}

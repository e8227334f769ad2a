"""Differential fuzzing of the batched dataplane's invariants.

A seeded generator (:func:`generate_case`) draws small
:class:`~repro.radio.sdr_platform.WorkloadSpec` and
:class:`~repro.radio.sessions.SessionWorkload` shapes in plain Python:
CCM/GCM channel mixes, session payloads of 0 bytes and of lengths that
are no multiple of the block, rx/loss/corrupt rates, flush policies,
bounded queues with admission control, rekeys and handoffs, and
``batch_error`` fault plans.  :func:`check_case` replays a case twice
— once through the end-of-run barrier, which computes every deferred
dispatch in one engine call, and once with every dispatch computed
alone — and returns every broken invariant:

- each arm's outputs equal the per-packet one-call path
  (:mod:`repro.crypto.fast.bulk`), as the benchmark's output check
  uses it: sealed packets re-seal to the same bytes, clean rx packets
  open to their payload, corrupted ones are rejected;
- the two arms agree on every completion record (bytes, ``ok``,
  cycle, order), the dead-letter set and the whole report;
- packet conservation: offered = done + shed + lost + dead-lettered;
- per-channel completion order;
- exactly the packets the fault plan poisoned are dead-lettered.

A second pair (:func:`generate_cores_case`, :func:`check_cores_case`)
replays small workloads the cycle-level ``cores`` dataplane supports —
at most 8 packets per channel and 512-byte payloads, 0 bytes and
off-block lengths included — on ``cores`` and on ``batched``: each
channel's completions must carry the same bytes and ``ok`` flags in the
same order, and both runs must conserve packets.

A third check (:func:`check_numpy_case`) replays a :func:`generate_case`
case with the numpy fast paths and again with every one of them turned
off (``HAVE_NUMPY`` false in :mod:`~repro.crypto.fast.batch`,
:mod:`~repro.crypto.fast.aes_vector` and
:mod:`~repro.crypto.fast.ghash_hpower`): the pure-Python arm must
produce the same completion records, dead letters and report.

The technique is differential testing (McKeeman, "Differential
Testing for Software", 1998).  A failing seed becomes a committed
regression test.  Run as a module for a longer sweep::

    PYTHONPATH=src python -m repro.experiments.fuzz --cases 200 --cores-cases 60 --seed 0
    PYTHONPATH=src python -m repro.experiments.fuzz --cases 0 --numpy-cases 40 --seed 2000
"""

from __future__ import annotations

import argparse
import dataclasses
import random
import sys
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple, Union
from unittest import mock

from repro.core.params import Algorithm, Direction
from repro.crypto.fast import aes_vector, batch, bulk, ghash_hpower
from repro.errors import AuthenticationFailure
from repro.mccp.channel import FlushPolicy
from repro.radio.admission import AdmissionPolicy
from repro.radio.sdr_platform import ChannelConfig, SdrPlatform, WorkloadSpec
from repro.radio.sessions import (
    ARRIVAL_PROFILES,
    SessionManager,
    SessionProfile,
    SessionWorkload,
    session_key_material,
)
from repro.radio.standards import STANDARD_PROFILES, RadioStandard
from repro.radio.traffic import TrafficPattern
from repro.resilience.faults import FaultPlan, injected_faults

#: The AEAD standards a case draws channels from (two CCM, two GCM).
STANDARDS = (
    RadioStandard.WIFI,
    RadioStandard.WIMAX,
    RadioStandard.SATCOM,
    RadioStandard.TACTICAL_VOICE,
)

#: Session payload sizes: empty, sub-block, off-block and nominal.
SESSION_PAYLOADS = (0, 1, 15, 17, 100, 333, None)

PATTERNS = (TrafficPattern.SATURATING, TrafficPattern.BURSTY, TrafficPattern.POISSON)

#: Payload sizes of a ``cores`` case: empty, off-block, whole blocks,
#: and the case's 512-byte ceiling.
CORES_PAYLOADS = (0, 1, 15, 16, 17, 100, 333, 512)


@dataclass(frozen=True)
class FuzzCase:
    """One generated shape: a workload or a session storm, plus faults."""

    seed: int
    shape: Union[WorkloadSpec, SessionWorkload]
    #: ``batch_error`` probability of the case's fault plan (0 = none).
    batch_error_rate: float = 0.0


def _flush_policy(rng: random.Random, queue_capacity: Optional[int]) -> FlushPolicy:
    limit = rng.randint(1, 8)
    deadlines = (None, 0, 300, 2_000, 8_000)
    if queue_capacity is not None and queue_capacity < limit:
        # Size-only over a queue that never reaches the size: nothing
        # would ever dispatch (the producer backs off forever).
        deadlines = deadlines[1:]
    return FlushPolicy(coalesce_limit=limit, flush_deadline=rng.choice(deadlines))


def _admission(rng: random.Random) -> Optional[AdmissionPolicy]:
    if rng.random() < 0.6:
        return None
    return AdmissionPolicy(
        rate_per_kcycle=rng.choice((None, 1.0, 4.0)),
        burst=rng.randint(1, 8),
        max_defers=rng.choice((0, 2, 50)),
    )


def _workload(rng: random.Random) -> WorkloadSpec:
    configs = []
    for _ in range(rng.randint(1, 4)):
        standard = rng.choice(STANDARDS)
        key = rng.randbytes(STANDARD_PROFILES[standard].key_bits // 8)
        pattern = rng.choice(PATTERNS)
        configs.append(ChannelConfig(standard, key, pattern, packets=rng.randint(1, 10)))
    queue_capacity = rng.choice((None, None, 2, 4, 8))
    return WorkloadSpec(
        configs,
        dataplane=rng.choice(("batched", "pipelined")),
        flush_policy=_flush_policy(rng, queue_capacity),
        backend="inline",
        rx_fraction=rng.choice((0.0, 0.25, 0.5, 1.0)),
        loss_rate=rng.choice((0.0, 0.1)),
        corrupt_rate=rng.choice((0.0, 0.2, 0.5)),
        pipeline_depth=rng.randint(1, 3),
        queue_capacity=queue_capacity,
        admission=_admission(rng) if queue_capacity else None,
    )


def _sessions(rng: random.Random) -> SessionWorkload:
    mix = tuple(
        SessionProfile(
            name=f"profile{index}",
            standard=rng.choice(STANDARDS),
            priority=rng.randint(0, 2),
            weight=rng.choice((1.0, 2.0)),
            packets_mean=rng.randint(1, 6),
            packet_gap_cycles=rng.choice((500, 3_000)),
            rekey_interval=rng.choice((None, 2, 3, 5)),
            handoff_fraction=rng.choice((0.0, 0.5, 1.0)),
            payload_bytes=rng.choice(SESSION_PAYLOADS),
        )
        for index in range(rng.randint(1, 3))
    )
    queue_capacity = rng.choice((None, None, 2, 6))
    return SessionWorkload(
        sessions=rng.randint(1, 6),
        horizon_cycles=rng.choice((5_000, 40_000)),
        arrival=rng.choice(ARRIVAL_PROFILES),
        mix=mix,
        dataplane=rng.choice(("batched", "pipelined")),
        backend="inline",
        flush_policy=_flush_policy(rng, queue_capacity),
        queue_capacity=queue_capacity,
        admission=_admission(rng) if queue_capacity else None,
        pipeline_depth=rng.randint(1, 3),
        key_bytes=rng.choice((16, 24, 32)),
    )


def generate_case(seed: int) -> FuzzCase:
    """The case of *seed*: a pure function of it."""
    rng = random.Random(f"dataplane-fuzz|{seed}")
    shape = _workload(rng) if rng.random() < 0.5 else _sessions(rng)
    return FuzzCase(seed, shape, rng.choice((0.0, 0.0, 0.05, 0.25)))


def generate_cores_case(seed: int) -> FuzzCase:
    """The ``cores``-vs-``batched`` case of *seed*: a pure function of it."""
    rng = random.Random(f"cores-fuzz|{seed}")
    configs = []
    for _ in range(rng.randint(1, 3)):
        standard = rng.choice(STANDARDS)
        profile = STANDARD_PROFILES[standard]
        configs.append(
            ChannelConfig(
                standard,
                rng.randbytes(profile.key_bits // 8),
                rng.choice(PATTERNS),
                packets=rng.randint(1, 8),
                two_core_ccm=profile.algorithm is Algorithm.CCM and rng.random() < 0.5,
                payload_bytes=rng.choice(CORES_PAYLOADS),
            )
        )
    spec = WorkloadSpec(
        configs,
        dataplane="cores",
        backend="inline",
        rx_fraction=rng.choice((0.0, 0.25, 0.5, 1.0)),
        loss_rate=rng.choice((0.0, 0.1)),
        corrupt_rate=rng.choice((0.0, 0.2, 0.5)),
    )
    return FuzzCase(seed, spec)


@dataclass
class _Outcome:
    """What one arm of a case produced."""

    report: dict
    #: ``(channel, sequence, direction, ok, payload, tag, cycle, dead
    #: letter)`` per completion, in completion order.
    rows: List[tuple]
    offered: int
    #: ``(channel, sequence)`` of every packet the fault plan poisoned.
    poisoned: Set[Tuple[int, int]]
    #: Per-packet oracle failures of this arm.
    errors: List[str]


def _alone():
    """Every deferred dispatch computes alone: no shared engine call."""
    return mock.patch.object(batch, "resolve_deferred", lambda handles: None)


def _run(case: FuzzCase, alone: bool) -> _Outcome:
    plan = None
    if case.batch_error_rate:
        plan = FaultPlan(seed=case.seed, rates={"batch_error": case.batch_error_rate})
    with injected_faults(plan), _alone() if alone else nullcontext():
        if isinstance(case.shape, WorkloadSpec):
            platform = SdrPlatform(seed=case.seed)
            report = platform.run_workload(case.shape)
            offered = sum(config.packets for config in case.shape.configs)
            channels = sorted(platform.mccp.scheduler.channels.values(), key=lambda c: c.key_id)
            key_of = _workload_keys(case.shape, channels)
        else:
            manager = SessionManager.provisioned(case.shape, seed=case.seed)
            platform = manager.platform
            # Sessions close their channels; keep them by id.
            channels = list(manager.channels.values())
            report = manager.run()
            offered = sum(plan.total_packets for plan in manager.plans)
            key_of = _session_keys(manager, case)
        transfers = list(platform.comm.completed.values())
    channels = {channel.channel_id: channel for channel in channels}
    outcome = _Outcome(dataclasses.asdict(report), [], offered, set(), [])
    for transfer in transfers:
        job = transfer.job
        dead = transfer.extra.get("dead_letter")
        outcome.rows.append(
            (
                transfer.channel_id,
                transfer.sequence,
                job.direction.name,
                transfer.ok,
                transfer.payload,
                transfer.tag,
                transfer.download_done_cycle,
                dead,
            )
        )
        if plan is not None and job.nonce in plan.poisoned:
            outcome.poisoned.add((transfer.channel_id, transfer.sequence))
        if dead is None:
            channel = channels[job.channel_id]
            _check_one(outcome.errors, transfer, key_of(transfer), channel)
    return outcome


def _workload_keys(spec: WorkloadSpec, channels: list) -> Callable:
    """Transfer -> the key of its channel (channels in config order)."""
    keys = {channel.channel_id: config.key for config, channel in zip(spec.configs, channels)}

    def key_of(transfer) -> bytes:
        return keys[transfer.channel_id]

    return key_of


def _session_keys(manager: SessionManager, case: FuzzCase) -> Callable:
    """Transfer -> the key its packet was secured under (epoch-aware)."""
    segments: Dict[int, Tuple] = {}
    for plan in manager.plans:
        start = 0
        for seg in plan.segments:
            channel = manager.channels[(plan.sid, seg.segment)]
            segments[channel.channel_id] = (plan, seg.segment, start)
            start += seg.packets

    def key_of(transfer) -> bytes:
        # A segment's channel opens under its epoch-0 key; the rekey
        # before session packet r (r > 0, a multiple of the interval)
        # installs epoch r // interval on the channel it is made on.
        plan, segment, start = segments[transfer.channel_id]
        interval = plan.profile.rekey_interval
        epoch = 0
        if interval:
            last = (start + transfer.sequence) // interval * interval
            if last > 0 and last >= start:
                epoch = last // interval
        key_bytes = case.shape.key_bytes
        return session_key_material(case.seed, plan.sid, segment, epoch, key_bytes)

    return key_of


def _check_one(errors: List[str], transfer, key: bytes, channel) -> None:
    """One completion against the per-packet one-call path."""
    job = transfer.job
    label = f"channel {job.channel_id} seq {job.sequence}"
    if channel.algorithm is Algorithm.GCM:
        seal, open_ = bulk.gcm_seal, bulk.gcm_open
    else:
        seal, open_ = bulk.ccm_seal, bulk.ccm_open
    if job.direction is Direction.ENCRYPT:
        expected = seal(key, job.nonce, job.data, job.aad, channel.tag_length)
        if not transfer.ok or (transfer.payload, transfer.tag) != expected:
            errors.append(f"{label}: sealed output differs from the bulk path")
        return
    try:
        opened = open_(key, job.nonce, job.data, job.tag, job.aad)
    except AuthenticationFailure:
        opened = None
    if opened is None:
        if transfer.ok or transfer.payload != b"":
            errors.append(f"{label}: forged rx packet was accepted")
    elif not transfer.ok or transfer.payload != opened:
        errors.append(f"{label}: clean rx packet did not open to its payload")


def _invariants(outcome: _Outcome) -> List[str]:
    """Conservation, per-channel order and the dead-letter set of one arm."""
    errors = []
    report = outcome.report
    dead = {(row[0], row[1]) for row in outcome.rows if row[7] is not None}
    done = len(outcome.rows) - len(dead)
    shed = sum(report["shed_by_class"].values())
    lost = report["rx_lost"]
    if outcome.offered != done + shed + lost + len(dead):
        counts = f"done {done}, shed {shed}, lost {lost}, dead-lettered {len(dead)}"
        errors.append(f"conservation: offered {outcome.offered}, {counts}")
    if len(dead) != report["dead_lettered"]:
        errors.append(f"{len(dead)} dead letters, report says {report['dead_lettered']}")
    last: Dict[int, int] = {}
    for channel, sequence, *_ in outcome.rows:
        if last.get(channel, -1) >= sequence:
            errors.append(f"channel {channel}: completion order broken at seq {sequence}")
        last[channel] = sequence
    if dead != outcome.poisoned:
        errors.append(f"dead letters {sorted(dead)}, poisoned {sorted(outcome.poisoned)}")
    return errors


def _differ(first: str, one: _Outcome, second: str, other: _Outcome) -> List[str]:
    """Each arm's own broken invariants, then every difference between
    their completion records and reports."""
    errors = [f"{first}: {e}" for e in one.errors + _invariants(one)]
    errors += [f"{second}: {e}" for e in other.errors + _invariants(other)]
    if one.rows != other.rows:
        errors.append(f"completion records differ between {first} and {second}")
    changed = sorted(name for name, value in one.report.items() if other.report[name] != value)
    if changed:
        errors.append(f"reports differ between {first} and {second}: {changed}")
    return errors


def check_case(case: FuzzCase) -> List[str]:
    """Replay *case* through both arms; every broken invariant, or []."""
    return _differ("barrier", _run(case, alone=False), "alone", _run(case, alone=True))


def check_numpy_case(case: FuzzCase) -> List[str]:
    """Replay *case* with numpy and without; every broken invariant, or []."""
    with_numpy = _run(case, alone=False)
    with ExitStack() as stack:
        for module in (batch, aes_vector, ghash_hpower):
            stack.enter_context(mock.patch.object(module, "HAVE_NUMPY", False))
        pure_python = _run(case, alone=False)
    return _differ("numpy", with_numpy, "pure-Python", pure_python)


def _per_channel(outcome: _Outcome) -> Dict[int, List[tuple]]:
    """Each channel's ``(sequence, direction, ok, payload, tag)`` in
    completion order (cycles differ between dataplanes by design)."""
    channels: Dict[int, List[tuple]] = {}
    for channel, sequence, direction, ok, payload, tag, _cycle, _dead in outcome.rows:
        channels.setdefault(channel, []).append((sequence, direction, ok, payload, tag))
    return channels


def check_cores_case(case: FuzzCase) -> List[str]:
    """Replay *case* on ``cores`` and on ``batched``; every broken
    invariant, or []."""
    cores = _run(case, alone=False)
    batched = _run(
        dataclasses.replace(case, shape=dataclasses.replace(case.shape, dataplane="batched")),
        alone=False,
    )
    errors = [f"cores: {e}" for e in cores.errors + _invariants(cores)]
    errors += [f"batched: {e}" for e in batched.errors + _invariants(batched)]
    cores_rows, batched_rows = _per_channel(cores), _per_channel(batched)
    for channel in sorted(set(cores_rows) | set(batched_rows)):
        if cores_rows.get(channel) != batched_rows.get(channel):
            errors.append(f"channel {channel}: completions differ between cores and batched")
    return errors


def _sweep(kind: str, generate, check, first: int, count: int) -> int:
    """Check *count* seeds from *first*; *kind* prefixes the report."""
    failed = 0
    for seed in range(first, first + count):
        errors = check(generate(seed))
        if errors:
            failed += 1
            print(f"{kind}seed {seed}: FAILED", *errors[:10], sep="\n  ")
    print(f"{count} {kind}cases from seed {first}: {failed} failed")
    return failed


def main(argv: Optional[List[str]] = None) -> int:
    """Check ``--cases`` dataplane, ``--cores-cases`` cores-vs-batched and
    ``--numpy-cases`` numpy-vs-pure-Python consecutive seeds; non-zero
    exit on any failure."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cases", type=int, default=200)
    parser.add_argument("--cores-cases", type=int, default=0)
    parser.add_argument("--numpy-cases", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0, help="first case seed")
    args = parser.parse_args(argv)
    failed = _sweep("", generate_case, check_case, args.seed, args.cases)
    if args.cores_cases:
        failed += _sweep(
            "cores ", generate_cores_case, check_cores_case, args.seed, args.cores_cases
        )
    if args.numpy_cases:
        failed += _sweep("numpy ", generate_case, check_numpy_case, args.seed, args.numpy_cases)
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    sys.exit(main())

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
off-block lengths included, on a platform of 1, 2 or 4 cores — on
``cores`` and on ``batched``: each
channel's completions must carry the same bytes and ``ok`` flags in the
same order, and both runs must conserve packets.  The ``cores`` run is
checked against the reference modes of :mod:`repro.crypto.modes`
(sealed bytes and tag equal ``gcm_encrypt``/``ccm_encrypt``, an
accepted rx packet opens with ``gcm_decrypt``/``ccm_decrypt``, a
rejected one makes it raise), which share no kernel with the engine
that ``batched`` and the device run.  It is also
traced, and every task of at least :data:`LOOP_MIN_BLOCKS` data blocks
must loop at section VII.A's period (:func:`loop_period_errors`): an
oracle that shares no code with the device model, its firmware or its
timing calibration.  A third replay runs ``cores`` with every
controller stepping at the kernel (interrupts enabled, none raised: no
CU issue, FIFO claim or ``HALT`` sleep ahead of the kernel); it must
match the first cycle for cycle: completion records, report and each
controller's instruction and halted-cycle counts.

A third check (:func:`check_numpy_case`) replays a :func:`generate_case`
case with the numpy fast paths and again with every one of them turned
off (``HAVE_NUMPY`` false in :mod:`~repro.crypto.fast.batch`,
:mod:`~repro.crypto.fast.aes_vector` and
:mod:`~repro.crypto.fast.ghash_hpower`): the pure-Python arm must
produce the same completion records, dead letters and report.

The technique is differential testing (McKeeman, "Differential
Testing for Software", 1998).  A failing seed becomes a committed
regression test.  Run as a module for a longer sweep::

    PYTHONPATH=src python -m repro.experiments.fuzz --cases 200 --cores-cases 240 --seed 0
    PYTHONPATH=src python -m repro.experiments.fuzz --cases 0 --numpy-cases 40 --seed 2000
"""

from __future__ import annotations

import argparse
import dataclasses
import random
import sys
from collections import Counter
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple, Union
from unittest import mock

from repro.analysis.cycles import PAPER_T_CBC_128, PAPER_T_GCM_128, paper_loop_cycles
from repro.core.params import Algorithm, CcmRole, Direction
from repro.crypto.fast import aes_vector, batch, bulk, ghash_hpower
from repro.crypto.modes.ccm import ccm_decrypt, ccm_encrypt
from repro.crypto.modes.gcm import gcm_decrypt, gcm_encrypt
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
    #: Cores of the case's platform (workload shapes only).
    core_count: int = 4


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
    """The ``cores``-vs-``batched`` case of *seed*: a pure function of it.

    The platform's core count is drawn last, so the rest of a seed's
    shape does not depend on it, and from (2, 4) when a channel splits
    CCM over two cores.
    """
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
    two_core = any(config.two_core_ccm for config in configs)
    return FuzzCase(seed, spec, core_count=rng.choice((2, 4) if two_core else (1, 2, 4)))


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
    #: ``(instructions_retired, halted_cycles)`` of each core's controller.
    controllers: List[tuple] = dataclasses.field(default_factory=list)


#: Tasks shorter than this many data blocks have no steady loop to check.
LOOP_MIN_BLOCKS = 16
#: Most SAES issue intervals of one task (one block pair for one-core
#: CCM) that may differ from its loop period: the prologue (E(0), E(J0)
#: or B0 and the first counter) and the final, masked block.
LOOP_OUTLIERS = 4
#: The paper's T_XOR (T_CBC - T_CTR): a CCM decrypt block chains one
#: more XOR than an encrypt block (plaintext must exist before it enters
#: the CBC chain).  Section VII.A gives encryption periods only.
PAPER_T_XOR = PAPER_T_CBC_128 - PAPER_T_GCM_128

_PAPER_MODES = {Algorithm.GCM: "gcm", Algorithm.CTR: "ctr", Algorithm.CBC_MAC: "cbc"}


def _paper_period(params) -> int:
    """Section VII.A's loop period of *params*' task (of its core pair
    for two-core CCM)."""
    if params.algorithm is not Algorithm.CCM:
        return paper_loop_cycles(_PAPER_MODES[params.algorithm], params.key_bits)
    mode = "ccm1" if params.role is CcmRole.SINGLE else "ccm2"
    extra = PAPER_T_XOR if params.direction is Direction.DECRYPT else 0
    return paper_loop_cycles(mode, params.key_bits) + extra


def _saes_intervals(cycles: List[int], stride: int) -> List[int]:
    return [b - a for a, b in zip(cycles[::stride], cycles[stride::stride])]


def loop_period_errors(mccp) -> List[str]:
    """Every task of >= :data:`LOOP_MIN_BLOCKS` data blocks in *mccp*'s
    trace that does not loop at the paper's period.

    Each CU's ``issue`` rows are split by task at the core's
    ``task_start`` rows, and the task's parameters are those of the
    request that assigned it (requests assign their cores in submit
    order).  A task's modal SAES issue interval (stride 2 for one-core
    CCM, which issues two SAES per block) must equal
    :func:`~repro.analysis.cycles.paper_loop_cycles` for its mode and key
    size, with at most :data:`LOOP_OUTLIERS` other intervals.  A
    two-core CCM pair loops at the slower core's period, which must be
    T_CBC.
    """
    assigned: Dict[int, List[Tuple[int, object]]] = {}
    for request in mccp.scheduler.requests.values():
        for core, task in zip(request.core_indices, request.tasks):
            assigned.setdefault(core, []).append((request.request_id, task.params))
    names = {core.name: core.index for core in mccp.cores}
    units = {f"{core.name}.cu": core.index for core in mccp.cores}
    started: Dict[int, int] = {}
    saes: Dict[Tuple[int, int], List[int]] = {}
    for event in mccp.trace.events:
        if event.kind == "task_start" and event.component in names:
            core = names[event.component]
            started[core] = started.get(core, -1) + 1
            saes[core, started[core]] = []
        elif event.kind == "issue" and event.details.get("op") == "SAES":
            core = units[event.component]
            saes[core, started[core]].append(event.cycle)
    errors: List[str] = []
    pairs: Dict[int, List[Tuple[int, int]]] = {}
    for (core, index), cycles in sorted(saes.items()):
        request_id, params = assigned[core][index]
        if params.data_blocks < LOOP_MIN_BLOCKS:
            continue
        label = f"request {request_id} on core {core}"
        stride = 2 if params.algorithm is Algorithm.CCM and params.role is CcmRole.SINGLE else 1
        counts = Counter(_saes_intervals(cycles, stride))
        period, hits = counts.most_common(1)[0] if counts else (None, 0)
        others = sum(counts.values()) - hits
        if others > LOOP_OUTLIERS:
            errors.append(f"{label}: {others} SAES intervals off the loop period {period}")
        if params.role is CcmRole.SINGLE:
            if period != _paper_period(params):
                errors.append(f"{label}: loop period {period}, paper {_paper_period(params)}")
        else:
            pairs.setdefault(request_id, []).append((period, _paper_period(params)))
    for request_id, periods in sorted(pairs.items()):
        loop, paper = max(periods)
        if len(periods) == 2 and loop != paper:
            errors.append(f"request {request_id}: two-core CCM loops at {loop}, paper {paper}")
    return errors


def _alone():
    """Every deferred dispatch computes alone: no shared engine call."""
    return mock.patch.object(batch, "resolve_deferred", lambda handles: None)


def _run(
    case: FuzzCase,
    alone: bool,
    traced: bool = False,
    stepping: bool = False,
    reference: bool = False,
) -> _Outcome:
    plan = None
    if case.batch_error_rate:
        plan = FaultPlan(seed=case.seed, rates={"batch_error": case.batch_error_rate})
    with injected_faults(plan), _alone() if alone else nullcontext():
        if isinstance(case.shape, WorkloadSpec):
            platform = SdrPlatform(seed=case.seed, core_count=case.core_count)
            platform.mccp.trace.enabled = traced
            if stepping:
                # Interrupts on, and none ever raised: a controller then
                # runs each instruction on its own kernel entry.
                for core in platform.mccp.cores:
                    core.controller.interrupts_enabled = True
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
    outcome.controllers = [
        (core.controller.instructions_retired, core.controller.halted_cycles)
        for core in platform.mccp.cores
    ]
    if traced:
        outcome.errors += loop_period_errors(platform.mccp)
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
            _check_one(outcome.errors, transfer, key_of(transfer), channel, reference)
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


def _check_one(errors: List[str], transfer, key: bytes, channel, reference: bool) -> None:
    """One completion against the per-packet one-call path, or with
    *reference* against the reference modes."""
    job = transfer.job
    label = f"channel {job.channel_id} seq {job.sequence}"
    gcm = channel.algorithm is Algorithm.GCM
    if reference:
        seal, open_ = (gcm_encrypt, gcm_decrypt) if gcm else (ccm_encrypt, ccm_decrypt)
    else:
        seal, open_ = (bulk.gcm_seal, bulk.gcm_open) if gcm else (bulk.ccm_seal, bulk.ccm_open)
    if job.direction is Direction.ENCRYPT:
        expected = seal(key, job.nonce, job.data, job.aad, channel.tag_length)
        if not transfer.ok or (transfer.payload, transfer.tag) != expected:
            oracle = "the reference" if reference else "the bulk path"
            errors.append(f"{label}: sealed output differs from {oracle}")
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
    """Replay *case* on ``cores`` (traced, for the loop periods, and
    checked against the reference modes), on ``cores`` with every
    controller stepping at the kernel, and on ``batched``; every broken
    invariant, or []."""
    cores = _run(case, alone=False, traced=True, reference=True)
    stepping = _run(case, alone=False, stepping=True)
    batched = _run(
        dataclasses.replace(case, shape=dataclasses.replace(case.shape, dataplane="batched")),
        alone=False,
    )
    errors = [f"cores: {e}" for e in cores.errors + _invariants(cores)]
    errors += [f"batched: {e}" for e in batched.errors + _invariants(batched)]
    stepped = (stepping.rows, stepping.report, stepping.controllers)
    if (cores.rows, cores.report, cores.controllers) != stepped:
        errors.append("cores: cycles differ from a replay with its controllers stepping")
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

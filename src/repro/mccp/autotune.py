"""Adaptive flush controller.

The batched dataplane's knobs — ``coalesce_limit`` and
``flush_deadline`` — used to be static per channel, but the best
settings depend on the traffic: bursty control packets want
near-immediate flushes (latency), sustained bulk wants wide coalescing
(throughput).  :class:`FlushController` closes the feedback loop the
workload reports already expose.  It is the per-channel online
controller behind ``FlushPolicy(mode="auto")``: it observes windowed
statistics in *simulated* cycles (arrival counts, mean packet size,
queue occupancy, realized batch width, flush-cause mix, arrival
clustering) and retunes the channel's ``coalesce_limit`` /
``flush_deadline`` at window boundaries.  Every decision is recorded
in a trace (window stats in, knobs out, cause) so "why did it widen
here" is answerable offline from any sweep artifact.

Determinism contract
--------------------
Decisions are pure functions of ``(seed, window stats)`` —
:func:`decide_knobs` holds no state and draws no randomness — and the
observation points are simulated-time events (enqueues and flushes),
which are identical across execution backends and across the batched /
pipelined dataplanes.  Repeating a seeded workload therefore reproduces
the decision trace exactly, on any backend.  The controller only moves
*batching geometry*: payload bytes are untouched, so an auto run is
byte-identical to every static setting (the ``autotune_sweep`` scenario
pins this with a hard digest-equality gate).

The knob rules are deliberately conservative so auto can never lose to
the defaults on throughput:

- **widen** under saturation (size-triggered flushes with the queue at
  ≥ 2x the current width): doubling the width halves the per-dispatch
  control overhead on a backlog — a pure throughput win;
- **retarget the deadline** when traffic is idle-dominated (deadline
  flushes only): aim just above the observed arrival-cluster span, so
  a burst still coalesces into one batch but stops waiting out a
  deadline sized for bulk — a pure latency win that leaves the
  dispatch geometry (and therefore total cycles) intact;
- otherwise **hold**.  Narrowing the width is never attempted: on
  idle-dominated traffic the width cap is inert, and shrinking it
  could only split batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "AutotuneConfig",
    "Decision",
    "FlushController",
    "WindowStats",
    "decide_knobs",
]


@dataclass(frozen=True)
class AutotuneConfig:
    """Tuning envelope for the adaptive controller (all sim cycles).

    Also the value carried by ``WorkloadSpec(autotune=...)``: the
    platform installs it on the communication controller for the run.
    """

    #: Observation-window length.  Windows close lazily at the first
    #: enqueue/flush event past the boundary, so no timer events are
    #: added to the simulation.
    window_cycles: int = 8192
    #: Widening ceiling for ``coalesce_limit``.
    max_coalesce: int = 128
    #: Deadline retarget floor (0 = same-cycle flushes for truly
    #: sparse traffic) and ceiling.
    deadline_floor: int = 0
    deadline_ceiling: int = 32768
    #: Enqueues further apart than this start a new arrival cluster;
    #: the max cluster span feeds the deadline retarget.
    cluster_gap: int = 256

    def __post_init__(self) -> None:
        if self.window_cycles < 1:
            raise ValueError(
                f"window_cycles must be >= 1, got {self.window_cycles}"
            )
        if self.max_coalesce < 1:
            raise ValueError(
                f"max_coalesce must be >= 1, got {self.max_coalesce}"
            )
        if self.deadline_floor < 0 or self.deadline_ceiling < self.deadline_floor:
            raise ValueError(
                "deadline bounds must satisfy 0 <= floor <= ceiling, got "
                f"[{self.deadline_floor}, {self.deadline_ceiling}]"
            )


@dataclass(frozen=True)
class WindowStats:
    """One closed observation window, as the decision function sees it."""

    window_index: int
    start_cycle: int
    end_cycle: int
    #: Jobs enqueued / payload bytes they carried.
    jobs: int = 0
    bytes: int = 0
    #: Deepest the coalescing queue got inside the window.
    queue_peak: int = 0
    #: Batch-engine dispatches and the jobs they moved.
    dispatches: int = 0
    dispatched_jobs: int = 0
    #: Flush-cause mix.
    size_flushes: int = 0
    deadline_flushes: int = 0
    forced_flushes: int = 0
    #: Widest span (cycles) of any arrival cluster — consecutive
    #: enqueues closer than ``AutotuneConfig.cluster_gap``.
    max_cluster_span: int = 0
    #: Priority class -> enqueued jobs (0 = control, 1 = interactive,
    #: 2 = bulk), sorted for stable serialization.
    class_mix: Tuple[Tuple[int, int], ...] = ()

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe form for decision traces and sweep artifacts."""
        return {
            "window": self.window_index,
            "start_cycle": self.start_cycle,
            "end_cycle": self.end_cycle,
            "jobs": self.jobs,
            "bytes": self.bytes,
            "queue_peak": self.queue_peak,
            "dispatches": self.dispatches,
            "dispatched_jobs": self.dispatched_jobs,
            "size_flushes": self.size_flushes,
            "deadline_flushes": self.deadline_flushes,
            "forced_flushes": self.forced_flushes,
            "max_cluster_span": self.max_cluster_span,
            "class_mix": {str(k): v for k, v in self.class_mix},
        }


@dataclass(frozen=True)
class Decision:
    """One controller decision: window stats in, knobs out, cause."""

    stats: WindowStats
    coalesce_before: int
    deadline_before: Optional[int]
    coalesce_after: int
    deadline_after: Optional[int]
    cause: str

    @property
    def changed(self) -> bool:
        return (
            self.coalesce_before != self.coalesce_after
            or self.deadline_before != self.deadline_after
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe trace entry (what sweep artifacts carry)."""
        return {
            **self.stats.as_dict(),
            "coalesce_before": self.coalesce_before,
            "deadline_before": self.deadline_before,
            "coalesce_after": self.coalesce_after,
            "deadline_after": self.deadline_after,
            "cause": self.cause,
        }


def decide_knobs(
    seed: int,
    stats: WindowStats,
    coalesce_limit: int,
    flush_deadline: Optional[int],
    config: AutotuneConfig,
) -> Tuple[int, Optional[int], str]:
    """The controller's decision step — a pure function.

    Returns ``(coalesce_limit, flush_deadline, cause)`` for the next
    window.  Holds no state and draws no randomness: identical
    ``(seed, stats)`` always yield identical knobs, which is what makes
    decision traces reproducible across repeats and backends.  *seed*
    is threaded through (and recorded in the trace) so future policies
    may dither deterministically; the shipped rules do not use it.
    """
    del seed  # reserved for deterministic dithering
    if stats.jobs == 0 and stats.dispatches == 0:
        return coalesce_limit, flush_deadline, "hold:idle"
    # Saturation: size-triggered (or explicitly forced) flushes with
    # the queue far outrunning the width.  Widening amortises the
    # per-dispatch control overhead across more packets — strictly
    # fewer dispatches for the same backlog, so throughput can only
    # improve.  An end-of-stream forced flush of a short tail cannot
    # trip this: its window's queue peak sits under the 2x bar.
    if (
        stats.size_flushes + stats.forced_flushes > 0
        and stats.queue_peak >= 2 * coalesce_limit
        and coalesce_limit < config.max_coalesce
    ):
        return (
            min(config.max_coalesce, coalesce_limit * 2),
            flush_deadline,
            "widen:saturated",
        )
    # Idle-dominated: every flush was the deadline forcing out an
    # under-filled batch.  Retarget the deadline just above the widest
    # arrival cluster: bursts still coalesce into one batch (geometry,
    # and so total cycles, unchanged) but stop waiting out a deadline
    # sized for bulk.  The 2x band is the hysteresis that keeps steady
    # traffic from oscillating.
    if (
        stats.size_flushes == 0
        and stats.deadline_flushes > 0
        and flush_deadline is not None
    ):
        target = max(config.deadline_floor, 2 * stats.max_cluster_span)
        target = min(target, config.deadline_ceiling)
        if target < flush_deadline // 2 or target > flush_deadline * 2:
            return coalesce_limit, target, "deadline:retarget"
    return coalesce_limit, flush_deadline, "hold:steady"


class _WindowAccumulator:
    """Mutable counters for the window currently being observed."""

    __slots__ = (
        "start_cycle", "jobs", "bytes", "queue_peak", "dispatches",
        "dispatched_jobs", "causes", "max_cluster_span", "class_mix",
    )

    def __init__(self, start_cycle: int):
        self.start_cycle = start_cycle
        self.jobs = 0
        self.bytes = 0
        self.queue_peak = 0
        self.dispatches = 0
        self.dispatched_jobs = 0
        self.causes: Dict[str, int] = {}
        self.max_cluster_span = 0
        self.class_mix: Dict[int, int] = {}

    def freeze(self, window_index: int, end_cycle: int) -> WindowStats:
        return WindowStats(
            window_index=window_index,
            start_cycle=self.start_cycle,
            end_cycle=end_cycle,
            jobs=self.jobs,
            bytes=self.bytes,
            queue_peak=self.queue_peak,
            dispatches=self.dispatches,
            dispatched_jobs=self.dispatched_jobs,
            size_flushes=self.causes.get("size", 0),
            deadline_flushes=self.causes.get("deadline", 0),
            forced_flushes=self.causes.get("forced", 0),
            max_cluster_span=self.max_cluster_span,
            class_mix=tuple(sorted(self.class_mix.items())),
        )


class FlushController:
    """Online per-channel controller behind ``FlushPolicy(mode="auto")``.

    Attached to a channel (``Channel.autotune``) by the communication
    controller the first time a job is submitted under an auto policy.
    The two observation hooks — :meth:`observe_enqueue` and
    :meth:`observe_flush` — are called from the dataplane's existing
    event points; window boundaries are checked there, so the
    controller adds no events to the simulation and costs nothing on
    channels running a fixed policy.
    """

    def __init__(
        self,
        channel_id: int,
        seed: int = 0,
        config: Optional[AutotuneConfig] = None,
    ):
        self.channel_id = channel_id
        self.seed = seed
        self.config = config or AutotuneConfig()
        #: Every closed window's decision, including holds.
        self.trace: List[Decision] = []
        #: Decisions that actually changed a knob.
        self.adjustments = 0
        self._window_index = 0
        self._window: Optional[_WindowAccumulator] = None
        self._last_enqueue: Optional[int] = None
        self._cluster_start: Optional[int] = None

    # -- observation hooks ------------------------------------------------------

    def observe_enqueue(self, channel, job, now: int) -> None:
        """Record one enqueued job; may close a window and retune."""
        self._maybe_close(channel, now)
        window = self._window
        if window is None:
            window = self._window = _WindowAccumulator(now)
        window.jobs += 1
        window.bytes += len(job.data)
        depth = channel.pending_count
        if depth > window.queue_peak:
            window.queue_peak = depth
        window.class_mix[job.priority] = (
            window.class_mix.get(job.priority, 0) + 1
        )
        last = self._last_enqueue
        if last is None or now - last > self.config.cluster_gap:
            self._cluster_start = now
        else:
            span = now - (self._cluster_start if self._cluster_start is not None else now)
            if span > window.max_cluster_span:
                window.max_cluster_span = span
        self._last_enqueue = now

    def observe_flush(self, channel, cause: str, width: int, now: int) -> None:
        """Record one dispatched batch; may close a window and retune."""
        self._maybe_close(channel, now)
        window = self._window
        if window is None:
            window = self._window = _WindowAccumulator(now)
        window.dispatches += 1
        window.dispatched_jobs += width
        window.causes[cause] = window.causes.get(cause, 0) + 1
        # Sample the backlog here too: on saturating traffic the whole
        # burst may enqueue in one window while every dispatch lands in
        # later ones — the widen rule needs those windows to see the
        # queue the dispatches are working off.
        backlog = channel.pending_count
        if backlog > window.queue_peak:
            window.queue_peak = backlog

    # -- window lifecycle -------------------------------------------------------

    def _maybe_close(self, channel, now: int) -> None:
        window = self._window
        if window is None:
            return
        if now - window.start_cycle < self.config.window_cycles:
            return
        stats = window.freeze(self._window_index, now)
        policy = channel.flush_policy
        new_limit, new_deadline, cause = decide_knobs(
            self.seed, stats, policy.coalesce_limit, policy.flush_deadline,
            self.config,
        )
        decision = Decision(
            stats=stats,
            coalesce_before=policy.coalesce_limit,
            deadline_before=policy.flush_deadline,
            coalesce_after=new_limit,
            deadline_after=new_deadline,
            cause=cause,
        )
        self.trace.append(decision)
        if decision.changed:
            self.adjustments += 1
            # In-place knob update: validity is guaranteed by
            # decide_knobs' clamps, and the policy object identity is
            # preserved for anything holding a reference.
            policy.coalesce_limit = new_limit
            policy.flush_deadline = new_deadline
        self._window_index += 1
        self._window = _WindowAccumulator(now)

    # -- reporting --------------------------------------------------------------

    def trace_dicts(self) -> List[Dict[str, object]]:
        """The decision trace as JSON-safe dicts (artifact form)."""
        return [decision.as_dict() for decision in self.trace]

    def settled(self, within_windows: int) -> bool:
        """Whether every knob change happened in the first N windows.

        The convergence property the test suite pins for steady
        profiles: after at most *within_windows* decisions, the trace
        is all holds (no oscillation).
        """
        return all(
            not decision.changed
            for decision in self.trace[within_windows:]
        )

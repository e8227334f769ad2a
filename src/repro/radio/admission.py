"""Admission control and prioritized load shedding.

The overload-protection decision point of the dataplane: before a
packet is formatted into a job, the :class:`AdmissionController`
answers **admit / defer / shed** from three deterministic inputs —

- the target channel's bounded-queue state (depth against its high
  watermark, and the sticky :attr:`~repro.mccp.channel.Channel
  .under_pressure` hysteresis flag between the low and high marks),
- a token bucket refilled in *simulated* cycles (the sustained-rate
  limit; burst capacity absorbs spikes), and
- the packet's priority class (``0`` = control, ``1`` = interactive,
  ``2`` = bulk — lower is more important, matching
  :attr:`repro.radio.packet.Packet.priority`).

Shedding is *lowest priority first*: while a channel is under pressure
only bulk-class traffic sheds; at the high watermark everything above
the protected class sheds and control defers instead.  Every decision
is a pure function of simulation state, so the shed set is identical
across repeated runs, execution backends and dataplanes — the
reproducibility invariant the overload suite pins.  Shed packets are
accounted here (never as auth failures or dead letters) and the exact
``(channel, sequence)`` set is exposed for byte-identity checks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.mccp.channel import Channel
from repro.sim.kernel import Delay

__all__ = [
    "AdmissionDecision",
    "AdmissionPolicy",
    "AdmissionController",
    "TokenBucket",
    "PRIORITY_CLASS_NAMES",
    "priority_class_name",
]

#: Canonical names of the three priority classes (control > interactive
#: > bulk; lower integer = more important).
PRIORITY_CLASS_NAMES: Dict[int, str] = {
    0: "control",
    1: "interactive",
    2: "bulk",
}


def priority_class_name(priority: int) -> str:
    """Human name for a priority class (``"p<N>"`` beyond the three)."""
    return PRIORITY_CLASS_NAMES.get(priority, f"p{priority}")


class AdmissionDecision(enum.Enum):
    """Outcome of one per-packet admission check."""

    #: Enqueue now.
    ADMIT = "admit"
    #: Wait :attr:`AdmissionPolicy.defer_cycles` and re-decide.
    DEFER = "defer"
    #: Drop the packet (accounted, reproducible; never an error).
    SHED = "shed"


@dataclass(frozen=True)
class AdmissionPolicy:
    """Knobs for one :class:`AdmissionController`."""

    #: Sustained admission rate in packets per 1000 simulated cycles
    #: (None = no rate limit; watermark shedding still applies).
    rate_per_kcycle: Optional[float] = None
    #: Token-bucket burst capacity in packets.
    burst: int = 32
    #: Cycles a deferred packet waits before it is re-decided.
    defer_cycles: int = 200
    #: Defers one packet may accumulate before it sheds anyway
    #: ("defer_budget" cause) — bounds head-of-line blocking.
    max_defers: int = 8
    #: Classes <= this value are never shed by watermark pressure;
    #: they defer instead (0 protects control only).
    protect_priority: int = 0
    #: Classes >= this value shed while a channel is under pressure
    #: (between the low and high watermarks, hysteresis); at the high
    #: watermark every unprotected class sheds.
    shed_first_priority: int = 2

    def __post_init__(self) -> None:
        if self.rate_per_kcycle is not None and self.rate_per_kcycle <= 0:
            raise ValueError(
                f"rate_per_kcycle must be > 0 or None, got "
                f"{self.rate_per_kcycle}"
            )
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        if self.defer_cycles < 1:
            raise ValueError(
                f"defer_cycles must be >= 1, got {self.defer_cycles}"
            )
        if self.max_defers < 0:
            raise ValueError(
                f"max_defers must be >= 0, got {self.max_defers}"
            )
        if self.shed_first_priority <= self.protect_priority:
            raise ValueError(
                "shed_first_priority must exceed protect_priority "
                f"(got {self.shed_first_priority} <= "
                f"{self.protect_priority})"
            )


class TokenBucket:
    """Deterministic token bucket refilled by simulated cycles.

    Starts full.  ``take(now)`` refills ``rate * elapsed`` tokens
    (fractional accumulation, capped at ``burst``) and consumes one if
    available.  Everything derives from the sim clock, so replays are
    exact whatever wall-clock the backends take.
    """

    def __init__(self, rate_per_cycle: float, burst: int):
        self.rate = rate_per_cycle
        self.burst = float(burst)
        self.tokens = float(burst)
        self._last_cycle = 0

    def take(self, now: int) -> bool:
        """Consume one token at sim-cycle *now* (False = empty)."""
        if now > self._last_cycle:
            self.tokens = min(
                self.burst, self.tokens + (now - self._last_cycle) * self.rate
            )
            self._last_cycle = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass
class _ShedRecord:
    """One shed packet (the reproducible accounting unit)."""

    channel_id: int
    sequence: int
    priority: int
    cause: str  # "watermark", "pressure", or "defer_budget"


class AdmissionController:
    """Per-run admit/defer/shed decisions plus their accounting."""

    def __init__(self, policy: AdmissionPolicy):
        self.policy = policy
        self._bucket: Optional[TokenBucket] = None
        if policy.rate_per_kcycle is not None:
            self._bucket = TokenBucket(
                policy.rate_per_kcycle / 1000.0, policy.burst
            )
        #: Admitted packets per priority class.
        self.admitted: Dict[int, int] = {}
        #: Total defer waits taken (a packet may defer several times).
        self.deferrals = 0
        #: Shed packets, in decision order.
        self.shed_log: List[_ShedRecord] = []

    # -- decision ----------------------------------------------------------

    def decide(
        self, channel: Channel, priority: int, now: int
    ) -> AdmissionDecision:
        """One admission check (consumes a token only on ADMIT)."""
        policy = self.policy
        if channel.capacity is not None:
            depth = channel.pending_count
            if depth >= channel.capacity:
                # High watermark: shed everything unprotected, defer
                # the protected (control) classes.
                if priority > policy.protect_priority:
                    return AdmissionDecision.SHED
                return AdmissionDecision.DEFER
            if (
                channel.under_pressure
                and priority >= policy.shed_first_priority
            ):
                # Hysteresis band: lowest classes shed first so the
                # queue drains for the traffic that matters.
                return AdmissionDecision.SHED
        if self._bucket is not None and not self._bucket.take(now):
            return AdmissionDecision.DEFER
        return AdmissionDecision.ADMIT

    # -- accounting --------------------------------------------------------

    def note_admitted(self, priority: int) -> None:
        self.admitted[priority] = self.admitted.get(priority, 0) + 1

    def note_shed(
        self, channel_id: int, sequence: int, priority: int, cause: str
    ) -> None:
        self.shed_log.append(
            _ShedRecord(channel_id, sequence, priority, cause)
        )

    def shed_set(self) -> frozenset:
        """The exact shed set as ``(channel_id, sequence)`` pairs."""
        return frozenset((r.channel_id, r.sequence) for r in self.shed_log)

    def shed_by_class(self) -> Dict[int, int]:
        """Shed counts per priority class."""
        out: Dict[int, int] = {}
        for record in self.shed_log:
            out[record.priority] = out.get(record.priority, 0) + 1
        return out

    def shed_causes(self) -> Dict[str, int]:
        """Shed counts per cause (watermark/pressure/defer_budget)."""
        out: Dict[str, int] = {}
        for record in self.shed_log:
            out[record.cause] = out.get(record.cause, 0) + 1
        return out

    # -- the producer-side gate -------------------------------------------

    def gate(self, sim, channel: Channel, priority: int, sequence: int):
        """Generator: defer in sim time until ADMIT (True) or SHED (False).

        The one admission loop every producer (workload channel
        processes, session processes) runs: deciding, sleeping out
        defers, and accounting the shed — so the defer budget and shed
        causes cannot drift between the dataplanes.  The caller
        enqueues only on a True return (and must call
        :meth:`note_admitted` once the enqueue succeeds).
        """
        defers = 0
        while True:
            decision = self.decide(channel, priority, sim.now)
            if decision is AdmissionDecision.ADMIT:
                return True
            if decision is AdmissionDecision.SHED:
                cause = (
                    "watermark"
                    if channel.capacity is not None
                    and channel.pending_count >= channel.capacity
                    else "pressure"
                )
                self.note_shed(channel.channel_id, sequence, priority, cause)
                return False
            if defers >= self.policy.max_defers:
                self.note_shed(
                    channel.channel_id, sequence, priority, "defer_budget"
                )
                return False
            defers += 1
            self.deferrals += 1
            yield Delay(self.policy.defer_cycles)

"""Deterministic multi-channel traffic generation.

Workload generators for the benchmarks: constant-bit-rate, bursty and
saturating patterns per channel, seeded for reproducibility.  Arrival
times are expressed in MCCP clock cycles so they can be fed straight
into the discrete-event simulation.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from typing import Iterator, List

from repro.radio.packet import MAX_PAYLOAD_BYTES, Packet
from repro.radio.standards import StandardProfile


class TrafficPattern(enum.Enum):
    """Arrival-process families."""

    SATURATING = "saturating"   # next packet as soon as possible
    CBR = "cbr"                 # constant bit rate at the nominal rate
    BURSTY = "bursty"           # geometric bursts with idle gaps
    POISSON = "poisson"         # exponential interarrivals at the rate
    DIURNAL = "diurnal"         # Poisson with a day-shaped rate curve


@dataclass(frozen=True)
class GeneratedPacket:
    """A packet plus its arrival cycle."""

    arrival_cycle: int
    packet: Packet


class TrafficGenerator:
    """Produces a deterministic packet schedule for one channel."""

    def __init__(
        self,
        channel_id: int,
        profile: StandardProfile,
        pattern: TrafficPattern = TrafficPattern.SATURATING,
        clock_hz: float = 190e6,
        seed: int = 0,
        priority: int = 1,
    ):
        self.channel_id = channel_id
        self.profile = profile
        self.pattern = pattern
        self.clock_hz = clock_hz
        self.priority = priority
        self._rng = random.Random((seed << 8) ^ channel_id)

    def _payload(self, size: int) -> bytes:
        """*size* random bytes, each the top byte of one 32-bit draw.

        ``getrandbits(8)`` keeps the top byte of one 32-bit draw, and
        ``getrandbits(32 * size)`` packs *size* draws little-endian, so
        every fourth byte of one big draw gives the same bytes and
        leaves the same rng state as *size* ``getrandbits(8)`` calls.
        """
        return self._rng.getrandbits(32 * size).to_bytes(4 * size, "little")[3::4]

    def _interarrival_cycles(self) -> int:
        bits = 8 * self.profile.payload_bytes
        rate = self.profile.nominal_rate_mbps * 1e6
        return max(1, int(bits / rate * self.clock_hz))

    def generate(self, count: int) -> List[GeneratedPacket]:
        """Generate *count* packets with arrival cycles."""
        out: List[GeneratedPacket] = []
        cycle = 0
        burst_left = 0
        for seq in range(count):
            size = min(self.profile.payload_bytes, MAX_PAYLOAD_BYTES)
            pkt = Packet(
                channel_id=self.channel_id,
                header=self._payload(self.profile.header_bytes),
                payload=self._payload(size),
                sequence=seq,
                created_cycle=cycle,
                priority=self.priority,
            )
            out.append(GeneratedPacket(cycle, pkt))
            if self.pattern is TrafficPattern.SATURATING:
                cycle += 1
            elif self.pattern is TrafficPattern.CBR:
                cycle += self._interarrival_cycles()
            elif self.pattern is TrafficPattern.POISSON:
                # Memoryless arrivals at the nominal rate: exponential
                # interarrival around the CBR gap (seeded, so the
                # schedule is a pure function of (seed, channel)).
                mean = self._interarrival_cycles()
                cycle += max(1, int(self._rng.expovariate(1.0 / mean)))
            elif self.pattern is TrafficPattern.DIURNAL:
                # A "day" compressed into the schedule: the arrival
                # rate follows one raised-cosine period across the
                # packet count, peaking mid-schedule at the nominal
                # rate and troughing at a fifth of it — Poisson jitter
                # on top.  Deterministic like every other pattern.
                mean = self._interarrival_cycles()
                phase = seq / max(1, count)
                load = 0.2 + 0.8 * (0.5 - 0.5 * math.cos(2 * math.pi * phase))
                cycle += max(
                    1, int(self._rng.expovariate(load / mean))
                )
            else:  # BURSTY
                if burst_left > 0:
                    burst_left -= 1
                    cycle += 1
                else:
                    burst_left = self._rng.randint(2, 8)
                    cycle += self._interarrival_cycles() * self._rng.randint(2, 6)
        return out

    def stream(self, count: int) -> Iterator[GeneratedPacket]:
        """Iterator form of :meth:`generate`."""
        return iter(self.generate(count))

"""Shared helpers for the built-in scenarios.

``deterministic_bytes`` is also the payload generator of
``benchmarks/bench_reference_crypto.py``.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

from repro.core.crypto_core import CryptoCore
from repro.core.harness import run_task
from repro.crypto.aes import expand_key
from repro.mccp.crossbar import Crossbar
from repro.radio.formatting import expected_output_words
from repro.sim.kernel import Simulator
from repro.unit.timing import DEFAULT_TIMING

#: The paper's clock: 190 MHz.
CLOCK_HZ = 190e6

#: Session keys by width for the table scenarios.
KEYS = {128: bytes(range(16)), 192: bytes(range(24)), 256: bytes(range(32))}


def deterministic_bytes(n: int, seed: int) -> bytes:
    """Seeded pseudorandom byte string (stable run to run).

    One generator must serve the whole string: re-seeding per byte
    would collapse the output to a single repeated value, and
    constant-byte packets are both unrepresentative of radio traffic
    and ~2x slower through numpy's fancy-indexing gathers than
    realistic data, which understated every gather-based kernel.
    """
    return random.Random(seed).randbytes(n)


def packet_mbps(payload_bytes: int, cycles: int) -> float:
    """Throughput of one packet at the paper's 190 MHz clock."""
    return 8 * payload_bytes * CLOCK_HZ / cycles / 1e6


def run_single_core(task, key: Optional[bytes]) -> Tuple[object, CryptoCore, Simulator]:
    """One task on one fresh core; returns (run, core, sim)."""
    sim = Simulator()
    core = CryptoCore(sim, DEFAULT_TIMING)
    if key is not None:
        core.key_cache.install(expand_key(key), 8 * len(key))
    return run_task(sim, core, task), core, sim


def run_two_core_ccm(mac_task, ctr_task, key: bytes) -> int:
    """Paper section VII.A's 2-core CCM mapping; returns cycles."""
    sim = Simulator()
    c0 = CryptoCore(sim, DEFAULT_TIMING, index=0)
    c1 = CryptoCore(sim, DEFAULT_TIMING, index=1)
    c0.unit.ic_out = c1.unit.ic_in
    c1.unit.ic_out = c0.unit.ic_in
    for core in (c0, c1):
        core.key_cache.install(expand_key(key), 8 * len(key))
    crossbar = Crossbar(DEFAULT_TIMING)
    crossbar.upload_blocks(c0, mac_task.input_blocks)
    crossbar.upload_blocks(c1, ctr_task.input_blocks)
    crossbar.download_words(c1, [], expected_output_words(ctr_task))
    c0.assign_task(mac_task.params)
    done = c1.assign_task(ctr_task.params)
    result = sim.run_until_event(done, limit=100_000_000)
    return result.cycles

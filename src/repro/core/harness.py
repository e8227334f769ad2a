"""Single-core driving harness (feeder/drainer processes).

Used by tests and benchmarks to run one formatted task on one core
without standing up the whole MCCP: a feeder streams input words into
the core FIFO under flow control (one 32-bit word per crossbar cycle,
as the communication controller would) and a drainer empties the
output FIFO the same way.  Both are runs on the FIFO's arrival
schedule, exactly as the crossbar's transfers are.

The full-device path lives in :mod:`repro.radio.comm_controller`; this
harness mirrors its per-word timing so single-core numbers match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.crypto_core import CoreResult, CryptoCore
from repro.radio.formatting import FormattedTask
from repro.sim.kernel import Simulator
from repro.utils.bits import bytes_to_words32, words32_to_bytes


@dataclass
class TaskRun:
    """Outcome of a harness run."""

    result: CoreResult
    output: bytes
    feed_done_cycle: int


def feeder_process(core: CryptoCore, blocks: List[bytes], word_cycles: int = 1):
    """Process: stream *blocks* into the core's input FIFO under flow
    control; returns the cycle the stream ended (one period after its
    last word)."""
    words = bytes_to_words32(b"".join(blocks))
    end = yield core.in_fifo.stream_in(words, word_cycles, in_step=True).done
    return end


def drainer_process(core: CryptoCore, sink: List[int], word_cycles: int = 1):
    """Process: drain the core's output FIFO into *sink* (words), one
    word per *word_cycles*, until ``core.out_fifo.stop_drain()``.

    *sink* fills as the FIFO catches up: any read of the FIFO (or
    ``core.out_fifo.sync()``) brings it up to the reader's cycle.
    """
    core.out_fifo.drain_out(sink, None, word_cycles, in_step=True)
    return
    yield  # a generator, like every process


def run_task(
    sim: Simulator,
    core: CryptoCore,
    task: FormattedTask,
    drain: Optional[bool] = None,
    limit: int = 100_000_000,
) -> TaskRun:
    """Run one formatted task to completion on *core*.

    The caller must have installed the key schedule already.  Returns
    the core result plus the drained output stream.

    By default decrypt tasks are *not* drained while running: the real
    communication controller only reads after RETRIEVE DATA returns OK,
    which is what lets the FIFO purge on authentication failure protect
    the plaintext (paper section IV.C).  Decrypt output (<= 128 blocks)
    always fits the FIFO, so deferred draining cannot deadlock.

    *limit* is a cycle budget counted from the call, so a simulator
    that has already run for a long time gets the same budget.
    """
    from repro.core.params import Direction

    if drain is None:
        drain = task.params.direction is not Direction.DECRYPT
    feeder = sim.add_process(
        feeder_process(core, task.input_blocks), name=f"{core.name}.feed"
    )
    sink: List[int] = []
    if drain:
        sim.add_process(drainer_process(core, sink), name=f"{core.name}.drain")
    done = core.assign_task(task.params)
    result: CoreResult = sim.run_until_event(done, limit=sim.now + limit)
    # Let the drainer catch up with any words still in flight, then
    # retire it so a later run_task on this core starts clean.
    core.out_fifo.sync()
    sim.run(until=sim.now + 8 * (len(sink) + 64))
    if drain:
        core.out_fifo.stop_drain()
    while core.out_fifo.can_pop():
        sink.append(core.out_fifo.pop_word())
    feed_cycle = feeder.done.value if feeder.done.triggered else sim.now
    return TaskRun(
        result=result, output=words32_to_bytes(sink), feed_done_cycle=feed_cycle
    )

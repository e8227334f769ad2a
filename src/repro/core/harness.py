"""Single-core driving harness.

Used by tests and benchmarks to run one formatted task on one core
without standing up the whole MCCP.  Words cross the core's FIFOs
through a :class:`~repro.mccp.crossbar.Crossbar`, as on the device: the
input stream is one upload and the output one download of
:func:`~repro.radio.formatting.expected_output_words` words, one 32-bit
word per crossbar cycle, so single-core numbers match the full-device
path in :mod:`repro.radio.comm_controller`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.crypto_core import CoreResult, CryptoCore
from repro.core.params import Direction
from repro.mccp.crossbar import Crossbar
from repro.radio.formatting import FormattedTask, expected_output_words
from repro.sim.kernel import Simulator
from repro.utils.bits import words32_to_bytes


@dataclass
class TaskRun:
    """Outcome of a harness run."""

    result: CoreResult
    output: bytes
    feed_done_cycle: int


def run_task(
    sim: Simulator,
    core: CryptoCore,
    task: FormattedTask,
    limit: int = 100_000_000,
) -> TaskRun:
    """Run one formatted task to completion on *core*.

    The caller must have installed the key schedule already.  Returns
    the core result plus the drained output stream; the simulator stops
    on the cycle the last transfer ends.

    Encrypt output is drained while the core runs.  Decrypt output is
    read only after the core reports OK, as the communication
    controller reads only after RETRIEVE DATA returns OK: that is what
    lets the FIFO purge on authentication failure protect the plaintext
    (paper section IV.C).  On a failed decrypt the output is whatever
    the purge left in the FIFO, so it is empty unless plaintext leaks.
    Decrypt output (<= 128 blocks) always fits the FIFO, so deferred
    draining cannot deadlock.

    *limit* is a cycle budget counted from the call, so a simulator
    that has already run for a long time gets the same budget.
    """
    limit += sim.now
    crossbar = Crossbar(core.timing)
    runs = [crossbar.upload_blocks(core, task.input_blocks)]
    nwords = expected_output_words(task)
    deferred = task.params.direction is Direction.DECRYPT
    sink: List[int] = []
    if nwords and not deferred:
        runs.append(crossbar.download_words(core, sink, nwords))
    result: CoreResult = sim.run_until_event(core.assign_task(task.params), limit=limit)
    if deferred:
        # After an authentication failure the purge must have left
        # nothing; whatever is left is downloaded, so a leak shows.
        left = nwords if result.ok else len(core.out_fifo)
        if left:
            runs.append(crossbar.download_words(core, sink, left))
    for run in runs:
        sim.run_until_event(run.done, limit=limit)
    return TaskRun(
        result=result, output=words32_to_bytes(sink), feed_done_cycle=runs[0].done.value
    )

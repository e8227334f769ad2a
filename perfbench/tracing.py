"""Span tracer for the traced benchmark run.

The benchmark never edits the program to trace it.  Instead
:class:`Tracer` swaps wrappers in for the public functions at each
layer seam (:func:`layer_table`) for the duration of one replay and
puts the originals back afterwards.  A wrapper is installed where the
function is *looked up*: a module-level function that another module
imported by name has to be patched in the importing module too.

Each call of a wrapped function records one span ``[layer, start,
end, parent]`` in memory; a layer's self time is its spans' duration
minus the time their direct child spans cover.  Wrappers can also
count an amount per call (packets, bytes, AES blocks).  Generator-based
simulation processes are not wrapped: their Python runs inside
``Simulator.run_until_event`` and is part of the ``sim`` layer's self
time; the events they schedule are counted from the simulator itself.

A span marked *opaque* hides the calls it makes: nothing nested in it
records a span or a count, so all of its time is that layer's self
time.  Traffic generation is opaque, which keeps the peer radio's rx
seals (bulk crypto inside ``run_workload``) in the ``traffic`` layer
rather than in ``kernels``.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional


def _state_blocks(args, kwargs, result) -> int:
    return int(args[0].shape[1])


def _one(args, kwargs, result) -> int:
    return 1


def _dispatch_packets(args, kwargs, result) -> int:
    # seal_open_submit(mode, key, seal_packets, open_packets, ...)
    return len(args[2]) + len(args[3])


def _reserve_bytes(args, kwargs, result) -> int:
    # PacketArena.reserve(self, nbytes)
    return int(args[1])


def _generated_bytes(args, kwargs, result) -> int:
    return sum(len(g.packet.header) + len(g.packet.payload) for g in result)


def layer_table():
    """``(layer, owner, attribute, amount, opaque)`` for every seam.

    Imported lazily: the program lives in the checkout's ``src`` tree,
    which :mod:`run` puts on the path first.
    """
    import importlib

    from repro.crypto.fast import aes_ttable, aes_vector, batch, bulk, ghash_hpower
    from repro.crypto.fast.arena import PacketArena
    from repro.crypto.fast.exec import BatchHandle, ExecutionBackend
    from repro.mccp.mccp import DispatchHandle, Mccp
    from repro.radio.comm_controller import CommController
    from repro.radio.sdr_platform import SdrPlatform
    from repro.radio.traffic import TrafficGenerator
    from repro.sim.kernel import Simulator

    # ``repro.crypto`` re-exports a function named ``ghash``.
    ghash = importlib.import_module("repro.crypto.ghash")
    return [
        ("traffic", TrafficGenerator, "generate", _generated_bytes, True),
        # The platform playing the peer radio: rx packets are sealed
        # outside simulated time, before the replay starts.
        ("traffic", SdrPlatform, "_rx_plans", None, True),
        ("sim", Simulator, "run_until_event", None, False),
        ("comm", CommController, "submit_job", None, False),
        ("mccp.dispatch", Mccp, "dispatch_jobs_async", None, False),
        ("mccp", DispatchHandle, "result", None, False),
        ("batch.submit", batch, "seal_open_submit", _dispatch_packets, False),
        ("batch", batch, "seal_open_many", None, False),
        ("batch", batch.SealOpenHandle, "result", None, False),
        # The unsharded batch work an inline backend executes; without
        # it the engine's own Python would land in exec.wait_s.
        ("batch", batch, "_seal_open_whole", None, False),
        ("exec.submit", ExecutionBackend, "submit", None, False),
        ("exec.wait", BatchHandle, "result", None, False),
        ("arena", PacketArena, "reserve", _reserve_bytes, False),
        ("kernels.aes_vector", aes_vector, "encrypt_state_vector", _state_blocks, False),
        ("kernels.aes_vector", bulk, "ctr_keystream_vector", None, False),
        ("kernels.aes_scalar", aes_ttable, "encrypt_words_tt", _one, False),
        ("kernels.aes_scalar", bulk, "encrypt_words_tt", _one, False),
        ("kernels.aes_scalar", batch, "encrypt_words_tt", _one, False),
        ("kernels.ghash", bulk, "ghash_blocks_hpower", None, False),
        ("kernels.ghash", ghash, "ghash_blocks_hpower", None, False),
        ("kernels.ghash", ghash_hpower, "ghash_blocks_tabulated", None, False),
        ("kernels.ghash", ghash, "ghash_blocks_tabulated", None, False),
        ("keys", ghash_hpower, "hpower_tables_vec", None, False),
    ]


class Tracer:
    """In-memory spans and counters for the wrapped seams."""

    def __init__(self) -> None:
        #: ``[layer, start, end, parent_index]`` per span (-1 = root).
        self.spans: List[list] = []
        self.calls: Counter = Counter()
        self.amounts: Counter = Counter()
        self._stack: List[int] = []
        self._opaque = 0
        self._patched: List[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(
        self, fn: Callable, layer: str, amount: Optional[Callable], opaque: bool
    ) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        calls, amounts = self.calls, self.amounts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._opaque:
                return fn(*args, **kwargs)
            calls[layer] += 1
            index = len(spans)
            spans.append([layer, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            tracer._opaque += opaque
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._opaque -= opaque
                stack.pop()
                spans[index][2] = clock()
            if amount is not None:
                amounts[layer] += amount(args, kwargs, result)
            return result

        return wrapper

    # -- install / remove -------------------------------------------------

    def install(self, layers: list) -> None:
        """Swap every wrapper in (undo with :meth:`remove`)."""
        for layer, owner, attribute, amount, opaque in layers:
            fn = getattr(owner, attribute)
            self._patched.append((owner, attribute, fn))
            setattr(owner, attribute, self._span_wrapper(fn, layer, amount, opaque))

    def remove(self) -> None:
        """Put every original back, newest patch first."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- results ----------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Seconds per layer (0 if unseen): span durations minus children's."""
        out: Dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (layer, start, end, _parent) in enumerate(self.spans):
            out[layer] += (end - start) - child_time[index]
        return out

    def write(self, path) -> None:
        """Dump every span as JSON (times in seconds from the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        records = [
            [layer, round(start - origin, 9), round(end - origin, 9), parent]
            for layer, start, end, parent in self.spans
        ]
        with open(path, "w") as handle:
            fields = ["layer", "start_s", "end_s", "parent"]
            json.dump({"fields": fields, "spans": records}, handle)

"""MCCP replay benchmark: one command, four workloads, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload radio_bulk --seed 1 --seconds 10 --trace 0

Replays the named workload (see :mod:`workloads`) through the public
entry points (``SdrPlatform.run_workload`` / ``SessionManager.run``)
until ``--seconds`` have passed, checks every output, and prints as its
last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.

- ``--trace 0`` reports the end-to-end metrics: host ``pkts_per_s``,
  ``setup_s`` and ``peak_rss_mb``, and the simulated ``sim_gbps``,
  ``sim_latency_p50_us``, ``sim_latency_tail_us`` and
  ``control_latency_tail_us``.  Simulated figures come from the
  first pass over the inputs and repeat exactly for a seed.
- ``--trace 1`` runs one untraced pass, then one pass with the layer
  wrappers of :mod:`tracing` installed, and reports the per-layer
  split plus ``unattributed_s`` and ``tracing_overhead_s``; the spans
  are written to ``.perfbench/`` in the checkout.

Failed packets are counted against offered packets: shed,
dead-lettered and wrong authentication outcomes fail; a corrupted rx
packet that is correctly rejected succeeds.  Lines before the last
one carry run metadata (seed, CPU count, Python and numpy versions,
backend, cache state at the start of each timed replay, tail
percentiles with their sample counts, and ``cores_cycle``'s paper
anchor).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform as host_platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
#: Everything a replay needs imported; timed in a fresh interpreter.
IMPORTS = "import numpy, repro.radio.sessions, repro.radio.sdr_platform"
#: The paper's device clock: simulated cycles -> simulated seconds.
CLOCK_HZ = 190e6
#: Fresh-interpreter imports and backend start-ups timed per run.
SETUP_REPEATS = 3
#: The tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program() -> None:
    """Put the checkout's ``src`` first on the path; fail without it."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {package}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {package}")


# -- set-up -----------------------------------------------------------------


def import_seconds() -> float:
    """Median wall time of a fresh interpreter importing the program."""
    command = [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); {IMPORTS}"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(command, check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def start_backend(spec: str):
    """Build the backend and bring its workers and arena up."""
    from repro.crypto.fast.exec import ProcessPoolBackend, make_backend

    backend = make_backend(spec)
    if isinstance(backend, ProcessPoolBackend):
        backend.dispatch_arena()
    # Two calls: a pooled backend spawns its workers for them.
    backend.run([(abs, (-1,)), (abs, (-2,))])
    return backend


def backend_seconds(spec: str) -> float:
    """Median wall time to start (and then close) a backend."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        backend = start_backend(spec)
        try:
            times.append(time.perf_counter() - start)
        finally:
            backend.close()
    return statistics.median(times)


def stop_helper_processes() -> None:
    """Stop and reap every process multiprocessing started in this run.

    ``backend.close()`` joins the pool workers, but the shared-memory
    arena also starts multiprocessing's resource tracker, a helper that
    would outlive the benchmark until it noticed its pipe had closed.
    """
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its live backend workers."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        with open(f"/proc/{child.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024


def cache_snapshot() -> dict:
    """``cache_info()`` of the fast path's per-key LRU caches."""
    from repro.crypto.fast import expand_key_cached, ghash_tables, hpower_tables_vec

    return {
        "expand_key_cached": expand_key_cached.cache_info()._asdict(),
        "hpower_tables_vec": hpower_tables_vec.cache_info()._asdict(),
        "ghash_tables": ghash_tables.cache_info()._asdict(),
    }


def cache_delta(before: dict, after: dict) -> dict:
    return {
        name: {k: after[name][k] - before[name][k] for k in ("hits", "misses")}
        for name in before
    }


# -- replays ----------------------------------------------------------------


class Tally:
    """Attempted/failed packets and check errors across a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors = []
        #: input index -> Check of its first replay.
        self.first = {}

    def verify(self, workload, index: int, state, replay) -> None:
        from workloads import digest_transfers

        first = self.first.get(index)
        if first is not None and digest_transfers(replay) == first.digest:
            self.attempted += first.attempted
            self.failed += first.failed
            return
        check = workload.check(state, replay)
        if first is None:
            self.first[index] = check
        else:
            self.errors.append(f"input {index}: replay output differs from its first replay")
        self.attempted += check.attempted
        self.failed += check.failed
        self.errors.extend(check.errors)


def run_replay(workload, inp, backend, tracer=None):
    """Set up and replay one input; returns ``(state, Replay)``."""
    from workloads import Replay

    if workload.before_replay is not None:
        workload.before_replay()
    start = time.perf_counter()
    state = workload.setup(inp, backend)
    ready = time.perf_counter()
    caches = cache_snapshot()
    try:
        if tracer is not None:
            from tracing import layer_table

            tracer.install(layer_table())
        begin = time.perf_counter()
        report = workload.replay(state)
        end = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.remove()
    transfers, offered, events = workload.collect(state)
    replay = Replay(
        seconds=end - begin,
        setup_seconds=ready - start,
        report=report,
        transfers=transfers,
        offered=offered,
        events=events,
        cache_info=caches,
        cache_delta=cache_delta(caches, cache_snapshot()),
    )
    return state, replay


def run_pass(workload, inputs, backend, tally, tracer=None) -> list:
    """Replay every input once, checking each; returns the Replays."""
    replays = []
    for index, inp in enumerate(inputs):
        state, replay = run_replay(workload, inp, backend, tracer)
        tally.verify(workload, index, state, replay)
        replay.transfers = None  # the platform's outputs are checked; free them
        replays.append(replay)
    return replays


# -- metrics ----------------------------------------------------------------


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def tail(samples) -> dict:
    """Highest nearest-rank percentile with >= TAIL_BEYOND samples beyond."""
    from repro.analysis.latency import nearest_rank_percentile

    n = len(samples)
    if n <= TAIL_BEYOND:
        q = 1.0
    else:
        q = (n - TAIL_BEYOND) / n
    return {
        "percentile": 100.0 * q,
        "samples": n,
        "us": nearest_rank_percentile(samples, q) / CLOCK_HZ * 1e6,
    }


def sim_bits_per_s(replays: list) -> float:
    """Payload bits over simulated seconds at the device clock."""
    bits = 8 * sum(replay.report.payload_bytes for replay in replays)
    return bits / (sum(replay.report.total_cycles for replay in replays) / CLOCK_HZ)


def sim_metrics(replays: list, meta: dict) -> dict:
    """Simulated figures of one pass over the inputs (exact per seed)."""
    from repro.analysis.latency import nearest_rank_percentile

    by_class = {}
    for replay in replays:
        for priority, samples in replay.class_latencies.items():
            by_class.setdefault(priority, []).extend(samples)
    everything = [x for samples in by_class.values() for x in samples]
    overall = tail(everything)
    # The most important class present: control (0) on session_storm;
    # the radio workloads carry a single class.
    top = min(by_class)
    control = tail(by_class[top])
    meta["tails"] = {
        "sim_latency_tail_us": overall,
        "control_latency_tail_us": dict(control, priority_class=top),
    }
    meta["sim_latency_p50_samples"] = len(everything)
    return {
        "sim_gbps": metric(sim_bits_per_s(replays) / 1e9, "Gbps"),
        "sim_latency_p50_us": metric(
            nearest_rank_percentile(everything, 0.5) / CLOCK_HZ * 1e6, "us"
        ),
        "sim_latency_tail_us": metric(overall["us"], "us"),
        "control_latency_tail_us": metric(control["us"], "us"),
    }


def paper_anchor(replays: list) -> dict:
    """``cores_cycle`` against Table II's gcm_4x1 2 KB cell (not gated)."""
    from repro.analysis.throughput import PAPER_TABLE2

    mbps = sim_bits_per_s(replays) / 1e6
    paper = PAPER_TABLE2[("gcm_4x1", 256)][1]
    return {
        "config": "gcm_4x1",
        "key_bits": 256,
        "sim_mbps": mbps,
        "paper_mbps": paper,
        "relative_error": (mbps - paper) / paper,
    }


def end_to_end(rounds: list, setup_s: float, meta: dict) -> dict:
    per_input = list(zip(*rounds))
    seconds = sum(statistics.median(r.seconds for r in replays) for replays in per_input)
    done = sum(replays[0].report.packets_done for replays in per_input)
    out = {
        "pkts_per_s": metric(done / seconds, "1/s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    out.update(sim_metrics(rounds[0], meta))
    return out


def per_layer(tracer, replays, untraced_s, traced_s, provision_s) -> dict:
    """The traced pass split by layer (see :mod:`tracing`)."""
    st = tracer.self_times()
    calls, amounts = tracer.calls, tracer.amounts
    reports = [replay.report for replay in replays]

    def total(attribute):
        return sum(getattr(r, attribute) for r in reports)

    def flushes(cause):
        return sum(r.flush_causes.get(cause, 0) for r in reports)

    def cache(name, key):
        return sum(replay.cache_delta[name][key] for replay in replays)

    batches = sum(r.batches for r in reports)
    batched_packets = sum(r.packets_done - r.core_submits for r in reports)
    events = sum(replay.events for replay in replays)
    hp_hits, hp_misses = cache("hpower_tables_vec", "hits"), cache("hpower_tables_vec", "misses")
    aes_s = st["kernels.aes_vector"] + st["kernels.aes_scalar"]
    blocks = amounts["kernels.aes_vector"] + amounts["kernels.aes_scalar"]
    values = {
        "traffic.self_s": (st["traffic"], "s"),
        "traffic.bytes": (amounts["traffic"], "bytes"),
        "sim.self_s": (st["sim"], "s"),
        "sim.events": (events, "count"),
        "sim.ns_per_event": (st["sim"] / events * 1e9 if events else 0.0, "ns"),
        "comm.submit_s": (st["comm"], "s"),
        "comm.submits": (calls["comm"], "count"),
        "comm.batches": (batches, "count"),
        "comm.batch_width_mean": (batched_packets / batches if batches else 0.0, "count"),
        "comm.flush_size": (flushes("size"), "count"),
        "comm.flush_deadline": (flushes("deadline"), "count"),
        "comm.flush_forced": (flushes("forced"), "count"),
        "comm.queue_peak_max": (max(r.queue_peak() for r in reports), "count"),
        "admission.admitted": (sum(sum(r.admitted_by_class.values()) for r in reports), "count"),
        "admission.deferrals": (total("deferrals"), "count"),
        "admission.shed": (total("shed"), "count"),
        "admission.shed_control": (sum(r.shed_by_class.get(0, 0) for r in reports), "count"),
        "sessions.provision_s": (provision_s, "s"),
        "sessions.rekeys": (total("rekeys"), "count"),
        "sessions.handoffs": (total("handoffs"), "count"),
        "mccp.dispatch_self_s": (st["mccp.dispatch"] + st["mccp"], "s"),
        "mccp.dispatches": (calls["mccp.dispatch"], "count"),
        "mccp.core_submits": (total("core_submits"), "count"),
        "mccp.dead_lettered": (total("dead_lettered"), "count"),
        "keys.expand_misses": (cache("expand_key_cached", "misses"), "count"),
        "keys.hpower_builds": (hp_misses, "count"),
        "keys.hpower_hit_ratio": (
            hp_hits / (hp_hits + hp_misses) if hp_hits + hp_misses else 0.0,
            "ratio",
        ),
        "keys.hpower_s": (st["keys"], "s"),
        "batch.self_s": (st["batch"] + st["batch.submit"], "s"),
        "batch.packets": (amounts["batch.submit"], "count"),
        "exec.submit_s": (st["exec.submit"] + st["arena"], "s"),
        "exec.wait_s": (st["exec.wait"], "s"),
        "exec.spans": (calls["exec.submit"], "count"),
        "exec.retries": (total("retries"), "count"),
        "exec.degradations": (total("degradations"), "count"),
        "arena.bytes_staged": (amounts["arena"], "bytes"),
        "kernels.aes_vector_s": (st["kernels.aes_vector"], "s"),
        "kernels.aes_scalar_s": (st["kernels.aes_scalar"], "s"),
        "kernels.ghash_s": (st["kernels.ghash"], "s"),
        "kernels.aes_blocks": (blocks, "count"),
        "kernels.ns_per_block": (aes_s / blocks * 1e9 if blocks else 0.0, "ns"),
        "unattributed_s": (traced_s - sum(st.values()), "s"),
        "tracing_overhead_s": (traced_s - untraced_s, "s"),
    }
    return {name: metric(value, unit) for name, (value, unit) in values.items()}


# -- main -------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    try:
        return run(args)
    finally:
        stop_helper_processes()


def run(args) -> int:
    import numpy

    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r}; valid: {', '.join(WORKLOADS)}"
        )
    import_s = import_seconds()
    backend_s = backend_seconds(workload.backend_spec)
    backend = start_backend(workload.backend_spec)
    tally = Tally()
    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": host_platform.python_version(),
        "numpy": numpy.__version__,
        "backend": workload.backend_spec,
        "workers": backend.workers,
        "import_s": import_s,
        "backend_start_s": backend_s,
    }
    try:
        inputs = workload.inputs(args.seed)
        workload.warm_up(args.seed, backend)
        rounds = []
        if args.trace:
            untraced = run_pass(workload, inputs, backend, tally)
            tracer = Tracer()
            traced = run_pass(workload, inputs, backend, tally, tracer)
            rounds = [untraced, traced]
            provision_s = (
                statistics.median(r.setup_seconds for r in untraced)
                if workload.name == "session_storm"
                else 0.0
            )
            metrics = per_layer(
                tracer,
                traced,
                sum(r.seconds for r in untraced),
                sum(r.seconds for r in traced),
                provision_s,
            )
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json")
            meta["spans"] = len(tracer.spans)
        else:
            # Whole passes until --seconds of timed replay are measured.
            measured = 0.0
            while measured < args.seconds:
                rounds.append(run_pass(workload, inputs, backend, tally))
                measured += sum(r.seconds for r in rounds[-1])
            setup_s = (
                import_s
                + backend_s
                + statistics.median(r.setup_seconds for rnd in rounds for r in rnd)
            )
            metrics = end_to_end(rounds, setup_s, meta)
            if workload.name == "cores_cycle":
                anchor = meta["paper_anchor"] = paper_anchor(rounds[0])
                print(
                    f"paper anchor (not gated): sim {anchor['sim_mbps']:.1f} Mbps vs "
                    f"Table II gcm_4x1 256-bit 2 KB {anchor['paper_mbps']} Mbps "
                    f"({anchor['relative_error']:+.1%})"
                )
    finally:
        backend.close()
    meta["passes"] = len(rounds)
    meta["replay_seconds"] = [[r.seconds for r in rnd] for rnd in rounds]
    meta["cache_info_at_replay_start"] = [[r.cache_info for r in rnd] for rnd in rounds]
    for error in tally.errors[:20]:
        print(f"CHECK FAILED: {error}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test for the standalone bench runner.

Keeps ``benchmarks/run_bench.py`` importable and its JSON schema stable
so every PR can regenerate the perf trajectory without surprises.  The
quick mode spends ~20 ms per kernel, so this stays test-suite cheap.
"""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_run_bench():
    spec = importlib.util.spec_from_file_location(
        "run_bench", REPO_ROOT / "benchmarks" / "run_bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_bench_quick_emits_snapshot(tmp_path):
    run_bench = _load_run_bench()
    out_path = run_bench.main(["--quick", "--out", str(tmp_path)])
    assert out_path.exists()
    snapshot = json.loads(out_path.read_text())
    assert snapshot["benchmarks"], "no benchmarks recorded"
    for name, entry in snapshot["benchmarks"].items():
        assert entry["ops_per_s"] > 0, name
        assert entry["iterations"] >= 1, name
    # Every *_fast kernel has a paired *_reference and a derived
    # speedup; batch kernels derive per-packet ratios vs the
    # sequential fast kernel, backend-parametrized batch kernels
    # derive process-over-inline ratios, and the pipelined dataplane
    # kernel derives its packets/s ratio vs its synchronous twin.
    assert set(snapshot["speedups"]) == {
        "aes_block",
        "gf128_mul",
        "ghash_2kb",
        "aes_ctr_2kb",
        "gcm_2kb",
        "ccm_2kb",
        "gcm_2kb_batch32_per_packet",
        "ccm_2kb_batch32_per_packet",
        "radio_ccm_2kb_batch32_per_packet",
        "gcm_2kb_batch32_process_over_inline",
        "ccm_2kb_batch32_process_over_inline",
        "radio_ccm_2kb_batch32_process_over_inline",
        "radio_ccm_2kb_batch32_pipelined_process_over_sync",
    }
    assert all(ratio > 0 for ratio in snapshot["speedups"].values())
    # Backend context rides along for cross-machine honesty.
    assert snapshot["backend"] in ("inline", "process")
    assert snapshot["cpu_count"] >= 1
    assert set(snapshot["backend_workers"]) == {"process"}
    # Arena status rides along too: a recorded baseline must say
    # whether the process numbers came from the shared-memory arena or
    # ran inline (and why).
    assert snapshot["arena_active"] in (True, False)
    assert snapshot["process_inline_reason"] is None or isinstance(
        snapshot["process_inline_reason"], str
    )


def test_deterministic_bytes_is_stable_and_not_constant():
    # Regression: a fresh Random(seed) per byte once collapsed every
    # bench input to one repeated value (2 KB of 0x79), which both
    # misrepresents traffic and runs ~2x slower through numpy gathers.
    from repro.experiments.kernels import deterministic_bytes

    data = deterministic_bytes(2048, 12)
    assert data == deterministic_bytes(2048, 12)
    assert len(set(data)) > 100
    assert deterministic_bytes(2048, 13) != data

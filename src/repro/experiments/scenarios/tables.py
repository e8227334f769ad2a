"""Paper-table scenarios: one reproduced cell of Tables II, III and IV.

Each function reports one cell next to the published value, and
``python -m repro.experiments`` prints the three tables.  The tier-1
suite asserts the bounds: Table II's cells in
``tests/experiments/test_paper_claims.py``, and the Table III and IV
models in ``tests/analysis/test_analysis.py`` and
``tests/reconfig/test_reconfig.py``.
"""

from __future__ import annotations

from repro.analysis.area import AreaModel
from repro.analysis.throughput import PAPER_TABLE2, theoretical_mbps
from repro.baselines import mccp_entry
from repro.core.params import Direction
from repro.experiments.scenarios._util import (
    KEYS,
    deterministic_bytes,
    packet_mbps,
    run_single_core,
    run_two_core_ccm,
)
from repro.radio import format_ccm_single, format_ccm_two_core, format_gcm
from repro.reconfig import MODULE_LIBRARY, BitstreamStore, StoreKind

#: Paper Table IV, for the per-cell reference columns.
PAPER_TABLE4_MS = {
    ("aes", "cf"): 380,
    ("aes", "ram"): 63,
    ("whirlpool", "cf"): 416,
    ("whirlpool", "ram"): 69,
}


#: Table II's measured configurations: one GCM core, one CCM core and
#: the two-core CCM split.  The 4x1 and 2x2 rows are whole packets on
#: disjoint cores, exact multiples of these.
TABLE2_CONFIGS = ("gcm_1", "ccm_1", "ccm_2")


def table2_throughput(config: str, key_bits: int):
    """Reproduce one Table II cell pair from a simulated 2 KB packet."""
    key = KEYS[key_bits]
    payload = deterministic_bytes(2048, 0)
    nonce12 = deterministic_bytes(12, 1)
    nonce13 = deterministic_bytes(13, 2)
    if config == "gcm_1":
        task = format_gcm(key_bits, nonce12, b"", payload, Direction.ENCRYPT)
        run, _, _ = run_single_core(task, key)
        cycles = run.result.cycles
    elif config == "ccm_1":
        task = format_ccm_single(
            key_bits, nonce13, b"", payload, Direction.ENCRYPT, 8
        )
        run, _, _ = run_single_core(task, key)
        cycles = run.result.cycles
    else:  # ccm_2: the two-core MAC/CTR split
        mac_task, ctr_task = format_ccm_two_core(
            key_bits, nonce13, b"", payload, Direction.ENCRYPT, 8
        )
        cycles = run_two_core_ccm(mac_task, ctr_task, key)
    measured = packet_mbps(2048, cycles)
    paper_theoretical, paper_packet = PAPER_TABLE2[(config, key_bits)]
    return {
        "cycles": cycles,
        "mbps_2kb": round(measured, 2),
        "mbps_theoretical": round(theoretical_mbps(config, key_bits), 2),
        "paper_mbps_2kb": paper_packet,
        "paper_mbps_theoretical": paper_theoretical,
    }


def table3_comparison():
    """Recompute the MCCP row of Table III."""
    gcm_row = mccp_entry(algorithm="GCM")
    ccm_row = mccp_entry(algorithm="CCM")
    slices, brams = AreaModel(4).device_total()
    return {
        "gcm_mbps_per_mhz": gcm_row.throughput_mbps_per_mhz,
        "ccm_mbps_per_mhz": ccm_row.throughput_mbps_per_mhz,
        "slices": slices,
        "brams": brams,
    }


def table4_reconfig(module: str, store_name: str):
    """Reproduce one Table IV timing cell from the bandwidth model."""
    store = BitstreamStore(
        StoreKind.COMPACT_FLASH if store_name == "cf" else StoreKind.RAM
    )
    bitstream = MODULE_LIBRARY[module]
    ours_ms = store.load_seconds(module) * 1000
    paper_ms = PAPER_TABLE4_MS[(module, store_name)]
    return {
        "load_ms": round(ours_ms, 2),
        "paper_ms": paper_ms,
        "bitstream_kb": bitstream.size_bytes // 1000,
        "slices": bitstream.slices,
    }

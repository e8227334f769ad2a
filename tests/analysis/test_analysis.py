"""Analysis layer: loop equations, Table II theory, area, latency, tables."""

import math

import pytest

from repro.analysis.area import AreaModel, PAPER_TOTAL_BRAMS, PAPER_TOTAL_SLICES
from repro.analysis.cycles import LoopModel, paper_loop_cycles
from repro.analysis.latency import latency_stats
from repro.analysis.tables import render_table
from repro.analysis.throughput import (
    PAPER_TABLE2,
    mbps,
    theoretical_mbps,
    theoretical_table2,
)
from repro.baselines import LITERATURE_ENTRIES, MonoCoreAccelerator, PipelinedGcmEngine, mccp_entry
from repro.baselines.literature import (
    PAPER_MCCP_CCM_MBPS_PER_MHZ,
    PAPER_MCCP_GCM_MBPS_PER_MHZ,
)
from repro.core.params import Algorithm


def test_loop_model_matches_paper_equations():
    model = LoopModel()
    for key_bits in (128, 192, 256):
        for mode in ("gcm", "ctr", "cbc", "ccm1", "ccm2"):
            assert model.period(mode, key_bits) == paper_loop_cycles(mode, key_bits)


def test_paper_anchor_values():
    assert paper_loop_cycles("gcm", 128) == 49
    assert paper_loop_cycles("ccm2", 128) == 55
    assert paper_loop_cycles("ccm1", 128) == 104
    assert paper_loop_cycles("ccm1", 256) == 136


def test_theoretical_table2_matches_paper_within_1pct():
    for (config, key_bits), (paper_theo, _) in PAPER_TABLE2.items():
        ours = theoretical_mbps(config, key_bits)
        assert ours == pytest.approx(paper_theo, rel=0.01), (config, key_bits)


def test_headline_1_7_gbps():
    assert theoretical_mbps("gcm_4x1", 128) == pytest.approx(1984, rel=0.01)
    assert theoretical_mbps("gcm_4x1", 128) > 1700


def test_table2_rows_complete():
    rows = theoretical_table2()
    assert len(rows) == 18
    assert all(math.isnan(r.packet_mbps) for r in rows)  # filled by the bench


def test_mbps_conversion():
    assert mbps(128, 49, 190e6) == pytest.approx(496.3, rel=0.01)
    with pytest.raises(ValueError):
        mbps(128, 0)


def test_area_model_hits_paper_totals():
    model = AreaModel(core_count=4)
    slices, brams = model.device_total()
    assert slices == PAPER_TOTAL_SLICES
    assert brams == PAPER_TOTAL_BRAMS
    inv = model.inventory()
    assert sum(r[2] for r in inv) == slices
    assert sum(r[3] for r in inv) == brams


def test_area_scales_with_cores():
    s4, _ = AreaModel(4).device_total()
    s2, _ = AreaModel(2).device_total()
    per_core = AreaModel(4).per_core()[0]
    assert s4 - s2 == pytest.approx(2 * per_core, abs=per_core // 4)


def test_latency_stats():
    stats = latency_stats([100, 200, 300, 400, 1000], clock_hz=100e6)
    assert stats.count == 5
    assert stats.mean_cycles == 400
    assert stats.max_cycles == 1000
    assert stats.p50_cycles == 300
    assert stats.max_us == pytest.approx(10.0)
    empty = latency_stats([])
    assert empty.count == 0 and empty.mean_us == 0


def test_render_table():
    out = render_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "333" in out and "|" in out


def test_mccp_entry_close_to_paper_normalised_throughput():
    gcm = mccp_entry(algorithm="GCM")
    ccm = mccp_entry(algorithm="CCM")
    # Theoretical normalisation sits slightly above the paper's
    # packet-overhead-inclusive figures, never below them: the same
    # one-sided bound as Table II's packet column.
    for entry, paper in (
        (gcm, PAPER_MCCP_GCM_MBPS_PER_MHZ),
        (ccm, PAPER_MCCP_CCM_MBPS_PER_MHZ),
    ):
        assert paper <= entry.throughput_mbps_per_mhz <= 1.12 * paper
    assert gcm.throughput_mbps_per_mhz == pytest.approx(10.45, rel=0.01)
    assert ccm.throughput_mbps_per_mhz == pytest.approx(4.92, rel=0.01)
    assert gcm.programmable


def test_literature_entries_ranking():
    # Lemsitzer's pipelined GCM dominates raw normalised throughput;
    # the MCCP dominates the programmable designs.
    lem = max(LITERATURE_ENTRIES, key=lambda e: e.throughput_mbps_per_mhz)
    assert lem.name.startswith("S. Lemsitzer")
    programmables = [e for e in LITERATURE_ENTRIES if e.programmable]
    assert all(
        mccp_entry().throughput_mbps_per_mhz > e.throughput_mbps_per_mhz
        for e in programmables
    )


def test_mono_core_quarter_of_mccp():
    mono = MonoCoreAccelerator()
    single = mono.throughput_mbps(Algorithm.GCM, 128)
    assert single == pytest.approx(437, rel=0.15)  # one core with overhead


def test_pipelined_engine_tradeoffs():
    engine = PipelinedGcmEngine()
    assert engine.gcm_throughput_mbps() > 2000      # wins raw GCM
    mono = MonoCoreAccelerator()
    assert engine.gcm_throughput_mbps() > 4 * mono.throughput_mbps(Algorithm.GCM, 128)
    assert engine.ccm_throughput_mbps() < engine.gcm_throughput_mbps() / 5
    assert engine.mbps_per_mhz() > 30               # Table III's 32 Mbps/MHz
    ct, tag = PipelinedGcmEngine.encrypt(bytes(16), bytes(12), b"x")
    from repro.crypto import gcm_encrypt

    assert (ct, tag) == gcm_encrypt(bytes(16), bytes(12), b"x")

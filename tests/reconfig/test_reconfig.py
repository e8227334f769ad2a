"""Partial reconfiguration: Table IV timings, capacity, personality swap."""

import pytest

from repro.core.crypto_core import CryptoCore
from repro.errors import BitstreamError, ReconfigError, RegionCapacityError
from repro.reconfig import (
    Bitstream,
    BitstreamStore,
    MODULE_LIBRARY,
    ReconfigManager,
    ReconfigurableRegion,
    StoreKind,
)
from repro.sim.kernel import Simulator
from repro.unit.timing import DEFAULT_TIMING

#: Table IV published values (module -> (cf_ms, ram_ms)).
PAPER_TABLE4 = {"aes": (380, 63), "whirlpool": (416, 69)}


@pytest.mark.parametrize("module,times", PAPER_TABLE4.items(), ids=str)
def test_table4_reconfig_times_within_5pct(module, times):
    cf_ms, ram_ms = times
    cf = BitstreamStore(StoreKind.COMPACT_FLASH)
    ram = BitstreamStore(StoreKind.RAM)
    assert cf.load_seconds(module) * 1000 == pytest.approx(cf_ms, rel=0.05)
    assert ram.load_seconds(module) * 1000 == pytest.approx(ram_ms, rel=0.05)


def test_module_library_matches_table4_areas():
    assert MODULE_LIBRARY["aes"].slices == 351
    assert MODULE_LIBRARY["aes"].brams == 4
    assert MODULE_LIBRARY["aes"].size_bytes == 89_000
    assert MODULE_LIBRARY["whirlpool"].slices == 1153
    assert MODULE_LIBRARY["whirlpool"].brams == 4
    assert MODULE_LIBRARY["whirlpool"].size_bytes == 97_000


def test_region_capacity_enforced():
    region = ReconfigurableRegion(0)
    region.load(MODULE_LIBRARY["whirlpool"])  # 1153 <= 1280
    assert region.utilisation == pytest.approx(1153 / 1280)
    big = Bitstream("huge", 1, slices=2000, brams=4, personality="aes")
    with pytest.raises(RegionCapacityError):
        region.check_fit(big)


def test_unknown_bitstream():
    store = BitstreamStore(StoreKind.RAM)
    with pytest.raises(BitstreamError):
        store.get("nope")


def make_manager(kind=StoreKind.COMPACT_FLASH):
    sim = Simulator()
    cores = [CryptoCore(sim, DEFAULT_TIMING, index=i) for i in range(2)]
    manager = ReconfigManager(sim, cores, BitstreamStore(kind))
    return sim, cores, manager


def test_manager_swaps_personality_and_charges_time():
    sim, cores, manager = make_manager()
    record = manager.reconfigure_sync(0, "whirlpool")
    assert cores[0].active_unit is cores[0].whirlpool_unit
    assert not record.cached
    assert record.seconds * 1000 == pytest.approx(416, rel=0.05)
    back = manager.reconfigure_sync(0, "aes")
    assert cores[0].active_unit is cores[0].unit
    # Second AES load is cached -> RAM-class speed despite the CF store.
    record2 = manager.reconfigure_sync(0, "whirlpool")
    assert record2.cached
    assert record2.seconds * 1000 == pytest.approx(69, rel=0.05)
    assert len(manager.history) == 3
    assert back.module == "aes"


def test_manager_refuses_busy_core(rb):
    from repro.core.params import Algorithm, TaskParams
    from repro.crypto.aes import expand_key

    sim, cores, manager = make_manager()
    cores[0].key_cache.install(expand_key(bytes(16)), 128)
    cores[0].assign_task(TaskParams(algorithm=Algorithm.CTR, data_blocks=1))
    with pytest.raises(ReconfigError):
        manager.reconfigure(0, "whirlpool")
    with pytest.raises(ReconfigError):
        manager.reconfigure(5, "aes")


def test_other_cores_keep_working_during_reconfig(rb):
    """Section VII.B: reconfiguring one region does not stop the others."""
    from repro.core.harness import run_task
    from repro.core.params import Direction
    from repro.crypto import gcm_encrypt
    from repro.crypto.aes import expand_key
    from repro.radio import format_gcm, parse_output

    sim, cores, manager = make_manager(StoreKind.RAM)
    done = manager.reconfigure(0, "whirlpool")
    key, iv, data = rb(16), rb(12), rb(64)
    cores[1].key_cache.install(expand_key(key), 128)
    task = format_gcm(128, iv, b"", data, Direction.ENCRYPT)
    run = run_task(sim, cores[1], task)
    ct, tag = parse_output(task, run.output)
    assert (ct, tag) == gcm_encrypt(key, iv, data, b"")
    sim.run_until_event(done)
    assert cores[0].active_unit is cores[0].whirlpool_unit


@pytest.mark.parametrize("swaps", [2, 6])
def test_reconfig_under_load_full_grid(swaps):
    """The storm scenario's full grid: core 1 keeps sealing packets,
    each checked against the gold model inside the scenario, while
    core 0 swaps personality; six swaps from CompactFlash push the
    clock past 200 M cycles."""
    from repro.experiments.scenarios.stress import reconfig_under_load

    metrics = reconfig_under_load(swaps)
    assert metrics["packets_during_reconfig"] == 4 * swaps
    if swaps == 6:
        assert metrics["total_cycles"] > 200_000_000
        assert metrics["cached_swaps"] == 4

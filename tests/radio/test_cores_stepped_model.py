"""The ``cores`` dataplane on the stepped reference model.

Every core and the crossbar of one platform are swapped for the stepped
copies in ``tests/stepped_models.py`` (one kernel event per instruction,
per CU completion and per word moved).  The loosely timed platform must
reproduce every transfer's bytes, outcome and download cycle, the run's
total cycles, the crossbar's word count, every FIFO's statistics and
every core's instruction and halted-cycle counts: on two hand-written
mixes and on shapes drawn by the ``cores`` fuzz generator (0 B and
off-block payloads, rx, loss, corruption, two-core CCM).
"""

from types import SimpleNamespace

import pytest

from repro.experiments.fuzz import generate_cores_case
from repro.radio.sdr_platform import ChannelConfig, SdrPlatform, WorkloadSpec
from repro.radio.standards import RadioStandard
from repro.radio.traffic import TrafficPattern
from stepped_models import step_platform


def _run(make_spec, stepped: bool, seed: int):
    """Run the spec *make_spec* builds (fresh configs per arm) on a
    platform seeded *seed*, stepped or loosely timed."""
    platform = SdrPlatform(seed=seed)
    if stepped:
        step_platform(platform)
    report = platform.run_workload(make_spec())
    transfers = sorted(
        (t.channel_id, t.sequence, t.ok, t.download_done_cycle, t.payload, t.tag)
        for t in platform.comm.completed.values()
    )
    fifos = [
        (f.total_pushed, f.total_popped, f.high_watermark, f.purge_count, len(f))
        for core in platform.mccp.cores
        for f in (core.in_fifo, core.out_fifo)
    ]
    results = [
        (c.tasks_completed, c.auth_failures, c.controller.instructions_retired,
         c.controller.halted_cycles)
        for c in platform.mccp.cores
    ]
    return {
        "transfers": transfers,
        "total_cycles": report.total_cycles,
        # Only the crossbar pushes into an input FIFO or pops an output one.
        "words_moved": sum(
            core.in_fifo.total_pushed + core.out_fifo.total_popped
            for core in platform.mccp.cores
        ),
        "fifos": fifos,
        "cores": results,
        "now": platform.sim.now,
    }


def _gcm_channels():
    return [
        ChannelConfig(
            RadioStandard.SATCOM, bytes([i + 1]) * 32, TrafficPattern.SATURATING, packets=3
        )
        for i in range(4)
    ]


def _ccm_channels():
    return [
        ChannelConfig(RadioStandard.WIFI, bytes([7]) * 16, TrafficPattern.SATURATING,
                      packets=3, two_core_ccm=True),
        ChannelConfig(RadioStandard.WIMAX, bytes([9]) * 16, TrafficPattern.SATURATING,
                      packets=3),
        ChannelConfig(RadioStandard.UMTS_LIKE, bytes([5]) * 16, TrafficPattern.SATURATING,
                      packets=3),
    ]


def _hand_written(configs, rx_fraction: float, corrupt_rate: float = 0.0):
    return lambda: WorkloadSpec(
        configs(), dataplane="cores", rx_fraction=rx_fraction, corrupt_rate=corrupt_rate
    )


def _generated(seed: int):
    return lambda: generate_cores_case(seed).shape


#: Shape -> (spec factory, platform seed).  The generated seeds together
#: cover 0 B and off-block payloads, rx, loss, corruption and two-core CCM.
SHAPES = {
    "gcm_4x1": (_hand_written(_gcm_channels, 0.25), 3),
    "ccm_mix": (_hand_written(_ccm_channels, 0.5, 0.5), 3),
    **{f"generated_{seed}": (_generated(seed), seed) for seed in (3, 4, 7, 13, 44, 49)},
}


@pytest.mark.parametrize("shape", SHAPES)
def test_cores_dataplane_matches_stepped_model(shape):
    make_spec, seed = SHAPES[shape]
    stepped, loose = _run(make_spec, True, seed), _run(make_spec, False, seed)
    assert loose["transfers"]
    assert loose == stepped


@pytest.mark.parametrize("shape", ["gcm_4x1", "ccm_mix"])
def test_reference_arithmetic_matches_fast_path(shape, monkeypatch):
    """``REPRO_FAST=0`` routes SAES to the reference cipher and SGFM to
    the bit-serial multiplier; transfers and cycles must not move.  The
    fast arm of ``gcm_4x1`` reads its counter runs ahead, so the
    equality also covers the readahead."""
    from repro.crypto.fast import aes_vector, set_fast
    from repro.unit.cores import aes_core, ghash_core

    calls = {"aes": 0, "gf128": 0, "readahead": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(
        aes_core, "encrypt_block_with_schedule",
        counted("aes", aes_core.encrypt_block_with_schedule),
    )
    monkeypatch.setattr(ghash_core, "gf128_mul", counted("gf128", ghash_core.gf128_mul))
    readahead = SimpleNamespace(ctr_stream=counted("readahead", aes_core.bulk.ctr_stream))
    monkeypatch.setattr(aes_core, "bulk", readahead)
    make_spec, seed = SHAPES[shape]

    def arm(enabled: bool):
        previous = set_fast(enabled)
        try:
            return _run(make_spec, False, seed)
        finally:
            set_fast(previous)

    fast = arm(True)
    assert calls["aes"] == calls["gf128"] == 0
    if shape == "gcm_4x1" and aes_vector.HAVE_NUMPY:
        assert calls["readahead"] >= 1
    fills = calls["readahead"]
    reference = arm(False)
    assert calls["readahead"] == fills
    assert calls["aes"] > 0
    assert (calls["gf128"] > 0) == (shape == "gcm_4x1")  # only GCM runs SGFM
    assert fast["transfers"]
    assert reference == fast

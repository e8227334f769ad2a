"""The ``cores`` dataplane on the stepped reference model.

Every core and the crossbar of one platform are swapped for the stepped
copies in ``tests/stepped_models.py`` (one kernel event per instruction,
per CU completion and per word moved).  The loosely timed platform must
reproduce every transfer's bytes, outcome and download cycle, the run's
total cycles, the crossbar's word count and every FIFO's statistics.
"""

import pytest

from repro.radio.sdr_platform import ChannelConfig, SdrPlatform, WorkloadSpec
from repro.radio.standards import RadioStandard
from repro.radio.traffic import TrafficPattern
from stepped_models import SteppedCrossbar, stepped_core


def _step_everything(platform: SdrPlatform) -> None:
    mccp = platform.mccp
    cores = [
        stepped_core(platform.sim, mccp.timing, index=i, trace=mccp.trace)
        for i in range(len(mccp.cores))
    ]
    for i, core in enumerate(cores):
        core.unit.ic_out = cores[(i + 1) % len(cores)].unit.ic_in
    mccp.cores[:] = cores
    mccp.scheduler.cores[:] = cores
    mccp.crossbar = mccp.scheduler.crossbar = SteppedCrossbar(platform.sim, mccp.timing)


def _run(configs, stepped: bool, rx_fraction: float):
    platform = SdrPlatform(seed=3)
    if stepped:
        _step_everything(platform)
    report = platform.run_workload(
        WorkloadSpec(configs(), dataplane="cores", rx_fraction=rx_fraction)
    )
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
        "words_moved": platform.mccp.crossbar.words_moved,
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
                      packets=3, corrupt_rate=0.5),
        ChannelConfig(RadioStandard.UMTS_LIKE, bytes([5]) * 16, TrafficPattern.SATURATING,
                      packets=3),
    ]


@pytest.mark.parametrize(
    "configs,rx_fraction",
    [(_gcm_channels, 0.25), (_ccm_channels, 0.5)],
    ids=["gcm_4x1", "ccm_mix"],
)
def test_cores_dataplane_matches_stepped_model(configs, rx_fraction):
    stepped, loose = _run(configs, True, rx_fraction), _run(configs, False, rx_fraction)
    assert loose["transfers"]
    assert loose == stepped

"""chaos_sweep's full fault matrix: one cell per injection site.

A cell raises :class:`repro.errors.ExperimentError` unless every packet
of the fault-free run completes under the fault, in the same
per-channel order, with each survivor byte-identical
(``test_chaos_invariant.py`` shows that check failing).  A cell whose
fault never fired would pass as well, so each site must also move the
counter that shows its fault was injected and handled.
"""

import functools

import pytest

from repro.experiments.scenarios.chaos import CHAOS_SITES, chaos_sweep

#: The seed of every cell's fault plan and traffic.
SEED = 0

#: The recovery counter each site must move in its own cell.
SITE_COUNTER = {
    "batch_error": "quarantined",
    "key_error": "faults_injected",
    "core_stall": "faults_injected",
    "worker_crash": "retries",
    "crash_storm": "retries",
    "worker_hang": "watchdog_fires",
}


@functools.cache
def cell(site):
    return chaos_sweep(site, SEED)


@pytest.mark.parametrize("site", CHAOS_SITES)
def test_chaos_cell_survives_and_moves_its_counter(site):
    metrics = cell(site)
    if site in SITE_COUNTER:
        assert metrics[SITE_COUNTER[site]] > 0, metrics
    if site == "slow_sweep":
        # A slow span is late, not lost: nothing retries or times out.
        assert metrics["retries"] == 0 and metrics["watchdog_fires"] == 0, metrics


def test_the_matrix_injects_and_quarantines_faults():
    totals = {
        key: sum(cell(site)[key] for site in CHAOS_SITES)
        for key in ("faults_injected", "quarantined")
    }
    assert totals["faults_injected"] > 0 and totals["quarantined"] > 0, totals


def test_batch_error_quarantines_follow_the_fault_plan():
    """Retries and watchdog fires depend on how the pool schedules the
    shards; quarantines and dead letters follow the fault plan alone, so
    a second run of the cell repeats them."""
    first, second = cell("batch_error"), chaos_sweep("batch_error", SEED)
    for key in ("quarantined", "dead_lettered"):
        assert first[key] == second[key] > 0

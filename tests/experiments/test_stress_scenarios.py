"""The gold-model stress scenarios, full grids.

Each scenario raises :class:`repro.errors.ExperimentError` on the first
output that differs from its reference, so completing is the check;
the figures it reports pin how much it checked.
"""

import pytest

from repro.experiments.scenarios.stress import key_churn, mode_mix

#: mode_mix draws its messages from this seed.
SEED = 0


@pytest.mark.parametrize("mode", ["gcm", "ccm", "gmac", "mixed"])
def test_mode_mix_fast_path_equals_reference(mode):
    metrics = mode_mix(mode, SEED)
    assert metrics["messages"] == 12
    assert metrics["bytes_processed"] >= 12 * 64


@pytest.mark.parametrize("cores", [2, 4])
def test_key_churn_device_output_is_the_gold_model(cores):
    metrics = key_churn(cores)
    assert metrics["key_loads"] == metrics["packets_done"] == 24

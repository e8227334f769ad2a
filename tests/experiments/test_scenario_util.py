"""Helpers the built-in scenarios share."""

from repro.experiments.scenarios._util import deterministic_bytes


def test_deterministic_bytes_is_stable_and_not_constant():
    # Regression: a fresh Random(seed) per byte once collapsed every
    # bench input to one repeated value (2 KB of 0x79), which both
    # misrepresents traffic and runs ~2x slower through numpy gathers.
    data = deterministic_bytes(2048, 12)
    assert data == deterministic_bytes(2048, 12)
    assert len(set(data)) > 100
    assert deterministic_bytes(2048, 13) != data

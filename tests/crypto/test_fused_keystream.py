"""One fused keystream call against the per-spec one-call path.

``batch._fused_keystream`` builds every counter block of a sweep in one
vectorised pass: each spec's top bits, fixed bits and start value are
spread over its blocks and a per-block offset is masked to the spec's
increment field.  One call must equal ``bulk.ctr_stream`` spec by spec
when a sweep mixes increment widths of 16, 24, 32 and 64 bits, counter
fields that wrap mid-run (the 64-bit one included), per-lane keys of
every size, a 0-block spec, and a spec list that splits at
``MAX_SWEEP_BLOCKS``.
"""

import random

import pytest

from repro.crypto.fast import batch
from repro.crypto.fast.aes_ttable import expand_key_cached
from repro.crypto.fast.bulk import ctr_stream

pytestmark = pytest.mark.skipif(not batch.HAVE_NUMPY, reason="sweeps are the numpy path")

INC_BITS = (16, 24, 32, 64)


def _specs(rng, sizes):
    """One spec per size: a random counter whose increment field sits
    *before* blocks short of its wrap, the widths dealt in turn."""
    specs = []
    for index, nblocks in enumerate(sizes):
        inc_bits = INC_BITS[index % len(INC_BITS)]
        before = rng.randint(1, max(1, nblocks - 1))
        field = ((1 << inc_bits) - before) % (1 << inc_bits)
        c0 = rng.getrandbits(128) >> inc_bits << inc_bits | field
        specs.append((c0, inc_bits, nblocks))
    return specs


def _expected(schedules, specs):
    return [
        ctr_stream(schedule, c0.to_bytes(16, "big"), nblocks, inc_bits)
        for schedule, (c0, inc_bits, nblocks) in zip(schedules, specs)
    ]


def _spy(monkeypatch):
    """Record each sweep's ``(increment widths, blocks)``."""
    sweeps = []
    sweep = batch._keystream_sweep

    def spy(schedules, specs):
        sweeps.append(({bits for _, bits, _ in specs}, sum(n for _, _, n in specs)))
        return sweep(schedules, specs)

    monkeypatch.setattr(batch, "_keystream_sweep", spy)
    return sweeps


def test_one_call_mixes_widths_wraps_and_keys(monkeypatch):
    rng = random.Random(33)
    keys = [rng.randbytes(size) for size in (16, 16, 24, 32, 16, 32)]
    sizes = [5, 0, 9, 3, 17, 1, 12, 40, 2, 7, 6, 4, 0, 11, 8, 3, 21, 9]
    schedules = [expand_key_cached(keys[index % len(keys)]) for index in range(len(sizes))]
    specs = _specs(rng, sizes)
    sweeps = _spy(monkeypatch)
    assert batch._fused_keystream(schedules, specs) == _expected(schedules, specs)
    # One sweep per key size, and one of them carries every width.
    assert len(sweeps) == 3
    assert any(widths == set(INC_BITS) for widths, _ in sweeps)


def test_shared_schedule_and_a_zero_block_spec():
    rng = random.Random(34)
    schedule = expand_key_cached(rng.randbytes(24))
    sizes = [0, 4, 0, 9, 1]
    specs = _specs(rng, sizes)
    streams = batch._fused_keystream(schedule, specs)
    assert streams == _expected([schedule] * len(sizes), specs)
    assert streams[0] == streams[2] == b""


def test_split_at_the_sweep_cap(monkeypatch):
    rng = random.Random(35)
    keys = [rng.randbytes(16) for _ in range(3)]
    cap = batch.MAX_SWEEP_BLOCKS
    sizes = [cap - 100, 70, 0, 60, 33, cap + 5, 9]
    schedules = [expand_key_cached(rng.choice(keys)) for _ in sizes]
    specs = _specs(rng, sizes)
    sweeps = _spy(monkeypatch)
    assert batch._fused_keystream(schedules, specs) == _expected(schedules, specs)
    blocks = [n for _, n in sweeps]
    assert sum(blocks) == sum(sizes)
    assert blocks == [cap - 30, 93, cap + 5, 9]

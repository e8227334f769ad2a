"""The AES core's counter-run readahead.

A counter run fills its buffer, once used up, with its next
``max(n, m - n)`` blocks in one :func:`repro.crypto.fast.bulk.ctr_stream`
call, ``n`` being the blocks it has consumed and ``m`` the length of
the core's last run longer than ``MIN_LANES``
(:data:`repro.crypto.fast.batch.MIN_LANES`) blocks: from its second
block once the core has such a run, else from ``n >= MIN_LANES``.
Every result must equal the block encrypted alone, whatever the run's
shape.
"""

from types import SimpleNamespace

import pytest

from repro.core.key_cache import KeyCache
from repro.crypto.aes import expand_key
from repro.crypto.fast import aes_vector, bulk
from repro.crypto.fast.batch import MIN_LANES
from repro.unit.cores import aes_core
from repro.unit.cores.aes_core import AesCore, encrypt_block_int
from repro.unit.cores.inc_core import inc16
from repro.unit.timing import DEFAULT_TIMING

SCHEDULE = tuple(tuple(rk) for rk in expand_key(bytes(range(32))))
#: The longest counter run a core sees: a full FIFO's 128 data blocks
#: after the mode's pre-counter block (GCM's J0, CCM's A0).
LONGEST_RUN = 129
#: A counter block with its 16-bit counting field clear.
COUNTER = 0x0123456789ABCDEF_01234567_00000000


@pytest.fixture
def fills(monkeypatch):
    """The window of every readahead fill, in order."""
    windows = []

    def ctr_stream(round_keys, counter, nblocks, inc_bits):
        assert inc_bits == 16  # inc16's wrap
        windows.append(nblocks)
        return bulk.ctr_stream(round_keys, counter, nblocks, inc_bits)

    monkeypatch.setattr(aes_core, "bulk", SimpleNamespace(ctr_stream=ctr_stream))
    return windows


needs_numpy = pytest.mark.skipif(not aes_vector.HAVE_NUMPY, reason="readahead needs numpy")


def _encrypt(core: AesCore, block: int, round_keys) -> int:
    core.start(block, round_keys, core.busy_until)
    return core.finalize(core.busy_until)[0]


def _run(core: AesCore, first: int, length: int, round_keys=SCHEDULE, stride: int = 1):
    """Drive a run of *length* blocks from *first*; check every result."""
    block = first
    for _ in range(length):
        assert _encrypt(core, block, round_keys) == encrypt_block_int(block, round_keys)
        block = inc16(block, stride)


@needs_numpy
def test_run_across_the_16_bit_wrap(fills):
    core = AesCore(DEFAULT_TIMING)
    _run(core, COUNTER | 0xFFF4, 40)
    _run(core, COUNTER | 0xFFF4, 40)
    # The first fill (0xFFFC..0x0003) wraps; the second run reads its
    # last 39 blocks at once, from its second block.
    assert fills == [8, 16, 32, 39]
    assert core.blocks_processed == 80


@needs_numpy
def test_a_key_install_mid_run_serves_no_stale_block(fills):
    cache = KeyCache()
    core = AesCore(DEFAULT_TIMING)
    cache.install(expand_key(bytes(16)), 128)
    block = COUNTER
    for i in range(40):
        if i in (20, 32):
            # Both land with blocks still buffered.  Equal values at 32:
            # still a new schedule object, so a new run.
            key = bytes(16) if i == 32 else bytes(range(16))
            cache.install(expand_key(key), 128)
        keys = cache.round_keys()
        assert _encrypt(core, block, keys) == encrypt_block_int(block, keys)
        block = inc16(block, 1)
    # The second run read 19 ahead from its second block, sized by the
    # first (20 blocks); the third 11, sized by the second (12 blocks).
    assert fills == [8, 16, 19, 11]


@pytest.mark.parametrize("stride", [2, 3, 4])
def test_strided_and_scattered_blocks_stay_scalar(fills, stride):
    core = AesCore(DEFAULT_TIMING)
    _run(core, COUNTER, 40, stride=stride)
    _run(core, COUNTER, 40, stride=stride)
    for block in (COUNTER, COUNTER | 7, COUNTER | 3, 0, COUNTER | 4, COUNTER | 5 << 16):
        assert _encrypt(core, block, SCHEDULE) == encrypt_block_int(block, SCHEDULE)
    assert fills == []


def test_runs_shorter_than_min_lanes_make_no_vector_call(fills):
    core = AesCore(DEFAULT_TIMING)
    for length in range(1, MIN_LANES + 1):
        for repeat in range(3):
            _run(core, COUNTER | repeat << 8, length)
    assert fills == []


@needs_numpy
def test_a_long_run_after_a_long_run_fills_in_one_call(fills):
    core = AesCore(DEFAULT_TIMING)
    _run(core, COUNTER, LONGEST_RUN)
    # The first run doubles its fills; the last one reads 127 blocks past
    # the run's end.
    assert fills == [8, 16, 32, 64, 128]
    # A lone block between (GCM's H = E(0)) neither reads ahead nor
    # changes the next window; a short run (a 32-byte packet) reads the
    # long run's window from its second block and does not change it.
    _run(core, 0, 1)
    _run(core, COUNTER | 0x4000, 3)
    _run(core, COUNTER | 0x8000, LONGEST_RUN)
    assert fills[5:] == [LONGEST_RUN - 1, LONGEST_RUN - 1]


@needs_numpy
def test_no_readahead_without_numpy(fills, monkeypatch):
    core = AesCore(DEFAULT_TIMING)
    _run(core, COUNTER, 40)
    del fills[:]
    monkeypatch.setattr(aes_vector, "HAVE_NUMPY", False)
    _run(core, COUNTER | 0x4000, 40)
    assert fills == []

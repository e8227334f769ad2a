"""The AES core's counter-run readahead.

Once a counter run has consumed ``n >= MIN_LANES`` blocks
(:data:`repro.crypto.fast.batch.MIN_LANES`) and its buffer is used up,
the core fills the buffer with its next ``max(n, m - n)`` blocks in
one :func:`repro.crypto.fast.bulk.ctr_stream` call, ``m`` being the
length of the last run that read ahead.  Every result must equal the
block encrypted alone, whatever the run's shape.
"""

from types import SimpleNamespace

import pytest

from repro.core.key_cache import KeyCache
from repro.crypto.aes import expand_key
from repro.crypto.fast import aes_vector, bulk, set_fast
from repro.crypto.fast.batch import MIN_LANES
from repro.unit.cores import aes_core
from repro.unit.cores.aes_core import AesCore, encrypt_block_int
from repro.unit.cores.inc_core import inc16
from repro.unit.timing import DEFAULT_TIMING

SCHEDULE = tuple(tuple(rk) for rk in expand_key(bytes(range(32))))
#: A counter block with its 16-bit counting field clear.
COUNTER = 0x0123456789ABCDEF_01234567_00000000


@pytest.fixture
def fills(monkeypatch):
    """The window of every readahead fill, in order; the fast engine on."""
    windows = []

    def ctr_stream(round_keys, counter, nblocks, inc_bits):
        assert inc_bits == 16  # inc16's wrap
        windows.append(nblocks)
        return bulk.ctr_stream(round_keys, counter, nblocks, inc_bits)

    monkeypatch.setattr(aes_core, "bulk", SimpleNamespace(ctr_stream=ctr_stream))
    previous = set_fast(True)
    yield windows
    set_fast(previous)


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
    # last 32 blocks at once.
    assert fills == [8, 16, 32, 32]
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
    # The second run read 12 ahead, sized by the first (20 blocks).
    assert fills == [8, 16, 12]


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
    _run(core, COUNTER, 130)
    # Short runs between (GCM's H = E(0), a 16-byte packet) neither
    # read ahead nor change the next window.
    _run(core, 0, 1)
    _run(core, COUNTER | 0x4000, 3)
    _run(core, COUNTER | 0x8000, 130)
    assert fills == [8, 16, 32, 64, 128, 130 - MIN_LANES]


@needs_numpy
@pytest.mark.parametrize("switch", ["fast", "numpy"])
def test_no_readahead_without_the_fast_engine_or_numpy(fills, monkeypatch, switch):
    core = AesCore(DEFAULT_TIMING)
    _run(core, COUNTER, 40)
    del fills[:]
    if switch == "fast":
        set_fast(False)
    else:
        monkeypatch.setattr(aes_vector, "HAVE_NUMPY", False)
    _run(core, COUNTER | 0x4000, 40)
    assert fills == []

"""Several keys' CCM dispatches in one engine call.

``batch._ccm_seal_open_groups`` seals and opens one ``(key, seals,
opens, tag_length)`` group per key, and runs the CBC-MAC chains of
every group as the lanes of one sweep with per-lane round keys.  Each
group's pair must equal what the one-group engine
(``batch._ccm_seal_open``) and the per-packet one-call APIs give, for
one to six groups (the same key twice among them, and mixed key
sizes), empty direction lists, 0-byte and non-block-multiple
payloads, aad, every tag length and forged tags, with lane totals on
both sides of ``MIN_LANES``.  ``test_batch_nonumpy.py`` runs the engine
without numpy.
"""

import random

import pytest

from repro.crypto.fast import batch
from repro.crypto.fast.batch import MIN_LANES
from repro.crypto.fast.bulk import ccm_open, ccm_seal
from repro.errors import AuthenticationFailure

SIZES = (0, 1, 15, 16, 17, 33, 100, 256)
AADS = (b"", b"hdr", bytes(range(40)))
TAG_LENGTHS = (4, 6, 8, 10, 12, 14, 16)


def make_groups(count, lanes_per_group, seed, key_sizes=(16,)):
    """*count* groups; groups 0 and 1 (when both exist) share a key."""
    rng = random.Random(seed)
    keys = [rng.randbytes(rng.choice(key_sizes)) for _ in range(count)]
    if count > 1:
        keys[1] = keys[0]
    groups = []
    serial = 0
    for index, key in enumerate(keys):
        tag_length = TAG_LENGTHS[(seed + index) % len(TAG_LENGTHS)]
        n_seals = rng.randrange(lanes_per_group + 1) if index % 3 else 0
        n_opens = lanes_per_group - n_seals if index % 4 != 3 else 0
        seals, opens = [], []
        for lane in range(n_seals + n_opens):
            serial += 1
            nonce = serial.to_bytes(rng.choice((7, 11, 13)), "big")
            data = rng.randbytes(SIZES[(serial + index) % len(SIZES)])
            aad = AADS[serial % len(AADS)]
            if lane < n_seals:
                seals.append((nonce, data, aad))
                continue
            length = TAG_LENGTHS[serial % len(TAG_LENGTHS)]
            ciphertext, tag = ccm_seal(key, nonce, data, aad, length)
            if serial % 3 == 1:
                tag = bytes([tag[0] ^ 0x80]) + tag[1:]
            opens.append((nonce, ciphertext, tag, aad))
        groups.append((key, seals, opens, tag_length))
    return groups


def one_call(group):
    """The per-packet oracle for one group."""
    key, seals, opens, tag_length = group
    sealed = [ccm_seal(key, *packet, tag_length) for packet in seals]
    opened = []
    for nonce, ciphertext, tag, aad in opens:
        try:
            opened.append(ccm_open(key, nonce, ciphertext, tag, aad))
        except AuthenticationFailure:
            opened.append(None)
    return sealed, opened


def check_groups(groups):
    fused = batch._ccm_seal_open_groups(groups)
    assert len(fused) == len(groups)
    for group, pair in zip(groups, fused):
        assert pair == batch._ccm_seal_open(*group)
        assert pair == one_call(group)
    return fused


#: (groups, lanes per group): totals below, at and above MIN_LANES.
SHAPES = [
    (1, 1),
    (2, 1),
    (2, MIN_LANES // 2 - 1),
    (3, MIN_LANES // 2),
    (4, 1),
    (4, MIN_LANES // 4),
    (5, 3),
    (6, 1),
    (6, MIN_LANES),
]


@pytest.mark.parametrize("count,lanes", SHAPES)
@pytest.mark.parametrize("seed", range(3))
def test_groups_equal_per_group_engine(count, lanes, seed):
    check_groups(make_groups(count, lanes, seed * 1000 + count * 10 + lanes))


@pytest.mark.parametrize("count,lanes", [(3, 2), (6, MIN_LANES)])
def test_mixed_key_sizes(count, lanes):
    check_groups(make_groups(count, lanes, 77 + count, key_sizes=(16, 24, 32)))


def test_empty_direction_lists_and_empty_groups():
    rng = random.Random(5)
    key_a, key_b = rng.randbytes(16), rng.randbytes(16)
    seal_only = (key_a, [(b"\x01" * 13, b"payload", b"")], [], 8)
    nonce, data = b"\x02" * 11, rng.randbytes(40)
    ciphertext, tag = ccm_seal(key_b, nonce, data, b"a", 12)
    open_only = (key_b, [], [(nonce, ciphertext, tag, b"a")], 12)
    empty = (key_a, [], [], 16)
    fused = check_groups([empty, seal_only, empty, open_only])
    assert fused[0] == fused[2] == ([], [])
    assert fused[3] == ([], [data])
    assert batch._ccm_seal_open_groups([]) == []
    assert batch._ccm_seal_open_groups([empty]) == [([], [])]


def test_forged_tags_fail_only_their_lane():
    fused = check_groups(make_groups(4, MIN_LANES, 11))
    verdicts = [result is None for _sealed, opened in fused for result in opened]
    assert any(verdicts) and not all(verdicts)


@pytest.mark.skipif(not batch.HAVE_NUMPY, reason="counts vector sweeps")
def test_one_mac_sweep_across_groups(monkeypatch):
    """Same key size: every group's chains share one vector sweep."""
    sweeps = []
    vector = batch._cbc_mac_lanes_vector

    def counting(schedules, messages, iv):
        sweeps.append(len(messages))
        return vector(schedules, messages, iv)

    monkeypatch.setattr(batch, "_cbc_mac_lanes_vector", counting)
    groups = make_groups(4, MIN_LANES, 3)
    batch._ccm_seal_open_groups(groups)
    assert sweeps == [sum(len(g[1]) + len(g[2]) for g in groups)]

"""One CCM dispatch: seal and open lanes share every sweep.

``seal_open_many("ccm", ...)`` runs both directions of a dispatch
through one engine, so the seal and open CBC-MAC chains are lanes of
one sweep.  Each packet's outputs must still equal what the separate
per-direction batch APIs (and the per-packet one-call APIs) give, for
any mix of lane counts, payload and aad lengths, tag lengths and
corrupted tags, and a poisoned packet must still quarantine alone.
"""

import random

import pytest

from repro.crypto.fast.batch import (
    MIN_LANES,
    ccm_open_many,
    ccm_seal_many,
    seal_open_many,
)
from repro.crypto.fast.bulk import ccm_open, ccm_seal
from repro.errors import AuthenticationFailure, QuarantinedPacketError
from repro.resilience import FaultPlan, set_fault_plan

KEY = bytes(range(16, 32))
SIZES = (0, 1, 15, 16, 17, 33, 100, 256)
AADS = (b"", b"hdr", bytes(range(40)))
TAG_LENGTHS = (4, 6, 8, 10, 12, 14, 16)


def _seals(count, rng, base=0):
    return [
        (
            (base + index + 1).to_bytes(rng.choice((7, 11, 13)), "big"),
            bytes(rng.getrandbits(8) for _ in range(SIZES[index % len(SIZES)])),
            AADS[index % len(AADS)],
        )
        for index in range(count)
    ]


def _opens(count, rng, corrupt_every=3):
    """Sealed packets to open, with mixed tag lengths and some forged."""
    opens = []
    for index, (nonce, data, aad) in enumerate(_seals(count, rng, base=1000)):
        tag_length = TAG_LENGTHS[index % len(TAG_LENGTHS)]
        ciphertext, tag = ccm_seal(KEY, nonce, data, aad, tag_length)
        if index % corrupt_every == 1:
            tag = bytes([tag[0] ^ 0x01]) + tag[1:]
        opens.append((nonce, ciphertext, tag, aad))
    return opens


def _one_call_open(packet):
    nonce, ciphertext, tag, aad = packet
    try:
        return ccm_open(KEY, nonce, ciphertext, tag, aad)
    except AuthenticationFailure:
        return None


LANE_MIXES = [
    (0, 0),
    (0, 5),
    (5, 0),
    (0, MIN_LANES + 3),
    (MIN_LANES + 3, 0),
    (3, 3),
    (1, MIN_LANES - 2),
    (MIN_LANES - 1, 1),
    (MIN_LANES + 1, 2),
    (2, MIN_LANES + 1),
    (12, 12),
]


@pytest.mark.parametrize("seal_count,open_count", LANE_MIXES)
@pytest.mark.parametrize("tag_length", TAG_LENGTHS)
def test_combined_dispatch_equals_separate_directions(
    seal_count, open_count, tag_length
):
    rng = random.Random(seal_count * 100 + open_count * 10 + tag_length)
    seals = _seals(seal_count, rng)
    opens = _opens(open_count, rng)
    sealed, opened = seal_open_many("ccm", KEY, seals, opens, tag_length)
    assert sealed == ccm_seal_many(KEY, seals, tag_length)
    assert opened == ccm_open_many(KEY, opens)
    assert sealed == [ccm_seal(KEY, *packet, tag_length) for packet in seals]
    assert opened == [_one_call_open(packet) for packet in opens]
    forged = [index for index, packet in enumerate(opens) if index % 3 == 1]
    assert [index for index, result in enumerate(opened) if result is None] == forged


def test_combined_dispatch_opens_what_it_seals():
    rng = random.Random(7)
    seals = _seals(MIN_LANES, rng)
    sealed, _ = seal_open_many("ccm", KEY, seals, [], 12)
    opens = [
        (nonce, ciphertext, tag, aad)
        for (nonce, _data, aad), (ciphertext, tag) in zip(seals, sealed)
    ]
    _, opened = seal_open_many("ccm", KEY, seals[:2], opens, 12)
    assert opened == [data for _nonce, data, _aad in seals]


@pytest.mark.parametrize("direction", ["seal", "open"])
@pytest.mark.parametrize("seal_count,open_count", [(3, 3), (MIN_LANES + 2, 4), (4, MIN_LANES + 2)])
def test_poisoned_nonce_quarantines_only_its_packet(direction, seal_count, open_count):
    rng = random.Random(11)
    seals = _seals(seal_count, rng)
    opens = _opens(open_count, rng)
    clean_sealed, clean_opened = seal_open_many("ccm", KEY, seals, opens, 8)
    victim = 2
    plan = FaultPlan(seed=4)
    plan.poison((seals if direction == "seal" else opens)[victim][0])
    previous = set_fault_plan(plan)
    try:
        sealed, opened = seal_open_many("ccm", KEY, seals, opens, 8, isolate=True)
    finally:
        set_fault_plan(previous)
    poisoned, clean = (
        (sealed, clean_sealed) if direction == "seal" else (opened, clean_opened)
    )
    assert isinstance(poisoned[victim], QuarantinedPacketError)
    assert poisoned[:victim] + poisoned[victim + 1:] == (
        clean[:victim] + clean[victim + 1:]
    )
    other, other_clean = (
        (opened, clean_opened) if direction == "seal" else (sealed, clean_sealed)
    )
    assert other == other_clean

"""Several keys' dispatches in one engine call, and the barrier's parts.

``batch._gcm_seal_open_groups`` seals and opens one ``(key, seals,
opens, tag_length)`` group per key: every counter run and ``E(J_0)``
mask shares a keystream sweep with per-lane round keys, and every tag
is a lane of one GHASH sweep (``ghash_hpower.ghash_lanes``).  Each
group's pair must equal the per-packet one-call APIs for one to six
groups (the same key twice among them, mixed key sizes), empty
direction lists, 0-byte and ragged payloads, aad, non-96-bit IVs,
every tag length and forged tags.  ``batch._seal_open_whole`` drives
both modes' engines over a list of dispatches; keystream sweeps split
at ``MAX_SWEEP_BLOCKS`` and GHASH sweeps at ``LANE_SUBKEYS`` without
changing a byte.  An inline dispatch decides which packets fault when
it is submitted, so where it later computes cannot change that.
"""

import random

import pytest

from repro.crypto.fast import batch, ghash_hpower
from repro.crypto.fast.aes_ttable import expand_key_cached
from repro.crypto.fast.bulk import ccm_seal, ctr_stream, gcm_open, gcm_seal
from repro.crypto.fast.gf128_tables import ghash_blocks_tabulated
from repro.errors import AuthenticationFailure, InjectedFault, QuarantinedPacketError
from repro.resilience import FaultPlan, set_fault_plan

SIZES = (0, 1, 15, 16, 17, 33, 100, 256, 2048)
AADS = (b"", b"hdr", bytes(range(40)))
TAG_LENGTHS = (4, 8, 12, 13, 14, 15, 16)


def make_groups(count, lanes_per_group, seed, key_sizes=(16, 24, 32)):
    """*count* GCM groups; groups 0 and 1 (when both exist) share a key."""
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
            iv = serial.to_bytes(rng.choice((12, 12, 8, 16)), "big")
            data = rng.randbytes(SIZES[(serial + index) % len(SIZES)])
            aad = AADS[serial % len(AADS)]
            if lane < n_seals:
                seals.append((iv, data, aad))
                continue
            length = TAG_LENGTHS[serial % len(TAG_LENGTHS)]
            ciphertext, tag = gcm_seal(key, iv, data, aad, length)
            if serial % 3 == 1:
                tag = bytes([tag[0] ^ 0x01]) + tag[1:]
            opens.append((iv, ciphertext, tag, aad))
        groups.append((key, seals, opens, tag_length))
    return groups


def one_call(group):
    """The per-packet oracle for one group."""
    key, seals, opens, tag_length = group
    sealed = [gcm_seal(key, *packet, tag_length) for packet in seals]
    opened = []
    for iv, ciphertext, tag, aad in opens:
        try:
            opened.append(gcm_open(key, iv, ciphertext, tag, aad))
        except AuthenticationFailure:
            opened.append(None)
    return sealed, opened


@pytest.mark.parametrize("count", [1, 2, 3, 6])
@pytest.mark.parametrize("lanes", [1, 3, batch.MIN_LANES + 1])
def test_groups_equal_the_one_call_apis(count, lanes):
    groups = make_groups(count, lanes, seed=count * 31 + lanes)
    assert batch._gcm_seal_open_groups(groups) == [one_call(g) for g in groups]


def test_empty_groups():
    assert batch._gcm_seal_open_groups([]) == []
    assert batch._gcm_seal_open_groups([(bytes(16), [], [], 16)]) == [([], [])]


def test_one_call_mixes_modes_and_keeps_dispatch_order():
    rng = random.Random(7)
    gcm_groups = make_groups(3, 4, seed=5)
    key = rng.randbytes(16)
    ccm_dispatch = (
        "ccm", key,
        [((i + 1).to_bytes(13, "big"), rng.randbytes(50), b"h") for i in range(3)],
        [], 8,
    )
    dispatches = [("gcm", *gcm_groups[0]), ccm_dispatch, ("gcm", *gcm_groups[1]),
                  ("gcm", *gcm_groups[2])]
    alone = [batch._seal_open_whole([dispatch])[0] for dispatch in dispatches]
    assert batch._seal_open_whole(dispatches) == alone
    assert alone[1][0] == [ccm_seal(key, *packet, 8) for packet in ccm_dispatch[2]]


@pytest.mark.skipif(not batch.HAVE_NUMPY, reason="sweeps are the numpy path")
def test_keystream_sweeps_split_at_the_cap_without_changing_a_byte(monkeypatch):
    rng = random.Random(11)
    schedules = [expand_key_cached(rng.randbytes(rng.choice((16, 32)))) for _ in range(9)]
    specs = [(rng.getrandbits(128), 32, rng.choice((0, 1, 3, 9, 40))) for _ in schedules]
    expected = [
        ctr_stream(schedule, c0.to_bytes(16, "big"), n, bits)
        for schedule, (c0, bits, n) in zip(schedules, specs)
    ]
    sweeps = []
    sweep = batch._keystream_sweep
    monkeypatch.setattr(
        batch, "_keystream_sweep",
        lambda s, p: sweeps.append(sum(n for _, _, n in p)) or sweep(s, p),
    )
    assert batch._fused_keystream(list(schedules), specs) == expected
    assert len(sweeps) == 2  # one per key size
    sweeps.clear()
    monkeypatch.setattr(batch, "MAX_SWEEP_BLOCKS", 10)
    assert batch._fused_keystream(list(schedules), specs) == expected
    assert len(sweeps) > 2
    assert all(blocks <= 10 or blocks == 40 for blocks in sweeps)


@pytest.mark.parametrize("cap", [1, 2, ghash_hpower.LANE_SUBKEYS])
def test_ghash_lanes_equal_the_serial_chain(cap, monkeypatch):
    monkeypatch.setattr(ghash_hpower, "LANE_SUBKEYS", cap)
    rng = random.Random(cap)
    subkeys = [rng.getrandbits(128) for _ in range(4)]
    lanes = [rng.choice(subkeys) for _ in range(13)]
    messages = [rng.randbytes(16 * rng.choice((0, 1, 2, 15, 16, 33, 130))) for _ in lanes]
    assert ghash_hpower.ghash_lanes(lanes, messages) == [
        ghash_blocks_tabulated(h, 0, m) for h, m in zip(lanes, messages)
    ]
    assert ghash_hpower.ghash_lanes([], []) == []


def _poisoned_plan(nonce):
    plan = FaultPlan(seed=1)
    plan.poison(nonce)
    return plan


def test_isolating_submit_sets_the_poisoned_packet_aside():
    key = bytes(range(16))
    seals = [((i + 1).to_bytes(12, "big"), bytes([i]) * 40, b"a") for i in range(4)]
    previous = set_fault_plan(_poisoned_plan(seals[2][0]))
    try:
        handle = batch.seal_open_submit("gcm", key, seals, [], 16, isolate=True)
    finally:
        set_fault_plan(previous)
    assert handle.deferred
    # The plan is gone when the dispatch computes: the decision stands.
    sealed, opened = handle.result()
    assert isinstance(sealed[2], QuarantinedPacketError)
    assert "injected" in str(sealed[2])
    assert sealed[:2] + sealed[3:] == [
        gcm_seal(key, *packet, 16) for packet in seals[:2] + seals[3:]
    ]
    assert opened == [] and not handle.deferred


def test_non_isolating_submit_raises_for_a_poisoned_packet():
    key = bytes(range(16))
    seals = [((i + 1).to_bytes(12, "big"), b"data", b"") for i in range(3)]
    previous = set_fault_plan(_poisoned_plan(seals[1][0]))
    try:
        with pytest.raises(InjectedFault):
            batch.seal_open_submit("gcm", key, seals, [], 16)
    finally:
        set_fault_plan(previous)

"""Multi-packet batch AEAD: lane-parallel CBC-MAC and fused counters.

The one-call APIs in :mod:`repro.crypto.fast.bulk` accelerate a single
message; this module accelerates a *batch* of same-key packets — the
shape of the paper's many-channel traffic, where the MCCP keeps every
core busy on one session key's packet stream.  Four mechanisms:

- **lane-parallel CBC-MAC** (:func:`cbc_mac_many`) — CBC-MAC's
  feedback chain cannot batch across blocks, but N packets' chains are
  mutually independent, so they run as N lanes of one packed ``(4, N)``
  T-table state (:func:`repro.crypto.fast.aes_vector
  .encrypt_state_vector`): every AES round is five numpy operations
  across all lanes, and each lane may carry its own key.  This is the software restatement of the paper's
  two-core CCM split — the MAC half stops serialising the batch.
  Ragged batches sort lanes by block count so shorter packets simply
  retire early.  Without numpy, lanes run round-robin through the
  scalar T-table round, preserving the ragged-lane structure.
- **one CCM engine** (:func:`_ccm_seal_open_groups`) — a CCM dispatch
  seals one list and opens another under one key; the engine takes
  several such groups, one per key.  Each group runs one counter sweep
  over all its packets, then the seal chains and decrypted open chains
  of *every* group run as the lanes of one CBC-MAC sweep with per-lane
  round keys, so the ~130 serial block steps of the longest chain are
  paid once per resolution, across keys and directions.
  :func:`resolve_together` resolves every in-flight inline CCM
  dispatch that way, and the radio's rx pre-seal seals every CCM
  channel in one call.  :func:`_ccm_seal_open` is the one-group case,
  and :func:`ccm_seal_many` and :func:`ccm_open_many` are its
  one-direction forms.
- **fused counter runs** (:func:`_fused_keystream`) — every packet's
  CTR blocks (and GCM's ``E(J_0)`` tag masks) are mutually
  independent, so the whole batch's counters become one packed
  encryption sweep instead of one numpy dispatch per packet.
- **H-power GHASH** — per-packet tags fold through
  :func:`repro.crypto.fast.ghash_hpower.ghash_blocks_hpower` with the
  batch's shared subkey tables.

Batch opens verify before they decrypt where the mode allows it:
:func:`gcm_open_many` checks every tag off a 1-block-per-packet mask
sweep and runs the payload keystream sweep only for the survivors
(CCM tags cover the plaintext, so :func:`ccm_open_many` cannot skip —
see its docstring).

Packet *data*/*aad* accept scatter-gather form: either one bytes-like
or a sequence of segments that are joined without caller-side copies.
Every output is byte-identical to the sequential one-call APIs (and so
to the reference implementations); the equivalence suite pins
batch == sequential == reference across modes, packet counts and
ragged length mixes.

The ``*_many`` engines always run in the calling process.
:func:`seal_open_submit` (and its blocking form :func:`seal_open_many`)
is the one entry point that takes a ``backend=``
(:mod:`repro.crypto.fast.exec`): it seals one list and opens another
under one key, the shape of an MCCP dispatch.  On a process backend
with a packet arena (:mod:`repro.crypto.fast.arena`) both lists shard
into contiguous spans that join one backend pass, so the seal and open
sweeps overlap on the workers; each span runs the engines on a worker,
and the span results are read back in span order — so the merged
output is positionally and byte-identical to the inline run
(per-packet outputs never depend on lane packing).  The dispatch stages every payload into
one shared-memory generation and each shard call pickles only ``(slab
name, offsets, lengths)`` descriptors; workers compute over
``memoryview``s of the mapped slab and write results back in place, so
neither inputs nor outputs ever cross the process boundary through
pickle.  Every other dispatch is one call run in the calling thread —
including every dispatch on a process backend in its inline state
(``ProcessPoolBackend.inline_reason``), which offers no arena.  A span
already staged when the backend goes inline finishes in this thread
over the same slab.
"""

from __future__ import annotations

import hmac
from typing import List, Optional, Sequence, Tuple, Union

from repro.crypto.fast import aes_vector
from repro.crypto.fast.aes_ttable import encrypt_words_tt, expand_key_cached
from repro.crypto.fast.bulk import (
    BLOCK_BYTES,
    KeyOrSchedule,
    Schedule,
    _gcm_j0_int,
    _ghash_aad_ct,
    _inc32,
    _schedule,
    gcm_open,
    gcm_seal,
    xor_data,
)
from repro.crypto.fast.arena import attach_view, note_key_epoch
from repro.crypto.fast.exec import BackendSpec, resolve_backend
from repro.errors import (
    BackendError,
    BlockSizeError,
    InjectedFault,
    QuarantinedPacketError,
    ReproError,
    TagError,
)
from repro.resilience import faults as _faults
from repro.resilience import stats as _resilience_stats
from repro.utils.bytesops import pad_zeros

try:  # pragma: no cover - exercised implicitly by every import
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI
    _np = None

HAVE_NUMPY = _np is not None

#: Batches narrower than this run the scalar paths (numpy dispatch
#: overhead beats the lane win below it).  Scalar time over vector time
#: for one CBC-MAC sweep of 32 blocks per lane, as the range over 3-5
#: runs (2 vCPU, Python 3.11, numpy 2.4; > 1 means the vector path wins):
#:
#:   lanes                  4          6          7          8          16
#:   AES-128            0.61-0.75  0.90-1.13  1.07-1.30  1.22-1.50  2.40-2.77
#:   AES-256            0.64-0.78  0.91-1.11  1.07-1.29  1.20-1.49  2.45-2.48
#:   AES-128, per-lane  0.50-0.92  0.88-1.17  1.12-1.37  1.18-1.51  2.13-2.87
#:   AES-256, per-lane  0.69-1.27  1.04-1.17  0.80-1.50  1.23-1.50  1.58-3.67
#:
#: The per-lane rows deal four keys round-robin over the lanes, as a
#: multi-key sweep of :func:`_ccm_seal_open_groups` does, and include
#: building the per-lane round-key array (10 runs).  With the former
#: 17-operation AES round the vector path still lost at 8 lanes
#: (0.60-0.66) and broke even at about 12.  Now it overtakes between 6
#: and 7 lanes, with one key or one per lane; 8 keeps a margin of about
#: 1.2x, so run to run noise never turns the switch into a loss.  The
#: same bound gates the fused counter sweep (:func:`_fused_keystream`).
MIN_LANES = 8

Buffers = Union[bytes, bytearray, memoryview, Sequence[bytes]]

#: ``(initial_counter, inc_bits, nblocks)`` — one packet's counter run.
_CounterSpec = Tuple[int, int, int]

_ZERO_IV = b"\x00" * BLOCK_BYTES


def gather(data: Buffers) -> bytes:
    """Coalesce a scatter-gather buffer list into one bytes object."""
    if isinstance(data, (bytes, bytearray, memoryview)):
        return bytes(data)
    return b"".join(bytes(segment) for segment in data)


# -- backend sharding ------------------------------------------------------
#
# Every packet's outputs depend only on its own (nonce, data, aad[, tag])
# under the shared key — never on which lanes it shares a sweep with —
# so a batch may split into contiguous spans, each span run the engines
# on any worker, and the span results read back in span order,
# positionally and byte-identical to the unsharded run.  The engines
# take no backend, so a shard worker can never re-enter its own pool.


def _norm_seal_packet(packet: Sequence) -> Tuple[bytes, bytes, bytes]:
    """``(nonce, data, aad)`` as plain bytes (no views)."""
    return (
        bytes(packet[0]),
        gather(packet[1]),
        gather(packet[2]) if len(packet) > 2 else b"",
    )


def _norm_open_packet(packet: Sequence) -> Tuple[bytes, bytes, bytes, bytes]:
    """``(nonce, data, tag, aad)`` as plain bytes."""
    return (
        bytes(packet[0]),
        gather(packet[1]),
        bytes(packet[2]),
        gather(packet[3]) if len(packet) > 3 else b"",
    )


def _check_poisoned(packets) -> None:
    """Raise for the first packet an active fault plan has poisoned.

    Membership of the plan's nonce set is the whole decision, so the
    same packet faults identically on every backend and in every
    shard/bisect re-run — which is what lets the isolate path converge
    on exactly the poisoned packet.
    """
    plan = _faults.active_plan()
    if plan is None or not plan.poisoned:
        return
    for packet in packets:
        nonce = bytes(packet[0])
        if plan.is_poisoned(nonce):
            raise InjectedFault(f"injected batch error (nonce {nonce.hex()})")


# -- arena (descriptor) dataplane ------------------------------------------
#
# With a shared-memory packet arena on the backend, a dispatch stages
# every payload into one Generation and ships span *descriptors*
# instead of bytes.  Wire format (all offsets into the named slab):
#
#   seal: (nonce, data_off, data_len, aad_off, aad_len, out_off)
#         out region = ciphertext[data_len] + tag[tag_length]
#   open: (nonce, tag, data_off, data_len, aad_off, aad_len, out_off)
#         out region = plaintext[data_len], written only on auth success
#
# Workers never write input regions, so a crashed span retries (or
# quarantine-bisects) from intact inputs; out regions are per-packet
# disjoint, so re-running a span rewrites the same bytes.  Each shard
# returns only ``(key_schedule_expansions, verified_flags|None)`` —
# the payloads stay in the slab and the parent reads them back in
# place.


def _dispatch_arena(backend):
    """The backend's packet arena, when it offers one for dispatches."""
    probe = getattr(backend, "dispatch_arena", None)
    return probe() if probe is not None else None


def _buffer_length(data: Buffers) -> int:
    """Payload length without gathering (scatter lists stay scattered)."""
    if isinstance(data, (bytes, bytearray, memoryview)):
        return len(data)
    return sum(len(segment) for segment in data)


def _stage_arena(arena, seal_packets, open_packets, tag_length: int):
    """Write both direction lists into one generation; descriptors out."""
    total = 0
    for packet in seal_packets:
        data_len = _buffer_length(packet[1])
        aad_len = _buffer_length(packet[2]) if len(packet) > 2 else 0
        total += data_len + aad_len + data_len + tag_length
    for packet in open_packets:
        data_len = _buffer_length(packet[1])
        aad_len = _buffer_length(packet[3]) if len(packet) > 3 else 0
        total += data_len + aad_len + data_len
    generation = arena.reserve(total)
    seal_descs = []
    for packet in seal_packets:
        data_off, data_len = generation.write(packet[1])
        aad_off, aad_len = generation.write(
            packet[2] if len(packet) > 2 else b""
        )
        out_off = generation.alloc(data_len + tag_length)
        seal_descs.append(
            (bytes(packet[0]), data_off, data_len, aad_off, aad_len, out_off)
        )
    open_descs = []
    for packet in open_packets:
        data_off, data_len = generation.write(packet[1])
        aad_off, aad_len = generation.write(
            packet[3] if len(packet) > 3 else b""
        )
        out_off = generation.alloc(data_len)
        open_descs.append(
            (bytes(packet[0]), bytes(packet[2]),
             data_off, data_len, aad_off, aad_len, out_off)
        )
    return generation, seal_descs, open_descs


def _arena_seal_shard(mode: str, key: bytes, key_ref, slab_name: str,
                      descs, tag_length: int, fault=None):
    """One seal span of an arena dispatch; results written in place."""
    with _faults.executing(fault):
        cache_info = expand_key_cached.cache_info
        before = cache_info().misses
        note_key_epoch(key, key_ref)
        view = attach_view(slab_name)
        packets = [
            (nonce, view[d:d + dl], view[a:a + al])
            for nonce, d, dl, a, al, _out in descs
        ]
        results = _SEAL_MANY[mode](key, packets, tag_length)
        for (_n, _d, dl, _a, _al, out), (ciphertext, tag) in zip(
            descs, results
        ):
            view[out:out + dl] = ciphertext
            view[out + dl:out + dl + len(tag)] = tag
        return cache_info().misses - before, None


def _arena_open_shard(mode: str, key: bytes, key_ref, slab_name: str,
                      descs, fault=None):
    """One open span; plaintext in place, auth verdicts on the wire."""
    with _faults.executing(fault):
        cache_info = expand_key_cached.cache_info
        before = cache_info().misses
        note_key_epoch(key, key_ref)
        view = attach_view(slab_name)
        packets = [
            (nonce, view[d:d + dl], tag, view[a:a + al])
            for nonce, tag, d, dl, a, al, _out in descs
        ]
        results = _OPEN_MANY[mode](key, packets)
        verified = []
        for (_n, _t, _d, dl, _a, _al, out), plaintext in zip(descs, results):
            if plaintext is None:
                verified.append(False)
            else:
                view[out:out + dl] = plaintext
                verified.append(True)
        return cache_info().misses - before, verified


def _arena_collect(generation, shards, n_seal_spans,
                   seal_descs, open_descs, tag_length: int):
    """Read a finished arena dispatch back out of the slab, in order.

    The workers' key-schedule expansions count toward the open scopes'
    ``key_schedule_expansions``.
    """
    view = generation.view
    expansions = 0
    for expanded, _flags in shards[:n_seal_spans]:
        expansions += expanded
    sealed = [
        (bytes(view[out:out + dl]),
         bytes(view[out + dl:out + dl + tag_length]))
        for _n, _d, dl, _a, _al, out in seal_descs
    ]
    verified: List[bool] = []
    for expanded, flags in shards[n_seal_spans:]:
        expansions += expanded
        verified.extend(flags)
    opened = [
        bytes(view[out:out + dl]) if ok else None
        for (_n, _t, _d, dl, _a, _al, out), ok in zip(open_descs, verified)
    ]
    _resilience_stats.add("key_schedule_expansions", expansions)
    return sealed, opened


def _arena_packets(generation, seal_descs, open_descs):
    """Rebuild plain-bytes packets from staged inputs (quarantine path).

    Workers never write input regions, so these are byte-identical to
    what was staged — the quarantine bisect therefore converges on the
    same packets it would have seen inline.
    """
    view = generation.view
    seals = [
        (nonce, bytes(view[d:d + dl]), bytes(view[a:a + al]))
        for nonce, d, dl, a, al, _out in seal_descs
    ]
    opens = [
        (nonce, bytes(view[d:d + dl]), tag, bytes(view[a:a + al]))
        for nonce, tag, d, dl, a, al, _out in open_descs
    ]
    return seals, opens


def _arena_submit(backend, arena, mode: str, key: bytes, key_ref,
                  seal_packets, open_packets, tag_length: int,
                  isolate: bool):
    """Launch one descriptor dispatch; None when it would not shard."""
    seal_spans = backend.shard_spans(len(seal_packets))
    open_spans = backend.shard_spans(len(open_packets))
    if len(seal_spans) + len(open_spans) <= 1:
        return None
    generation, seal_descs, open_descs = _stage_arena(
        arena, seal_packets, open_packets, tag_length
    )
    plan = _faults.active_plan()
    slab = generation.slab_name

    def _call(fn, args, span_nonce):
        if plan is None:
            return (fn, args)
        return (fn, args, _faults.FaultPoint(plan, (span_nonce,)))

    calls = [
        _call(
            _arena_seal_shard,
            (mode, key, key_ref, slab, seal_descs[start:stop], tag_length),
            seal_descs[start][0],
        )
        for start, stop in seal_spans
    ] + [
        _call(
            _arena_open_shard,
            (mode, key, key_ref, slab, open_descs[start:stop]),
            open_descs[start][0],
        )
        for start, stop in open_spans
    ]

    def _collect(shards):
        return _arena_collect(
            generation, shards, len(seal_spans),
            seal_descs, open_descs, tag_length,
        )

    quarantine = None
    if isolate:
        def quarantine():
            seals, opens = _arena_packets(generation, seal_descs, open_descs)
            return _quarantine_pair(mode, key, seals, opens, tag_length)

    return SealOpenHandle(
        backend.submit(calls), _collect, quarantine, generation.release
    )


def _quarantine_split(packets: List, runner) -> List:
    """Bisect a failing span down to per-packet results.

    Healthy packets keep their normal results; each packet whose
    singleton run still raises gets a :class:`QuarantinedPacketError`
    in its slot instead of failing the whole span.  Backend
    infrastructure errors propagate — they are the retry machinery's
    business, not a poisoned packet.
    """
    if not packets:
        return []
    try:
        return list(runner(packets))
    except BackendError:
        raise
    except ReproError as exc:
        if len(packets) == 1:
            return [QuarantinedPacketError(str(exc))]
        mid = len(packets) // 2
        return _quarantine_split(packets[:mid], runner) + _quarantine_split(
            packets[mid:], runner
        )


def _quarantine_pair(mode, key, seals, opens, tag_length):
    """Bisect both direction lists inline (the isolate fallback)."""
    return (
        _quarantine_split(
            list(seals),
            lambda span: _SEAL_MANY[mode](key, span, tag_length),
        ),
        _quarantine_split(
            list(opens),
            lambda span: _OPEN_MANY[mode](key, span),
        ),
    )


def seal_open_many(
    mode: str,
    key: bytes,
    seal_packets: Sequence[Sequence],
    open_packets: Sequence[Sequence],
    tag_length: int = 16,
    backend: BackendSpec = None,
    isolate: bool = False,
    key_ref: Optional[Tuple[object, int]] = None,
) -> Tuple[List[Tuple[bytes, bytes]], List[Optional[bytes]]]:
    """Seal one list and open another under one key, one backend pass.

    *mode* is ``"gcm"`` or ``"ccm"``.  This is the MCCP dispatch form:
    a coalesced channel batch splits into its ENCRYPT and DECRYPT
    halves and both halves' shards join a single
    :meth:`repro.crypto.fast.exec.ExecutionBackend.run` call, so mixed
    seal+open traffic overlaps across workers instead of serialising
    direction by direction.  Results are positionally and
    byte-identical to calling the two ``*_many`` APIs inline.

    With ``isolate=True`` a packet-level :class:`ReproError` (a
    poisoned packet, a malformed nonce) no longer fails the whole
    dispatch: the failing direction bisects inline until the bad
    packets stand alone, and each gets a
    :class:`QuarantinedPacketError` instance in its result slot —
    batchmates keep their byte-identical results.  Backend
    infrastructure errors still propagate (after the backend's own
    retry machinery has given up on them).

    *key_ref* — an optional ``(key_id, epoch)`` pair from
    :mod:`repro.crypto.fast.arena` — tags the dispatch for the warm
    workers' rekey invalidation protocol; it never affects results.
    """
    return seal_open_submit(
        mode, key, seal_packets, open_packets, tag_length,
        backend=backend, isolate=isolate, key_ref=key_ref,
    ).result()


def _seal_open_whole(mode, key, seals, opens, tag_length):
    """Both directions of one dispatch as a single worker call.

    The un-sharded form :func:`seal_open_submit` uses whenever the
    dispatch does not cross to arena workers: thanks to the backends'
    serial guard a single call always executes in the submitting
    thread, where the caller's fault plan is already installed.  CCM
    runs both directions through one :func:`_ccm_seal_open` so its
    seal and open CBC-MAC chains share one lane sweep.
    """
    if mode == "ccm":
        _check_poisoned(seals)
        _check_poisoned(opens)
        return _ccm_seal_open(key, seals, opens, tag_length)
    return (
        _SEAL_MANY[mode](key, seals, tag_length),
        _OPEN_MANY[mode](key, opens),
    )


class SealOpenHandle:
    """One in-flight :func:`seal_open_many` dispatch (futures form).

    Returned by :func:`seal_open_submit`; ``done()`` is non-blocking,
    ``result()`` waits and yields the same
    ``(sealed, opened)`` pair — byte-identical to the blocking call,
    memoized, with the same ``isolate=True`` quarantine semantics
    applied at collection time.  The dataplane-specific halves ride in
    as callables: *collect* turns the backend's shard results into the
    pair, *quarantine* (None = not isolating) rebuilds the pair from
    the original packets when a packet-level error surfaces, and
    *cleanup* releases dispatch-scoped resources (an arena generation)
    exactly once, success or failure.
    """

    __slots__ = (
        "_handle", "_collect", "_quarantine", "_cleanup", "_result", "_group",
    )

    def __init__(self, handle, collect, quarantine=None, cleanup=None,
                 group=None):
        self._handle = handle
        self._collect = collect
        self._quarantine = quarantine
        self._cleanup = cleanup
        self._result = None
        #: ``(key, seals, opens, tag_length)`` of a whole-dispatch CCM
        #: handle, which :func:`resolve_together` may fuse; else None.
        self._group = group

    def done(self) -> bool:
        """Non-blocking: would :meth:`result` still wait on workers?"""
        return self._handle.done()

    def result(self):
        """The ``(sealed, opened)`` pair, in submission order (memoized)."""
        if self._result is None:
            self._result = self._resolve()
        return self._result

    @property
    def fusable(self) -> bool:
        """May :func:`resolve_together` still resolve this handle?"""
        return self._group is not None and self._result is None

    def abandon(self) -> None:
        """Give the dispatch up unread; never raises.

        Waits out any workers still writing into the dispatch's arena
        generation, then releases it, so an abandoned handle holds no
        slab region.  An unlaunched handle has nothing to wait for; it
        stops being :attr:`fusable`.
        """
        self._group = None
        if self._result is None and self._cleanup is not None:
            try:
                self._handle.result()
            except Exception:
                pass  # the dispatch is being dropped: its outcome is moot
            finally:
                self._cleanup()

    def _resolve(self):
        try:
            try:
                shards = self._handle.result()
            except ReproError as exc:
                if self._quarantine is None or isinstance(exc, BackendError):
                    raise
                return self._quarantine()
            return self._collect(shards)
        finally:
            if self._cleanup is not None:
                self._cleanup()


def seal_open_submit(
    mode: str,
    key: bytes,
    seal_packets: Sequence[Sequence],
    open_packets: Sequence[Sequence],
    tag_length: int = 16,
    backend: BackendSpec = None,
    isolate: bool = False,
    key_ref: Optional[Tuple[object, int]] = None,
) -> SealOpenHandle:
    """Launch a mixed dispatch without waiting; a :class:`SealOpenHandle`.

    The futures form of :func:`seal_open_many` — same arguments, same
    ``(sealed, opened)`` result (byte-identical, including the
    ``isolate=True`` quarantine behaviour), but the backend pass is
    *submitted* and the caller gets the handle back immediately, so a
    simulator can keep coalescing the next batch while process workers
    chew on this one.  Packets are captured eagerly — staged into the
    arena, or normalized to plain bytes — as submission-time state,
    immune to later caller mutation; recovery — retries, watchdog,
    the process backend's switch to inline, quarantine bisection — all
    runs inside ``result()``.

    When the backend offers a packet arena the dispatch ships as span
    descriptors over one shared-memory generation (released when the
    handle resolves); otherwise it is one :func:`_seal_open_whole`
    call, which runs in the calling thread.  *key_ref*
    (``(key_id, epoch)``) rides along to the warm workers' rekey
    protocol.
    """
    if mode not in _SEAL_MANY:
        raise ValueError(f"unknown batch mode {mode!r}; valid: gcm, ccm")
    backend = resolve_backend(backend)
    key = bytes(key)
    arena = _dispatch_arena(backend)
    if arena is not None:
        handle = _arena_submit(
            backend, arena, mode, key, key_ref,
            list(seal_packets), list(open_packets), tag_length, isolate,
        )
        if handle is not None:
            return handle
    seals = [_norm_seal_packet(p) for p in seal_packets]
    opens = [_norm_open_packet(p) for p in open_packets]
    quarantine = None
    if isolate:
        quarantine = lambda: _quarantine_pair(  # noqa: E731
            mode, key, seals, opens, tag_length
        )
    whole = backend.submit(
        [(_seal_open_whole, (mode, key, seals, opens, tag_length))]
    )
    # A one-call span is never launched to a pool (see
    # ExecutionBackend.submit): it computes at result() time, so a CCM
    # one may instead resolve together with its in-flight neighbours.
    group = (key, seals, opens, tag_length) if mode == "ccm" else None
    return SealOpenHandle(whole, lambda shards: shards[0], quarantine,
                          group=group)


def resolve_together(handles: Sequence[SealOpenHandle]) -> None:
    """Resolve the fusable CCM handles among *handles* in one engine call.

    Fusable handles (:attr:`SealOpenHandle.fusable`) are the
    unresolved whole-dispatch CCM ones (no arena, never launched to a
    pool); their groups run through one :func:`_ccm_seal_open_groups`
    call, so all their CBC-MAC chains share one lane sweep, and each
    handle's memoized ``result()`` becomes its own pair —
    byte-identical to resolving it alone.  A handle holding a poisoned
    packet stops being fusable and later resolves alone (and
    quarantines) through ``result()``.  If the fused call raises, no
    handle is resolved and none stays fusable: each one meets the
    error, or not, when it resolves alone.  GCM and arena handles are
    left alone.  Fewer than two members leave every handle as it was.
    """
    members = []
    for handle in handles:
        if not handle.fusable:
            continue
        _key, seals, opens, _tag_length = handle._group
        try:
            _check_poisoned(seals)
            _check_poisoned(opens)
        except InjectedFault:
            handle._group = None
            continue
        members.append(handle)
    if len(members) < 2:
        return
    try:
        pairs = _ccm_seal_open_groups([handle._group for handle in members])
    except Exception:
        # Each member resolves alone when collected and meets its own
        # error there, or none.
        for handle in members:
            handle._group = None
        return
    for handle, pair in zip(members, pairs):
        handle._result, handle._group = pair, None


# -- lane-parallel CBC-MAC -------------------------------------------------


def _lane_order(messages: Sequence[bytes]) -> Tuple[List[int], List[int]]:
    """Lanes sorted by descending block count (ragged retirement order)."""
    counts = [len(m) // BLOCK_BYTES for m in messages]
    order = sorted(range(len(messages)), key=lambda i: (-counts[i], i))
    return order, counts


def _lane_keys(schedules: Sequence[Schedule], order: Sequence[int]):
    """uint32 round keys of a sweep's lanes, in *order*.

    ``(rounds + 1, 4, N)`` with one schedule per lane, or
    ``(rounds + 1, 4, 1)``, broadcast over every lane, when they share
    one.
    """
    distinct = list(dict.fromkeys(schedules))
    if len(distinct) == 1:
        return aes_vector._round_keys_array(distinct[0])
    index = {schedule: i for i, schedule in enumerate(distinct)}
    stacked = _np.concatenate(
        [aes_vector._round_keys_array(schedule) for schedule in distinct], axis=2
    )
    return stacked[:, :, [index[schedules[i]] for i in order]]


def _cbc_mac_lanes_vector(
    schedules: Sequence[Schedule], messages: Sequence[bytes], iv: bytes
) -> List[bytes]:
    """All chains as lanes of one packed state; shorter lanes retire.

    Lane *i* runs under ``schedules[i]``; every schedule has the same
    round count.
    """
    from bisect import bisect_left

    order, counts = _lane_order(messages)
    lanes = len(messages)
    sorted_negated = [-counts[i] for i in order]
    max_blocks = counts[order[0]]
    round_keys = _lane_keys(schedules, order)
    blocks = _np.zeros((max_blocks, 4, lanes), dtype=_np.uint32)
    for rank, index in enumerate(order):
        words = _np.frombuffer(messages[index], dtype=">u4").reshape(-1, 4)
        blocks[: counts[index], :, rank] = words
    state = _np.repeat(
        _np.frombuffer(iv, dtype=">u4").astype(_np.uint32).reshape(4, 1),
        lanes,
        axis=1,
    )
    for step in range(max_blocks):
        active = bisect_left(sorted_negated, -step)
        state[:, :active] = aes_vector.encrypt_state_vector(
            state[:, :active] ^ blocks[step, :, :active],
            round_keys[:, :, :active],
        )
    raw = aes_vector.state_to_bytes(state)
    macs: List[Optional[bytes]] = [None] * lanes
    for rank, index in enumerate(order):
        macs[index] = raw[BLOCK_BYTES * rank : BLOCK_BYTES * (rank + 1)]
    return macs


def _cbc_mac_lanes_scalar(
    schedules: Sequence[Schedule], messages: Sequence[bytes], iv: bytes
) -> List[bytes]:
    """Round-robin the lanes through the scalar T-table round.

    Same ragged-lane structure as the vector path (lane *i* absorbs its
    block *t* before any lane absorbs block *t+1*), so the fallback and
    the vector engine walk the batch in the same order.  Lane *i* runs
    under ``schedules[i]``.
    """
    order, counts = _lane_order(messages)
    states = [int.from_bytes(iv, "big")] * len(messages)
    max_blocks = counts[order[0]] if order else 0
    for step in range(max_blocks):
        start = BLOCK_BYTES * step
        for index in order:
            if counts[index] <= step:
                break  # descending order: every later lane retired too
            x = states[index] ^ int.from_bytes(
                messages[index][start : start + BLOCK_BYTES], "big"
            )
            o0, o1, o2, o3 = encrypt_words_tt(
                (x >> 96) & 0xFFFFFFFF,
                (x >> 64) & 0xFFFFFFFF,
                (x >> 32) & 0xFFFFFFFF,
                x & 0xFFFFFFFF,
                schedules[index],
            )
            states[index] = (o0 << 96) | (o1 << 64) | (o2 << 32) | o3
    return [state.to_bytes(BLOCK_BYTES, "big") for state in states]


def _cbc_mac_lanes(
    schedules: Sequence[Schedule], messages: Sequence[bytes], iv: bytes
) -> List[bytes]:
    """CBC-MAC lane *i* of *messages* under ``schedules[i]``.

    Lanes of one round count share one sweep, so there is one sweep per
    key size present: vectorised from :data:`MIN_LANES` lanes, the
    scalar round-robin below.
    """
    by_rounds = {}
    for index, schedule in enumerate(schedules):
        by_rounds.setdefault(len(schedule), []).append(index)
    macs: List[Optional[bytes]] = [None] * len(messages)
    for indices in by_rounds.values():
        engine = (
            _cbc_mac_lanes_vector
            if HAVE_NUMPY and len(indices) >= MIN_LANES
            else _cbc_mac_lanes_scalar
        )
        for index, mac in zip(indices, engine(
            [schedules[i] for i in indices], [messages[i] for i in indices], iv
        )):
            macs[index] = mac
    return macs


def cbc_mac_many(
    key_or_schedule: KeyOrSchedule,
    messages: Sequence[bytes],
    iv: bytes = _ZERO_IV,
) -> List[bytes]:
    """CBC-MAC every message of a same-key batch, lane-parallel.

    Byte-identical to mapping :func:`repro.crypto.fast.bulk
    .cbc_mac_fast` over *messages*; the batch form exists because the
    per-message feedback chain is the serialising half of CCM.
    """
    if len(iv) != BLOCK_BYTES:
        raise BlockSizeError(f"CBC-MAC IV must be 16 bytes, got {len(iv)}")
    for message in messages:
        if len(message) % BLOCK_BYTES != 0:
            raise BlockSizeError(
                f"CBC-MAC input length {len(message)} is not a multiple of 16"
            )
        if not message:
            raise BlockSizeError("CBC-MAC requires at least one block")
    if not messages:
        return []
    round_keys = tuple(tuple(words) for words in _schedule(key_or_schedule))
    return _cbc_mac_lanes([round_keys] * len(messages), messages, iv)


# -- fused counter keystreams ----------------------------------------------


def _fused_keystream(
    round_keys: Schedule, specs: Sequence[_CounterSpec]
) -> List[bytes]:
    """Keystream for every counter run in one packed encryption sweep.

    Each spec is ``(initial_counter, inc_bits, nblocks)`` with the low
    *inc_bits* bits incrementing per block (the
    :func:`repro.crypto.fast.bulk.ctr_stream` semantics, inc widths up
    to 64 bits — GCM's inc32 and CCM's 8q-bit fields both qualify).
    """
    from repro.crypto.fast.bulk import ctr_stream

    if not (HAVE_NUMPY and sum(spec[2] for spec in specs) >= MIN_LANES):
        return [
            ctr_stream(round_keys, c0.to_bytes(BLOCK_BYTES, "big"), nblocks, inc_bits)
            for c0, inc_bits, nblocks in specs
        ]
    total = sum(spec[2] for spec in specs)
    state = _np.empty((4, total), dtype=_np.uint32)
    offset = 0
    for c0, inc_bits, nblocks in specs:
        if nblocks == 0:
            continue
        mask = (1 << inc_bits) - 1
        hi = c0 >> inc_bits << inc_bits
        lows = _np.uint64(c0 & mask) + _np.arange(nblocks, dtype=_np.uint64)
        if inc_bits < 64:
            lows &= _np.uint64(mask)
        lane = slice(offset, offset + nblocks)
        state[0, lane] = (hi >> 96) & 0xFFFFFFFF
        state[1, lane] = (hi >> 64) & 0xFFFFFFFF
        if inc_bits <= 32:
            state[2, lane] = (hi >> 32) & 0xFFFFFFFF
            state[3, lane] = _np.uint32(hi & 0xFFFFFFFF) | lows.astype(_np.uint32)
        else:
            state[2, lane] = _np.uint32((hi >> 32) & 0xFFFFFFFF) | (
                lows >> _np.uint64(32)
            ).astype(_np.uint32)
            state[3, lane] = lows.astype(_np.uint32)
        offset += nblocks
    raw = aes_vector.state_to_bytes(
        aes_vector.encrypt_state_vector(state, round_keys)
    )
    streams = []
    offset = 0
    for _, _, nblocks in specs:
        streams.append(raw[BLOCK_BYTES * offset : BLOCK_BYTES * (offset + nblocks)])
        offset += nblocks
    return streams


# -- GCM / GMAC ------------------------------------------------------------


def _gcm_tag_hpower(
    h: int, j0_mask: bytes, aad: bytes, ciphertext: bytes, tag_length: int
) -> bytes:
    """GHASH(aad, ct, lengths) xor E(J_0), H-power folded."""
    acc = _ghash_aad_ct(h, aad, ciphertext)
    return xor_data(acc.to_bytes(BLOCK_BYTES, "big"), j0_mask)[:tag_length]


def _gcm_front(
    key: bytes, packets: Sequence[Sequence], aad_index: int
) -> Tuple[Schedule, int, List[bytes], List[bytes], List[int]]:
    """Shared GCM batch front end: schedule, H, gathered fields, J_0s.

    Packet field 0 is the IV and field 1 the data (plaintext for seal,
    ciphertext for open); *aad_index* locates the optional aad (seal
    packets carry it at 2, open packets at 3 after the tag).
    """
    round_keys = expand_key_cached(bytes(key))
    from repro.crypto.fast.aes_ttable import encrypt_block_tt

    h = int.from_bytes(encrypt_block_tt(_ZERO_IV, round_keys), "big")
    ivs = [bytes(packet[0]) for packet in packets]
    datas = [gather(packet[1]) for packet in packets]
    aads = [
        gather(packet[aad_index]) if len(packet) > aad_index else b""
        for packet in packets
    ]
    j0s = [_gcm_j0_int(h, iv) for iv in ivs]
    return round_keys, h, datas, aads, j0s


def gcm_seal_many(
    key: bytes,
    packets: Sequence[Sequence],
    tag_length: int = 16,
) -> List[Tuple[bytes, bytes]]:
    """Seal a same-key GCM batch; returns ``[(ciphertext, tag), ...]``.

    *packets* is a sequence of ``(iv, plaintext)`` or ``(iv, plaintext,
    aad)``; plaintext and aad may be scatter-gather segment lists.
    Byte-identical to calling :func:`repro.crypto.fast.bulk.gcm_seal`
    per packet.
    """
    from repro.crypto.modes.gcm import VALID_TAG_LENGTHS

    if tag_length not in VALID_TAG_LENGTHS:
        raise TagError(
            f"GCM tag length must be one of {VALID_TAG_LENGTHS}, got {tag_length}"
        )
    if not packets:
        return []
    _check_poisoned(packets)
    if not HAVE_NUMPY:
        return [
            gcm_seal(key, bytes(p[0]), gather(p[1]), gather(p[2]) if len(p) > 2 else b"", tag_length)
            for p in packets
        ]
    round_keys, h, datas, aads, j0s = _gcm_front(key, packets, 2)
    specs: List[_CounterSpec] = [
        (_inc32(j0), 32, -(-len(data) // BLOCK_BYTES))
        for j0, data in zip(j0s, datas)
    ]
    specs += [(j0, 32, 1) for j0 in j0s]  # E(J_0) tag masks, same sweep
    streams = _fused_keystream(round_keys, specs)
    keystreams = streams[: len(packets)]
    masks = streams[len(packets) :]
    results = []
    for data, aad, stream, mask in zip(datas, aads, keystreams, masks):
        ciphertext = xor_data(data, stream)
        tag = _gcm_tag_hpower(h, mask, aad, ciphertext, tag_length)
        results.append((ciphertext, tag))
    return results


def gcm_open_many(
    key: bytes,
    packets: Sequence[Sequence],
) -> List[Optional[bytes]]:
    """Open a same-key GCM batch; ``None`` marks an authentication failure.

    *packets* is a sequence of ``(iv, ciphertext, tag)`` or ``(iv,
    ciphertext, tag, aad)``.  Failed packets release no plaintext;
    every other packet still opens (per-packet isolation, the batch
    analogue of the core purging one output FIFO).

    Verification runs **first**: GCM tags authenticate the ciphertext,
    so one 1-block-per-packet sweep yields every ``E(J_0)`` mask, the
    H-power GHASH checks all tags, and only the surviving packets join
    the payload keystream sweep — a forged 2 KB packet costs one AES
    block plus a GHASH, not a 128-block decrypt that is then discarded.
    Survivors' outputs are unaffected by failed lanes (their keystream
    counters depend only on their own J_0, not on lane packing).
    """
    from repro.crypto.modes.gcm import VALID_TAG_LENGTHS

    if not packets:
        return []
    for packet in packets:
        if len(bytes(packet[2])) not in VALID_TAG_LENGTHS:
            raise TagError(f"GCM tag length {len(bytes(packet[2]))} is invalid")
    _check_poisoned(packets)
    if not HAVE_NUMPY:
        # bulk.gcm_open already verifies before generating the payload
        # keystream, so the scalar fallback early-rejects per packet.
        return [
            _open_one(
                gcm_open,
                key,
                bytes(p[0]),
                gather(p[1]),
                bytes(p[2]),
                gather(p[3]) if len(p) > 3 else b"",
            )
            for p in packets
        ]
    round_keys, h, ciphertexts, aads, j0s = _gcm_front(key, packets, 3)
    masks = _fused_keystream(round_keys, [(j0, 32, 1) for j0 in j0s])
    verified: List[bool] = []
    for packet, ciphertext, aad, mask in zip(packets, ciphertexts, aads, masks):
        tag = bytes(packet[2])
        expected = _gcm_tag_hpower(h, mask, aad, ciphertext, len(tag))
        verified.append(hmac.compare_digest(expected, tag))
    survivor_specs: List[_CounterSpec] = [
        (_inc32(j0), 32, -(-len(ciphertext) // BLOCK_BYTES))
        for j0, ciphertext, ok in zip(j0s, ciphertexts, verified)
        if ok
    ]
    streams = iter(_fused_keystream(round_keys, survivor_specs))
    return [
        xor_data(ciphertext, next(streams)) if ok else None
        for ciphertext, ok in zip(ciphertexts, verified)
    ]


def gmac_many(
    key: bytes,
    packets: Sequence[Sequence],
    tag_length: int = 16,
) -> List[bytes]:
    """GMAC tags for a batch of ``(iv, aad)`` packets (empty plaintext)."""
    sealed = gcm_seal_many(
        key, [(packet[0], b"", packet[1]) for packet in packets], tag_length
    )
    return [tag for _, tag in sealed]


# -- CCM -------------------------------------------------------------------


#: One CCM engine group: ``(key, seals, opens, tag_length)``.
_CcmGroup = Tuple[bytes, Sequence[Sequence], Sequence[Sequence], int]


def _ccm_seal_open_groups(
    groups: Sequence[_CcmGroup],
) -> List[Tuple[List[Tuple[bytes, bytes]], List[Optional[bytes]]]]:
    """Seal and open several keys' CCM lists, sharing one CBC-MAC sweep.

    Each group ``(key, seals, opens, tag_length)`` seals one list and
    opens another under its own key, and gets back the pair
    ``(sealed, opened)``.  Every group's counters ``A_0..A_m`` run as
    one keystream sweep under its key; the opens decrypt, and then the
    seal and open CBC-MAC chains of *every* group run as the lanes of
    one sweep with per-lane round keys — one pass of up to ~130 serial
    block steps for the whole call, not one per group or direction
    (one per key size when the groups mix them).  Each packet's
    outputs depend only on its own lanes, so the results are
    byte-identical to per-packet :func:`repro.crypto.fast.bulk
    .ccm_seal` and :func:`repro.crypto.fast.bulk.ccm_open`.  Never
    consults the fault plan (the public callers do).
    """
    from repro.crypto.modes.ccm import (
        _check_params,
        format_associated_data,
        format_b0,
        format_counter_block,
    )

    staged = []  # (opens, lanes, masks, outputs, n_seals) per group
    schedules: List[Schedule] = []
    chains: List[bytes] = []
    for key, seals, opens, tag_length in groups:
        opens = [_norm_open_packet(p) for p in opens]
        # One (nonce, data, aad, tag_length) row per lane, seals first.
        lanes = [(*_norm_seal_packet(p), tag_length) for p in seals]
        lanes += [(nonce, data, aad, len(tag)) for nonce, data, tag, aad in opens]
        n_seals = len(seals)
        runs: List[bytes] = []
        if lanes:
            for nonce, data, _aad, tag_len in lanes:
                _check_params(nonce, tag_len, len(data))
            round_keys = expand_key_cached(bytes(key))
            runs = _fused_keystream(round_keys, [
                (int.from_bytes(format_counter_block(nonce, 0), "big"),
                 8 * (15 - len(nonce)),
                 -(-len(data) // BLOCK_BYTES) + 1)  # A_0..A_m
                for nonce, data, _aad, _tag_len in lanes
            ])
            schedules += [round_keys] * len(lanes)
        # run = S_0 || keystream: the ciphertext of a seal, the
        # plaintext of an open.  Only S_0 outlives this loop, so the
        # keystreams of many groups never wait for the sweep together.
        outputs = [
            xor_data(data, run[BLOCK_BYTES:])
            for (_n, data, _a, _t), run in zip(lanes, runs)
        ]
        masks = [run[:BLOCK_BYTES] for run in runs]
        for lane, ((nonce, data, aad, tag_len), output) in enumerate(
            zip(lanes, outputs)
        ):
            # Seals MAC their plaintext, opens the one they decrypt to.
            text = data if lane < n_seals else output
            chains.append(
                format_b0(nonce, len(aad), len(text), tag_len)
                + format_associated_data(aad)
                + pad_zeros(text, BLOCK_BYTES)
            )
        staged.append((opens, lanes, masks, outputs, n_seals))
    macs = iter(_cbc_mac_lanes(schedules, chains, _ZERO_IV))
    results = []
    for opens, lanes, masks, outputs, n_seals in staged:
        tags = [
            xor_data(next(macs), mask)[:tag_len]
            for mask, (_n, _d, _a, tag_len) in zip(masks, lanes)
        ]
        sealed = list(zip(outputs[:n_seals], tags[:n_seals]))
        opened = [
            text if hmac.compare_digest(expected, tag) else None
            for (_n, _d, tag, _a), text, expected in zip(
                opens, outputs[n_seals:], tags[n_seals:]
            )
        ]
        results.append((sealed, opened))
    return results


def _ccm_seal_open(
    key: bytes,
    seals: Sequence[Sequence],
    opens: Sequence[Sequence],
    tag_length: int = 16,
) -> Tuple[List[Tuple[bytes, bytes]], List[Optional[bytes]]]:
    """Seal one same-key CCM list and open another, sharing every sweep.

    The one-group case of :func:`_ccm_seal_open_groups`: one counter
    sweep over all packets, then one CBC-MAC lane sweep over the seal
    chains and the decrypted open chains together.
    """
    return _ccm_seal_open_groups([(key, seals, opens, tag_length)])[0]


def ccm_seal_many(
    key: bytes,
    packets: Sequence[Sequence],
    tag_length: int = 16,
) -> List[Tuple[bytes, bytes]]:
    """Seal a same-key CCM batch; returns ``[(ciphertext, tag), ...]``.

    *packets* is a sequence of ``(nonce, plaintext)`` or ``(nonce,
    plaintext, aad)`` (scatter-gather allowed).  The CBC-MAC half runs
    lane-parallel across the batch; byte-identical to per-packet
    :func:`repro.crypto.fast.bulk.ccm_seal`.
    """
    _check_poisoned(packets)
    return _ccm_seal_open(key, packets, (), tag_length)[0]


def ccm_open_many(
    key: bytes,
    packets: Sequence[Sequence],
) -> List[Optional[bytes]]:
    """Open a same-key CCM batch; ``None`` marks an authentication failure.

    *packets* is a sequence of ``(nonce, ciphertext, tag)`` or
    ``(nonce, ciphertext, tag, aad)``.

    Unlike GCM, CCM's tag authenticates the *plaintext*, so
    verification inherently requires the full keystream and CBC-MAC
    sweeps — there is no work to skip for a forged packet (the
    early-reject fast-out lives in :func:`gcm_open_many`).  What this
    path does guarantee is isolation: a failed lane releases no
    plaintext and cannot perturb surviving lanes' outputs, whose MAC
    chains and counters are lane-local.
    """
    _check_poisoned(packets)
    return _ccm_seal_open(key, (), packets)[1]


def _open_one(open_fn, key, nonce, ciphertext, tag, aad) -> Optional[bytes]:
    """Per-packet open for the scalar fallback (None on auth failure)."""
    from repro.errors import AuthenticationFailure

    try:
        return open_fn(key, nonce, ciphertext, tag, aad)
    except AuthenticationFailure:
        return None


#: Mode tag -> batch entry point (the dispatch tables of the shard
#: workers, the whole-dispatch call and the quarantine bisect).
_SEAL_MANY = {"gcm": gcm_seal_many, "ccm": ccm_seal_many}
_OPEN_MANY = {"gcm": gcm_open_many, "ccm": ccm_open_many}

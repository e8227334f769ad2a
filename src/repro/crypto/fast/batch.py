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
- **one engine per mode, many keys** (:func:`_ccm_seal_open_groups`,
  :func:`_gcm_seal_open_groups`) — a dispatch seals one list and opens
  another under one key; each engine takes several such groups, one
  per key, and runs all of their counters as the lanes of one
  keystream sweep with per-lane round keys.  CCM then runs the seal
  chains and decrypted open chains of *every* group as the lanes of
  one CBC-MAC sweep, so the ~130 serial block steps of the longest
  chain are paid once per call, across keys and directions; GCM runs
  every tag as a lane of one GHASH sweep
  (:func:`repro.crypto.fast.ghash_hpower.ghash_lanes`).
  :func:`_seal_open_whole` drives both engines over a list of
  dispatches; the radio's rx pre-seal seals every channel in one such
  call.  The ``*_many`` functions are the one-group, one-direction
  forms.
- **deferred dispatches and one barrier** — an inline dispatch from
  :func:`seal_open_submit` computes nothing when submitted: it is
  :attr:`SealOpenHandle.deferred` until its own ``result()`` computes
  it alone, or until :func:`resolve_deferred`, the end-of-run barrier
  of the radio dataplane, computes every deferred dispatch of the run
  in one engine call (keystream sweeps capped at
  :data:`MAX_SWEEP_BLOCKS` blocks).  This
  is the multi-buffer technique (Guilford et al., Intel 2010) applied
  across a whole run: every independent chain of every channel is a
  lane of the same sweeps.
- **fused counter runs** (:func:`_fused_keystream`) — every packet's
  CTR blocks (and GCM's ``E(J_0)`` tag masks) are mutually
  independent, so the whole call's counters become one packed
  encryption sweep per key size instead of one numpy dispatch per
  packet.

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
    _inc32,
    _schedule,
    xor_data,
)
from repro.crypto.fast.arena import attach_view
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

#: Counter blocks one keystream sweep (:func:`_fused_keystream`) covers
#: at most; longer spec lists split into several sweeps.  A sweep's
#: numpy working set is ~400 bytes per block (the state, per-lane round
#: keys and the round's gather temporaries), about 1.6 MB here — the
#: size of one 32-packet dispatch of 2 KB packets — however many
#: dispatches the barrier (:func:`resolve_deferred`) computes at once.
#: The barrier's other arrays (CBC-MAC chains, GHASH messages) are one
#: copy of the packets themselves, whose inputs and outputs the run
#: holds anyway.
MAX_SWEEP_BLOCKS = 4096

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


def _split_poisoned(packets: List) -> Tuple[List, dict]:
    """``(clean packets, {index: QuarantinedPacketError})`` under the plan.

    The submit-time form of :func:`_check_poisoned` for an isolating
    dispatch: each poisoned packet leaves the work with the error its
    singleton run would raise, so when and where the rest computes
    cannot change what quarantines.
    """
    plan = _faults.active_plan()
    if plan is None or not plan.poisoned:
        return packets, {}
    clean, quarantined = [], {}
    for index, packet in enumerate(packets):
        try:
            _check_poisoned((packet,))
        except InjectedFault as exc:
            quarantined[index] = QuarantinedPacketError(str(exc))
        else:
            clean.append(packet)
    return clean, quarantined


def _restore_slots(results: List, quarantined: dict) -> List:
    """*results* of the clean packets with the quarantined slots put back."""
    if not quarantined:
        return results
    rest = iter(results)
    return [
        quarantined[index] if index in quarantined else next(rest)
        for index in range(len(results) + len(quarantined))
    ]


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


def _arena_seal_shard(mode: str, key: bytes, slab_name: str, descs,
                      tag_length: int, fault=None):
    """One seal span of an arena dispatch; results written in place."""
    with _faults.executing(fault):
        cache_info = expand_key_cached.cache_info
        before = cache_info().misses
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


def _arena_open_shard(mode: str, key: bytes, slab_name: str, descs,
                      fault=None):
    """One open span; plaintext in place, auth verdicts on the wire."""
    with _faults.executing(fault):
        cache_info = expand_key_cached.cache_info
        before = cache_info().misses
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


def _arena_submit(backend, arena, mode: str, key: bytes, seal_packets,
                  open_packets, tag_length: int, isolate: bool):
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
            (mode, key, slab, seal_descs[start:stop], tag_length),
            seal_descs[start][0],
        )
        for start, stop in seal_spans
    ] + [
        _call(
            _arena_open_shard,
            (mode, key, slab, open_descs[start:stop]),
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
    """
    return seal_open_submit(
        mode, key, seal_packets, open_packets, tag_length,
        backend=backend, isolate=isolate,
    ).result()


#: One inline dispatch: ``(mode, key, seals, opens, tag_length)``.
_Dispatch = Tuple[str, bytes, Sequence[Sequence], Sequence[Sequence], int]


def _seal_open_whole(dispatches: Sequence[_Dispatch]):
    """Compute inline dispatches in shared sweeps; their pairs, in order.

    Every CCM dispatch joins one :func:`_ccm_seal_open_groups` call and
    every GCM dispatch one :func:`_gcm_seal_open_groups` call, so each
    pair is byte-identical to computing its dispatch alone.  The
    un-sharded work of :func:`seal_open_submit` (one dispatch, run in
    the submitting thread by the backends' serial guard) and the
    barrier (:func:`resolve_deferred`) both run here.  Never consults
    the fault plan: poisoned packets left each dispatch when it was
    submitted.
    """
    pairs: List = [None] * len(dispatches)
    for mode, engine in (
        ("ccm", _ccm_seal_open_groups), ("gcm", _gcm_seal_open_groups),
    ):
        indices = [i for i, dispatch in enumerate(dispatches) if dispatch[0] == mode]
        if indices:
            for index, pair in zip(
                indices, engine([dispatches[i][1:] for i in indices])
            ):
                pairs[index] = pair
    return pairs


class SealOpenHandle:
    """One submitted :func:`seal_open_many` dispatch (futures form).

    Returned by :func:`seal_open_submit`; ``result()`` waits and
    yields the same ``(sealed, opened)`` pair — byte-identical to the
    blocking call, memoized, with the same ``isolate=True`` quarantine
    semantics applied at collection time.  The dataplane-specific halves ride in
    as callables: *collect* turns the backend's shard results into the
    pair, *quarantine* (None = not isolating) rebuilds the pair from
    the original packets when a packet-level error surfaces, and
    *cleanup* releases dispatch-scoped resources (an arena generation)
    exactly once, success or failure.  An inline dispatch also carries
    its *dispatch* tuple: it stays :attr:`deferred` until ``result()``
    or :func:`resolve_deferred` computes it.
    """

    __slots__ = (
        "_handle", "_collect", "_quarantine", "_cleanup", "_result",
        "_dispatch",
    )

    def __init__(self, handle, collect, quarantine=None, cleanup=None,
                 dispatch=None):
        self._handle = handle
        self._collect = collect
        self._quarantine = quarantine
        self._cleanup = cleanup
        self._result = None
        #: The inline work (:data:`_Dispatch`); None on an arena handle.
        self._dispatch = dispatch

    def result(self):
        """The ``(sealed, opened)`` pair, in submission order (memoized)."""
        if self._result is None:
            self._result = self._resolve()
        return self._result

    @property
    def deferred(self) -> bool:
        """Has this inline dispatch computed nothing yet?

        A deferred handle waits for its own ``result()`` or for
        :func:`resolve_deferred`; arena handles are never deferred, their
        workers start at submission.
        """
        return self._dispatch is not None and self._result is None

    def abandon(self) -> None:
        """Give the dispatch up unread; never raises.

        Waits out any workers still writing into the dispatch's arena
        generation, then releases it, so an abandoned handle holds no
        slab region.  An inline handle has nothing to wait for.
        """
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
    call, which computes nothing yet: the handle is
    :attr:`SealOpenHandle.deferred` until ``result()`` runs it in the
    calling thread or :func:`resolve_deferred` runs it with others.
    The fault plan is read here either way, so a poisoned packet
    faults the same wherever its dispatch computes: an inline
    non-isolating dispatch raises :class:`InjectedFault` right away,
    an isolating one sets the packet's :class:`QuarantinedPacketError`
    aside.
    """
    if mode not in _SEAL_MANY:
        raise ValueError(f"unknown batch mode {mode!r}; valid: gcm, ccm")
    backend = resolve_backend(backend)
    key = bytes(key)
    arena = _dispatch_arena(backend)
    if arena is not None:
        handle = _arena_submit(
            backend, arena, mode, key,
            list(seal_packets), list(open_packets), tag_length, isolate,
        )
        if handle is not None:
            return handle
    seals = [_norm_seal_packet(p) for p in seal_packets]
    opens = [_norm_open_packet(p) for p in open_packets]
    quarantine = None
    if isolate:
        seals, sealed_aside = _split_poisoned(seals)
        opens, opened_aside = _split_poisoned(opens)

        def quarantine():
            sealed = _quarantine_split(seals, lambda span: _seal_open_whole(
                [(mode, key, span, (), tag_length)]
            )[0][0])
            opened = _quarantine_split(opens, lambda span: _seal_open_whole(
                [(mode, key, (), span, tag_length)]
            )[0][1])
            return (
                _restore_slots(sealed, sealed_aside),
                _restore_slots(opened, opened_aside),
            )
    else:
        _check_poisoned(seals)
        _check_poisoned(opens)
        sealed_aside = opened_aside = {}

    def collect(shards):
        sealed, opened = shards[0][0]
        return (
            _restore_slots(sealed, sealed_aside),
            _restore_slots(opened, opened_aside),
        )

    dispatch = (mode, key, seals, opens, tag_length)
    # A one-call span is never launched to a pool (see
    # ExecutionBackend.submit): it computes at result() time.
    whole = backend.submit([(_seal_open_whole, ([dispatch],))])
    return SealOpenHandle(whole, collect, quarantine, dispatch=dispatch)


def resolve_deferred(handles: Sequence[SealOpenHandle]) -> None:
    """The barrier: compute every deferred handle among *handles* at once.

    The deferred handles (:attr:`SealOpenHandle.deferred`) run through
    one :func:`_seal_open_whole` call — every counter run of every
    dispatch in keystream sweeps of at most :data:`MAX_SWEEP_BLOCKS`
    blocks, every CCM chain as a lane of one CBC-MAC sweep per key
    size, every GCM tag as a lane of one GHASH sweep — and each
    handle's memoized ``result()`` becomes its own pair,
    byte-identical to computing it alone, since no packet's output
    depends on its lane-mates.  If the call raises, every handle stays
    deferred: each meets the error, or none, when its own ``result()``
    computes it alone (and quarantines, when isolating).  Other
    handles are left alone.
    """
    pending = [handle for handle in handles if handle.deferred]
    if not pending:
        return
    try:
        pairs = _seal_open_whole([handle._dispatch for handle in pending])
    except Exception:
        return  # each handle computes alone at result() and raises there
    for handle, pair in zip(pending, pairs):
        handle._result = handle._collect([[pair]])


# -- lane-parallel CBC-MAC -------------------------------------------------


def _lane_order(messages: Sequence[bytes]) -> Tuple[List[int], List[int]]:
    """Lanes sorted by descending block count (ragged retirement order)."""
    counts = [len(m) // BLOCK_BYTES for m in messages]
    order = sorted(range(len(messages)), key=lambda i: (-counts[i], i))
    return order, counts


def _lane_keys(schedules: Sequence[Schedule], counts=None):
    """uint32 round keys of a sweep: ``schedules[i]`` for lane group *i*.

    Group *i* is ``counts[i]`` consecutive lanes (one lane when *counts*
    is None).  ``(rounds + 1, 4, N)`` with one schedule per lane, or
    ``(rounds + 1, 4, 1)``, broadcast over every lane, when they share
    one.  Schedules are told apart by identity: the key-expansion memo
    hands every use of a key the same one.
    """
    index = {}
    for schedule in schedules:
        index.setdefault(id(schedule), (len(index), schedule))
    if len(index) == 1:
        return aes_vector._round_keys_array(schedules[0])
    stacked = _np.concatenate(
        [aes_vector._round_keys_array(schedule) for _, schedule in index.values()],
        axis=2,
    )
    lanes = _np.array([index[id(s)][0] for s in schedules], dtype=_np.intp)
    if counts is not None:
        lanes = _np.repeat(lanes, counts)
    return stacked[:, :, lanes]


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
    round_keys = _lane_keys([schedules[i] for i in order])
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
    round_keys: Union[Schedule, List[Schedule]], specs: Sequence[_CounterSpec]
) -> List[bytes]:
    """Keystream for every counter run in packed encryption sweeps.

    Each spec is ``(initial_counter, inc_bits, nblocks)`` with the low
    *inc_bits* bits incrementing per block (the
    :func:`repro.crypto.fast.bulk.ctr_stream` semantics, inc widths up
    to 64 bits — GCM's inc32 and CCM's 8q-bit fields both qualify).
    *round_keys* is one schedule shared by every spec, or a list of one
    schedule per spec: runs under different keys then share a sweep
    with per-lane round keys.  Runs of one round count share sweeps of
    up to :data:`MAX_SWEEP_BLOCKS` blocks (a longer run is a sweep of
    its own).
    """
    from repro.crypto.fast.bulk import ctr_stream

    schedules = (
        round_keys if isinstance(round_keys, list) else [round_keys] * len(specs)
    )
    if not (HAVE_NUMPY and sum(spec[2] for spec in specs) >= MIN_LANES):
        return [
            ctr_stream(schedule, c0.to_bytes(BLOCK_BYTES, "big"), nblocks, inc_bits)
            for schedule, (c0, inc_bits, nblocks) in zip(schedules, specs)
        ]
    sweeps = {}  # round count -> sweeps (spec index lists), last one open
    for index, (schedule, spec) in enumerate(zip(schedules, specs)):
        group = sweeps.setdefault(len(schedule), [[[], 0]])
        sweep = group[-1]
        if sweep[0] and sweep[1] + spec[2] > MAX_SWEEP_BLOCKS:
            sweep = [[], 0]
            group.append(sweep)
        sweep[0].append(index)
        sweep[1] += spec[2]
    streams: List[bytes] = [b""] * len(specs)
    for group in sweeps.values():
        for indices, _blocks in group:
            for index, stream in zip(indices, _keystream_sweep(
                [schedules[i] for i in indices], [specs[i] for i in indices]
            )):
                streams[index] = stream
    return streams


def _keystream_sweep(
    schedules: Sequence[Schedule], specs: Sequence[_CounterSpec]
) -> List[bytes]:
    """One vector sweep over every counter block of *specs*."""
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
    counts = [spec[2] for spec in specs]
    raw = aes_vector.state_to_bytes(
        aes_vector.encrypt_state_vector(state, _lane_keys(schedules, counts))
    )
    streams = []
    offset = 0
    for nblocks in counts:
        streams.append(raw[BLOCK_BYTES * offset : BLOCK_BYTES * (offset + nblocks)])
        offset += nblocks
    return streams


# -- GCM / GMAC ------------------------------------------------------------


#: One engine group: ``(key, seals, opens, tag_length)``.
_Group = Tuple[bytes, Sequence[Sequence], Sequence[Sequence], int]


def _ghash_input(aad: bytes, ciphertext: bytes) -> bytes:
    """The whole-block GHASH message: padded aad, padded text, lengths."""
    return (
        pad_zeros(aad, BLOCK_BYTES)
        + pad_zeros(ciphertext, BLOCK_BYTES)
        + (8 * len(aad)).to_bytes(8, "big")
        + (8 * len(ciphertext)).to_bytes(8, "big")
    )


def _gcm_seal_open_groups(
    groups: Sequence[_Group],
) -> List[Tuple[List[Tuple[bytes, bytes]], List[Optional[bytes]]]]:
    """Seal and open several keys' GCM lists in shared counter sweeps.

    Each group ``(key, seals, opens, tag_length)`` seals one list and
    opens another under its own key, and gets back the pair ``(sealed,
    opened)``.  The seals' keystreams and every packet's ``E(J_0)`` tag
    mask run as one sweep with per-lane round keys; every tag of every
    group is a lane of one GHASH sweep
    (:func:`repro.crypto.fast.ghash_hpower.ghash_lanes`); then only the
    opens that verified join a second sweep for their plaintext, so a
    forged packet costs one AES block plus its GHASH.  Each packet's
    outputs depend only on its own lanes, so the results are
    byte-identical to per-packet :func:`repro.crypto.fast.bulk
    .gcm_seal` and :func:`repro.crypto.fast.bulk.gcm_open`.  Never
    consults the fault plan (the public callers do).
    """
    from repro.crypto.fast.aes_ttable import encrypt_block_tt
    from repro.crypto.fast.ghash_hpower import ghash_lanes
    from repro.crypto.modes.gcm import VALID_TAG_LENGTHS

    staged = []  # (key, round keys, seals, opens, tag length, open J_0s)
    schedules: List[Schedule] = []
    specs: List[_CounterSpec] = []
    subkeys = {}  # key -> H
    for key, seals, opens, tag_length in groups:
        if tag_length not in VALID_TAG_LENGTHS:
            raise TagError(
                f"GCM tag length must be one of {VALID_TAG_LENGTHS}, got {tag_length}"
            )
        seals = [_norm_seal_packet(p) for p in seals]
        opens = [_norm_open_packet(p) for p in opens]
        for _nonce, _data, tag, _aad in opens:
            if len(tag) not in VALID_TAG_LENGTHS:
                raise TagError(f"GCM tag length {len(tag)} is invalid")
        round_keys = ()
        open_j0s: List[int] = []
        if seals or opens:
            key = bytes(key)
            round_keys = expand_key_cached(key)
            if key not in subkeys:
                subkeys[key] = int.from_bytes(
                    encrypt_block_tt(_ZERO_IV, round_keys), "big"
                )
            h = subkeys[key]
            seal_j0s = [_gcm_j0_int(h, nonce) for nonce, _d, _a in seals]
            open_j0s = [_gcm_j0_int(h, nonce) for nonce, _d, _t, _a in opens]
            specs += [
                (_inc32(j0), 32, -(-len(data) // BLOCK_BYTES))
                for j0, (_n, data, _a) in zip(seal_j0s, seals)
            ]
            specs += [(j0, 32, 1) for j0 in seal_j0s + open_j0s]
            schedules += [round_keys] * (2 * len(seals) + len(opens))
        staged.append((key, round_keys, seals, opens, tag_length, open_j0s))
    streams = iter(_fused_keystream(schedules, specs))
    lane_keys: List[int] = []  # one GHASH lane per packet: H, message
    messages: List[bytes] = []
    masked = []  # (ciphertexts, seal masks, open masks) per group
    for key, _rk, seals, opens, _tl, _oj in staged:
        ciphertexts = [xor_data(data, next(streams)) for _n, data, _a in seals]
        seal_masks = [next(streams) for _ in seals]
        open_masks = [next(streams) for _ in opens]
        if seals or opens:
            lane_keys += [subkeys[key]] * (len(seals) + len(opens))
            messages += [
                _ghash_input(aad, ct) for (_n, _d, aad), ct in zip(seals, ciphertexts)
            ]
            messages += [_ghash_input(aad, ct) for _n, ct, _t, aad in opens]
        masked.append((ciphertexts, seal_masks, open_masks))
    accs = iter(ghash_lanes(lane_keys, messages))
    verdicts = []  # (sealed, verified) per group
    schedules, specs = [], []
    for (_key, round_keys, _seals, opens, tag_length, open_j0s), (
        ciphertexts, seal_masks, open_masks,
    ) in zip(staged, masked):
        sealed = [
            (ct, xor_data(next(accs).to_bytes(BLOCK_BYTES, "big"), mask)[:tag_length])
            for ct, mask in zip(ciphertexts, seal_masks)
        ]
        verified = [
            hmac.compare_digest(
                xor_data(next(accs).to_bytes(BLOCK_BYTES, "big"), mask)[: len(tag)], tag
            )
            for (_n, _c, tag, _a), mask in zip(opens, open_masks)
        ]
        for j0, (_n, ciphertext, _t, _a), ok in zip(open_j0s, opens, verified):
            if ok:
                specs.append((_inc32(j0), 32, -(-len(ciphertext) // BLOCK_BYTES)))
                schedules.append(round_keys)
        verdicts.append((sealed, verified))
    if any(opens for _k, _rk, _s, opens, *_ in staged):
        streams = iter(_fused_keystream(schedules, specs))
    results = []
    for (_k, _rk, _s, opens, _tl, _oj), (sealed, verified) in zip(staged, verdicts):
        opened = [
            xor_data(ciphertext, next(streams)) if ok else None
            for (_n, ciphertext, _t, _a), ok in zip(opens, verified)
        ]
        results.append((sealed, opened))
    return results


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
    _check_poisoned(packets)
    return _gcm_seal_open_groups([(key, packets, (), tag_length)])[0][0]


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
    _check_poisoned(packets)
    return _gcm_seal_open_groups([(key, (), packets, 16)])[0][1]


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


def _ccm_seal_open_groups(
    groups: Sequence[_Group],
) -> List[Tuple[List[Tuple[bytes, bytes]], List[Optional[bytes]]]]:
    """Seal and open several keys' CCM lists, sharing every sweep.

    Each group ``(key, seals, opens, tag_length)`` seals one list and
    opens another under its own key, and gets back the pair
    ``(sealed, opened)``.  Every group's counters ``A_0..A_m`` run as
    the lanes of one keystream sweep with per-lane round keys; the
    opens decrypt, and then the seal and open CBC-MAC chains of *every*
    group run as the lanes of one sweep — one pass of up to ~130
    serial block steps for the whole call, not one per group or
    direction (one per key size when the groups mix them).  Each
    packet's outputs depend only on its own lanes, so the results are
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

    staged = []  # (opens, lanes, n_seals) per group
    schedules: List[Schedule] = []  # one per lane, counters and chains alike
    specs: List[_CounterSpec] = []
    for key, seals, opens, tag_length in groups:
        opens = [_norm_open_packet(p) for p in opens]
        # One (nonce, data, aad, tag_length) row per lane, seals first.
        lanes = [(*_norm_seal_packet(p), tag_length) for p in seals]
        lanes += [(nonce, data, aad, len(tag)) for nonce, data, tag, aad in opens]
        if lanes:
            for nonce, data, _aad, tag_len in lanes:
                _check_params(nonce, tag_len, len(data))
            schedules += [expand_key_cached(bytes(key))] * len(lanes)
            specs += [
                (int.from_bytes(format_counter_block(nonce, 0), "big"),
                 8 * (15 - len(nonce)),
                 -(-len(data) // BLOCK_BYTES) + 1)  # A_0..A_m
                for nonce, data, _aad, _tag_len in lanes
            ]
        staged.append((opens, lanes, len(seals)))
    # run = S_0 || keystream: the ciphertext of a seal, the plaintext
    # of an open.
    runs = iter(_fused_keystream(schedules, specs))
    chains: List[bytes] = []
    outputs = []  # (texts, S_0 masks) per group
    for opens, lanes, n_seals in staged:
        texts, masks = [], []
        for lane, (nonce, data, aad, tag_len) in enumerate(lanes):
            run = next(runs)
            output = xor_data(data, run[BLOCK_BYTES:])
            texts.append(output)
            masks.append(run[:BLOCK_BYTES])
            # Seals MAC their plaintext, opens the one they decrypt to.
            text = data if lane < n_seals else output
            chains.append(
                format_b0(nonce, len(aad), len(text), tag_len)
                + format_associated_data(aad)
                + pad_zeros(text, BLOCK_BYTES)
            )
        outputs.append((texts, masks))
    macs = iter(_cbc_mac_lanes(schedules, chains, _ZERO_IV))
    results = []
    for (opens, lanes, n_seals), (texts, masks) in zip(staged, outputs):
        tags = [
            xor_data(next(macs), mask)[:tag_len]
            for mask, (_n, _d, _a, tag_len) in zip(masks, lanes)
        ]
        sealed = list(zip(texts[:n_seals], tags[:n_seals]))
        opened = [
            text if hmac.compare_digest(expected, tag) else None
            for (_n, _d, tag, _a), text, expected in zip(
                opens, texts[n_seals:], tags[n_seals:]
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

    The one-group case of :func:`_ccm_seal_open_groups`.
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


#: Mode tag -> batch entry point (the dispatch tables of the shard
#: workers and the arena quarantine bisect).
_SEAL_MANY = {"gcm": gcm_seal_many, "ccm": ccm_seal_many}
_OPEN_MANY = {"gcm": gcm_open_many, "ccm": ccm_open_many}

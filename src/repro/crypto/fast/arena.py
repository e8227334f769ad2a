"""Shared-memory packet arena for the process backend's zero-copy path.

Pickling every packet's payload bytes through a ``ProcessPoolExecutor``
costs two copies per packet (args in, results out).  The arena removes
the payload from the wire entirely: one batch's scatter-gather inputs
and result regions live in a ``multiprocessing.shared_memory`` slab,
the only thing pickled per shard is a tuple of **span descriptors**
(slab name + offsets/lengths), and workers read and write
``memoryview``s over the mapped slab in place.

Allocation model
----------------
A :class:`PacketArena` owns a small set of slabs.  :meth:`reserve`
hands out a :class:`Generation` — one batch's contiguous bump-pointer
region inside a single slab (a generation never spans slabs, so one
descriptor namespace covers the whole dispatch).  Releasing the last
live generation of the current slab rewinds its bump pointer to zero
(*generation recycling*: steady-state traffic reuses the same pages
forever); a reservation that cannot fit grows the arena by retiring
the current slab (it is unlinked once its own generations release) and
cutting a larger one.  Ragged and zero-length payloads are just
offsets; there is no per-packet framing.

Lifecycle hygiene
-----------------
Slabs are unlinked when the owning :class:`PacketArena` is closed
(``ProcessPoolBackend.close`` does this) and, as a backstop, by an
``atexit`` hook over every live arena — bench loops and aborted runs
never leak ``/dev/shm`` segments.  An ``os.register_at_fork`` hook
disowns arenas in forked children so a child's ``atexit`` can never
unlink a parent's live slab, and Python 3.11's unconditional
``resource_tracker`` registration is suppressed on worker-side
attaches (:func:`attach_view`) so a worker's tracker traffic cannot
unlink — or unregister — a segment the parent still owns.  Crashed
workers hold no unlink rights at all — reclamation is always the
owner's.
"""

from __future__ import annotations

import atexit
import os
import threading
import weakref
from typing import Dict, List, Sequence, Tuple, Union

#: Initial slab size.  Two orders of magnitude above a width-32 batch
#: of 2 KB packets (inputs + aad + result regions), so steady radio
#: traffic recycles one slab; bigger reservations grow the arena.
DEFAULT_SLAB_BYTES = 4 << 20

#: Every slab name starts with this (plus the owning pid), so tests
#: and post-mortems can count live ``/dev/shm`` segments per process.
NAME_PREFIX = "repro-arena"

BufferLike = Union[bytes, bytearray, memoryview]
Buffers = Union[BufferLike, Sequence[BufferLike]]


def _new_segment(name: str, size: int):
    """Create one shared-memory segment (the monkeypatch seam)."""
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(name=name, create=True, size=size)


class _Slab:
    """One shared-memory segment plus its bump-pointer accounting."""

    __slots__ = ("shm", "name", "capacity", "used", "live")

    def __init__(self, shm) -> None:
        self.shm = shm
        self.name = shm.name
        self.capacity = len(shm.buf)
        #: Bump pointer: next free offset.
        self.used = 0
        #: Generations carved from this slab and not yet released.
        self.live = 0


class Generation:
    """One batch's contiguous reservation inside a single slab.

    A bump-pointer sub-allocator: :meth:`alloc` and :meth:`write` hand
    out offsets strictly inside ``[base, limit)``, so concurrent
    generations (pipelined dispatches in flight together) can never
    alias each other's regions.  Released exactly once, by whoever
    collected the dispatch (:func:`PacketArena.release` is idempotent).
    """

    __slots__ = ("_arena", "_slab", "base", "limit", "_cursor", "released")

    def __init__(self, arena: "PacketArena", slab: _Slab, base: int,
                 limit: int) -> None:
        self._arena = arena
        self._slab = slab
        self.base = base
        self.limit = limit
        self._cursor = base
        self.released = False

    @property
    def slab_name(self) -> str:
        """The shared-memory segment name descriptors refer to."""
        return self._slab.name

    @property
    def view(self) -> memoryview:
        """The owner's mapping of the whole slab (offset namespace)."""
        return self._slab.shm.buf

    @property
    def nbytes(self) -> int:
        """Reserved size of this generation."""
        return self.limit - self.base

    def alloc(self, nbytes: int) -> int:
        """Carve *nbytes* out of the reservation; the region's offset."""
        if nbytes < 0:
            raise ValueError(f"cannot alloc {nbytes} bytes")
        offset = self._cursor
        if offset + nbytes > self.limit:
            raise RuntimeError(
                f"arena generation overflow: alloc({nbytes}) at offset "
                f"{offset} exceeds the {self.nbytes}-byte reservation "
                "(the staging size computation is wrong)"
            )
        self._cursor = offset + nbytes
        return offset

    def write(self, data: Buffers) -> Tuple[int, int]:
        """Copy *data* (scatter-gather allowed) in; ``(offset, length)``.

        Segments of a scatter list land contiguously, so the region is
        the gathered payload without an intermediate ``bytes`` join.
        """
        buf = self._slab.shm.buf
        if isinstance(data, (bytes, bytearray, memoryview)):
            segments: Sequence[BufferLike] = (data,)
        else:
            segments = data
        length = sum(len(segment) for segment in segments)
        offset = self.alloc(length)
        cursor = offset
        for segment in segments:
            end = cursor + len(segment)
            buf[cursor:end] = bytes(segment) if not isinstance(
                segment, (bytes, bytearray, memoryview)
            ) else segment
            cursor = end
        return offset, length

    def release(self) -> None:
        """Hand the region back (idempotent; recycling is the arena's)."""
        self._arena.release(self)


#: Owner-side registry: slab name -> SharedMemory, so executing arena
#: calls in the owning process (a backend that went inline mid-span,
#: the serial guard) resolves views locally instead of re-attaching.
_OWNED: Dict[str, object] = {}

#: Worker-side attach cache: slab name -> SharedMemory (one mapping
#: per segment per worker process, persistent across dispatches).
_ATTACHED: Dict[str, object] = {}

#: Every live arena in this process (atexit / fork bookkeeping).
_ARENAS: "weakref.WeakSet[PacketArena]" = weakref.WeakSet()


class PacketArena:
    """A slab allocator over ``multiprocessing.shared_memory``.

    Thread-safe; one instance serves every dispatch of one
    ``ProcessPoolBackend`` (batched and pipelined dataplanes alike).
    Construction cuts the first slab eagerly so hosts without usable
    shared memory fail *here* — the backend turns that into a recorded
    structural fallback, never a dispatch error.
    """

    _counter = 0
    _counter_lock = threading.Lock()

    def __init__(self, slab_bytes: int = DEFAULT_SLAB_BYTES) -> None:
        if slab_bytes < 1:
            raise ValueError(f"slab_bytes must be >= 1, got {slab_bytes}")
        self._slab_bytes = slab_bytes
        self._lock = threading.Lock()
        self._owner_pid = os.getpid()
        self.closed = False
        #: Retired slabs still holding live generations.
        self._retired: List[_Slab] = []
        # -- observability (tests, bench metadata) ------------------------
        self.slabs_created = 0
        self.grows = 0
        self.recycles = 0
        self._current = self._cut_slab(slab_bytes)
        _ARENAS.add(self)

    # -- slab management ---------------------------------------------------

    def _cut_slab(self, capacity: int) -> _Slab:
        with PacketArena._counter_lock:
            PacketArena._counter += 1
            serial = PacketArena._counter
        name = f"{NAME_PREFIX}-{os.getpid()}-{serial}"
        slab = _Slab(_new_segment(name, capacity))
        _OWNED[slab.name] = slab.shm
        self.slabs_created += 1
        return slab

    def _unlink_slab(self, slab: _Slab) -> None:
        _OWNED.pop(slab.name, None)
        try:
            slab.shm.close()
        except BufferError:  # pragma: no cover - exported views alive
            pass
        if self._owner_pid == os.getpid():
            try:
                slab.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    # -- reservation -------------------------------------------------------

    def reserve(self, nbytes: int) -> Generation:
        """A contiguous *nbytes* region in one slab, as a generation."""
        if nbytes < 0:
            raise ValueError(f"cannot reserve {nbytes} bytes")
        with self._lock:
            if self.closed:
                raise RuntimeError("arena is closed")
            slab = self._current
            if slab.used + nbytes > slab.capacity:
                # An idle current slab always has used == 0 (release
                # rewinds it), so landing here means the slab is either
                # busy with live generations or simply too small: cut a
                # bigger one.  A busy slab retires and is unlinked when
                # its own generations release.
                capacity = slab.capacity * 2 if slab.live else slab.capacity
                capacity = max(capacity, self._slab_bytes)
                while capacity < nbytes:
                    capacity *= 2
                if slab.live:
                    self._retired.append(slab)
                else:
                    self._unlink_slab(slab)
                slab = self._current = self._cut_slab(capacity)
                self.grows += 1
            generation = Generation(self, slab, slab.used, slab.used + nbytes)
            slab.used += nbytes
            slab.live += 1
            return generation

    def release(self, generation: Generation) -> None:
        """Return a generation; recycle or unlink its slab when idle."""
        with self._lock:
            if generation.released:
                return
            generation.released = True
            if self.closed:
                return  # close() already reclaimed every slab
            slab = generation._slab
            slab.live -= 1
            if slab.live > 0:
                return
            if slab is self._current:
                if not self.closed:
                    slab.used = 0  # recycle in place
                    self.recycles += 1
                    return
                self._unlink_slab(slab)
            elif slab in self._retired:
                self._retired.remove(slab)
                self._unlink_slab(slab)

    # -- introspection -----------------------------------------------------

    @property
    def live_generations(self) -> int:
        with self._lock:
            slabs = [self._current, *self._retired]
            return sum(slab.live for slab in slabs if slab is not None)

    def segment_names(self) -> List[str]:
        """Names of every segment this arena currently keeps mapped."""
        with self._lock:
            slabs = [self._current, *self._retired]
            return [slab.name for slab in slabs if slab is not None]

    # -- teardown ----------------------------------------------------------

    def _disown(self) -> None:
        """Forked child: drop unlink rights over the parent's slabs."""
        self._owner_pid = -1

    def close(self) -> None:
        """Unlink every slab (idempotent).  In-flight views go stale —
        callers release generations before closing the backend."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            for slab in [self._current, *self._retired]:
                if slab is not None and slab.live == 0:
                    self._unlink_slab(slab)
            # Busy slabs (a generation abandoned mid-flight) are still
            # reclaimed: the owner's close beats a leaked /dev/shm
            # segment, which is the hygiene contract of this module.
            for slab in [self._current, *self._retired]:
                if slab is not None and slab.live > 0:
                    slab.live = 0
                    self._unlink_slab(slab)
            self._current = None  # type: ignore[assignment]
            self._retired = []


# -- attach (worker side) ------------------------------------------------


def attach_view(name: str) -> memoryview:
    """The mapped buffer of slab *name*, wherever this runs.

    In the owning process this resolves through the live arena's own
    mapping; in a pool worker it attaches once per segment and caches
    the mapping for the worker's lifetime.  Python 3.11 registers every
    POSIX attach with the ``resource_tracker`` unconditionally, which
    would let a worker's tracker unlink a segment the parent still
    owns at worker exit — the registration is suppressed for the
    attach (the owner unlinks explicitly; see the module docstring).
    """
    owned = _OWNED.get(name)
    if owned is not None:
        return owned.buf
    shm = _ATTACHED.get(name)
    if shm is None:
        from multiprocessing import resource_tracker, shared_memory

        # Suppress the registration rather than undo it: workers share
        # the owner's tracker process, so a worker-side ``unregister``
        # would clobber the owner's own registration and turn the
        # owner's eventual unlink into tracker noise.
        registered = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            shm = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = registered
        _ATTACHED[name] = shm
    return shm.buf


def detach_all() -> None:
    """Drop this process's worker-side attach cache (test isolation)."""
    for shm in _ATTACHED.values():
        try:
            shm.close()
        except BufferError:  # pragma: no cover - caller kept a view
            pass
    _ATTACHED.clear()


# -- process-level hygiene -----------------------------------------------


@atexit.register
def _close_arenas() -> None:
    """Backstop: unlink every live arena before interpreter teardown."""
    for arena in list(_ARENAS):
        arena.close()


def _after_fork_in_child() -> None:
    # The child inherits the parent's mappings but must never unlink
    # them — only the owning process reclaims slabs.
    for arena in list(_ARENAS):
        arena._disown()
    _ATTACHED.clear()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX CI
    os.register_at_fork(after_in_child=_after_fork_in_child)


__all__ = [
    "DEFAULT_SLAB_BYTES",
    "NAME_PREFIX",
    "PacketArena",
    "Generation",
    "attach_view",
    "detach_all",
]

"""The 512 x 32-bit FIFOs of each Cryptographic Core.

Each core has one input and one output FIFO (paper section IV.A); a
full FIFO holds 2048 bytes — "sufficient for most communication
protocols" and exactly one maximum-size packet (128 x 128-bit blocks).

The FIFO is word-granular (32-bit entries) like the hardware, and the
device model only ever moves words through it: the crossbar turns a
packet's bytes into words, and the drained words back into bytes, once
per packet, and the Cryptographic Unit's ``LOAD``/``STORE`` claim the
four words of a 128-bit bank register.  ``push_block``/``pop_block``
are byte conveniences for tests and tools.  Overflow/underflow raise
instead of silently corrupting, and the security-relevant ``purge``
models the hardware re-initialisation on authentication failure
(section IV.C).

Arrival schedule
----------------
Words cross the crossbar at a fixed rate, so a FIFO does not need a
kernel event per word.  It holds its future as a schedule and replays
it on access (catch-up on access, see :mod:`repro.sim.kernel`):

- a *producer run* (:meth:`WordFifo.stream_in`: words, start cycle,
  cycles per word) tries one push per word period; at a full FIFO it
  stalls, and the pop that frees space restarts it on that pop's cycle;
- a *consumer run* (:meth:`WordFifo.drain_out`: a word count, start
  cycle, cycles per word) tries one pop per word period; at an empty
  FIFO it waits, and the next push restarts it on that push's cycle;
- *claims* are the block pops and pushes the Cryptographic Unit has
  promised for cycles it already knows (a ``LOAD`` or ``STORE`` whose
  completion is computed at issue; :meth:`claim_pop`/:meth:`claim_push`).

Runs are how words cross the crossbar, for the device and for the
single-core harness alike.  A run moves a known number of words, and
once its last word has moved the FIFO takes the next run, even before
the finished run's ``done`` fires.

These are the rules of a process stepping word by word, keyed like the
kernel entries it would have scheduled, so every count a reader sees
(``len``, ``total_pushed``, ``high_watermark``, ...) is the stepped
value at the reader's position.  One order is not tracked: a reader
whose own kernel entry has the same cycle and stamp as a run's attempt
(a process stepping with exactly the run's period) sees the attempt
first, where the stepped order would follow the two processes' starts.
The one kernel event a run needs is its end — the ``done`` event of
the transfer — and it is scheduled as soon as the known schedule fixes
that cycle: at once for a run that fits, or when the claim that
unblocks its last word arrives.

Immediate operations (``push_word``, ``pop_word``, ``purge``, ...)
apply at the caller's position.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Callable, Deque, List, Optional, Tuple

from repro.errors import FifoError
from repro.sim.kernel import Event, Simulator
from repro.utils.bits import bytes_to_words32, words32_to_bytes

#: Depth in 32-bit words (512 x 32 bits == 2 KB).
DEFAULT_DEPTH_WORDS = 512

WORDS_PER_BLOCK = 4

#: A key later than every position (projections run to exhaustion).
_NEVER = (1 << 62, 1 << 62, 1 << 62)


class Transfer:
    """A producer or consumer run on one FIFO (see the module docs).

    ``done`` triggers with the run's end cycle, one word period after
    its last word moved, as a stepping process would return.
    """

    __slots__ = (
        "values", "sink", "moved", "total", "cycle", "stamp", "seq", "prev",
        "period", "waiting", "end", "done", "entry",
    )

    def __init__(self, values, sink, total, key, period, done):
        self.values: Optional[List[int]] = values
        self.sink: Optional[list] = sink
        #: Words moved so far (up to the FIFO's replayed position).
        self.moved = 0
        #: Words to move.
        self.total: int = total
        #: Key of the next attempt.
        self.cycle, self.stamp, self.seq = key
        #: Key of the attempt that scheduled it (None: a start or a
        #: restart, ordered by ``seq`` alone).
        self.prev = None
        self.period = period
        #: Stalled at a full (producer) or empty (consumer) FIFO.
        self.waiting = False
        #: ``(cycle, stamp)`` of the end once the last word has moved.
        self.end: Optional[Tuple[int, int]] = None
        self.done: Event = done
        self.entry = None

    def clone(self) -> "Transfer":
        other = Transfer.__new__(Transfer)
        other.values = other.sink = None
        other.moved, other.total = self.moved, self.total
        other.cycle, other.stamp, other.seq = self.cycle, self.stamp, self.seq
        other.prev = self.prev
        other.period, other.waiting, other.end = self.period, self.waiting, self.end
        other.done = other.entry = None
        return other

    @property
    def active(self) -> bool:
        return not self.waiting and self.end is None


class Claim:
    """A block push (``size`` > 0) or pop promised for one kernel key."""

    __slots__ = ("cycle", "stamp", "seq", "size", "words", "created")

    def __init__(self, cycle: int, stamp: int, seq: int, size: int, words=None, created=None):
        self.cycle, self.stamp, self.seq = cycle, stamp, seq
        self.size = size
        #: Position the claim was made at: a run attempt keyed like the
        #: claim was scheduled by the step before it, and runs first iff
        #: that step ran before the claim was made.
        self.created = created
        #: Pushed words, or (for a pop) the popped words once replayed.
        self.words = words


def _claim_first(claim: Claim, run: Transfer) -> bool:
    """Whether *claim* comes before *run*'s next attempt.

    Keys decide, except between an attempt and a claim sharing cycle
    and stamp: the attempt was scheduled by the run's previous step, so
    it comes first iff that step ran before the claim was made.
    """
    if claim.cycle != run.cycle:
        return claim.cycle < run.cycle
    if claim.stamp != run.stamp:
        return claim.stamp < run.stamp
    if run.prev is None or claim.created is None:
        return claim.seq < run.seq
    return not run.prev < claim.created


class _Flow:
    """FIFO occupancy plus its schedule, replayed in key order.

    The live flow moves word values; a projection (:meth:`sketch`)
    replays counts only, to find the cycle a future condition is met.
    """

    __slots__ = (
        "depth", "count", "pushed", "popped", "high", "words",
        "src", "dst", "claims", "next_claim", "pending_pops", "pending_pushes",
        "last",
    )

    def __init__(self, depth: int):
        self.depth = depth
        self.count = self.pushed = self.popped = self.high = 0
        #: Words in claims not replayed yet.
        self.pending_pops = self.pending_pushes = 0
        self.words: Optional[Deque[int]] = deque()
        self.src: Optional[Transfer] = None
        self.dst: Optional[Transfer] = None
        self.claims: List[Claim] = []
        self.next_claim = 0
        #: Latest cycle of any attempt replayed (projections only).
        self.last = 0

    def sketch(self) -> "_Flow":
        other = _Flow.__new__(_Flow)
        other.depth, other.count = self.depth, self.count
        other.pushed, other.popped, other.high = self.pushed, self.popped, self.high
        other.words = None
        other.src = self.src.clone() if self.src is not None else None
        other.dst = self.dst.clone() if self.dst is not None else None
        other.claims, other.next_claim, other.last = self.claims, self.next_claim, 0
        other.pending_pops, other.pending_pushes = self.pending_pops, self.pending_pushes
        return other

    def replay(self, bound, goal=None, target: int = 0):
        """Apply every scheduled step keyed below *bound*.

        With a *goal* the replay stops once it is met and returns its
        cycle: ``"pushed"`` (``pushed >= target``), ``"room"`` (``count
        <= depth - target``), or ``"end"``, the end ``(cycle, stamp)`` of
        the producer (*target* 1) or consumer (*target* 2) run.  Returns
        None when the schedule runs out first.
        """
        claims = self.claims
        while True:
            # The earliest scheduled step, and the next one after it.
            src, dst = self.src, self.dst
            run = other = None
            if src is not None and src.active:
                run = src
            if dst is not None and dst.active:
                if run is None:
                    run = dst
                elif (dst.cycle, dst.stamp, dst.seq) < (run.cycle, run.stamp, run.seq):
                    run, other = dst, run
                else:
                    other = dst
            claim = claims[self.next_claim] if self.next_claim < len(claims) else None
            if claim is not None and (run is None or _claim_first(claim, run)):
                key, kind = (claim.cycle, claim.stamp, claim.seq), 3
                limit = (run.cycle, run.stamp, run.seq) if run is not None else None
                limit_claim = None
            elif run is not None:
                key, kind = (run.cycle, run.stamp, run.seq), 1 if run is src else 2
                limit, limit_claim = None, None
                if other is not None:
                    limit = (other.cycle, other.stamp, other.seq)
                if claim is not None and (limit is None or _claim_first(claim, other)):
                    limit, limit_claim = (claim.cycle, claim.stamp, claim.seq), claim
            else:
                return None
            if not key < bound:
                return None
            if limit is None or not limit < bound:
                limit, limit_claim = bound, None
            hit = None
            if kind == 3:
                self.next_claim += 1
                if claim.cycle > self.last:
                    self.last = claim.cycle
                if claim.size > 0:
                    self.pending_pushes -= claim.size
                else:
                    self.pending_pops += claim.size
                self._apply_claim(claim)
                if goal == "pushed" and self.pushed >= target:
                    hit = claim.cycle
                elif goal == "room" and self.count <= self.depth - target:
                    hit = claim.cycle
            elif kind == 1:
                hit = self._push_run(src, limit, limit_claim, goal, target)
            else:
                hit = self._pop_run(dst, limit, limit_claim, goal, target)
            if goal == "end":
                run = self.src if target == 1 else self.dst
                hit = run.end
            if hit is not None:
                return hit

    def _apply_claim(self, claim: Claim) -> None:
        size = claim.size
        if size > 0:
            if self.count + size > self.depth:
                raise FifoError("claimed push overflows the FIFO")
            if self.words is not None:
                self.words.extend(claim.words)
            self.count += size
            self.pushed += size
            if self.count > self.high:
                self.high = self.count
            _restart(self.dst, claim.cycle, claim.seq)
        else:
            if self.count < -size:
                raise FifoError("claimed pop underflows the FIFO")
            if self.words is not None:
                popleft = self.words.popleft
                popped = [popleft() for _ in range(-size)]
                if claim.words is None:
                    claim.words = popped
            self.count += size
            self.popped -= size
            _restart(self.src, claim.cycle, claim.seq)

    @staticmethod
    def _attempts_before(run: Transfer, limit, claim: Optional[Claim]) -> int:
        """How many of *run*'s next attempts come before *limit*.

        The first attempt is at the run's key; attempt j >= 1 is at
        ``(cycle + j*period, cycle + (j-1)*period)``, a ``Delay`` taken
        by the previous one.  The first is known to come first.  If
        *limit* is *claim*'s key, an attempt keyed like it is ordered by
        :func:`_claim_first`.
        """
        if limit is _NEVER:
            return 1 << 40
        cycle, period = run.cycle, run.period
        lcycle, lstamp, lseq = limit
        if lcycle <= cycle:
            return 1
        j = (lcycle - cycle - 1) // period
        if cycle + (j + 1) * period == lcycle:
            stamp = lcycle - period
            if stamp < lstamp:
                j += 1
            elif stamp == lstamp:
                if claim is None or claim.created is None:
                    if lseq > -1:
                        j += 1
                else:
                    prev = (
                        (run.cycle, run.stamp, run.seq)
                        if j == 0
                        else (cycle + j * period, cycle + (j - 1) * period, -1)
                    )
                    if prev < claim.created:
                        j += 1
        return j + 1

    def _advance(self, run: Transfer, n: int, attempts: int, blocked: bool) -> int:
        """Move *run* past *n* successful attempts; returns the cycle of
        the first.  If an attempt before the limit follows them and finds
        the FIFO *blocked* (full or empty), the run waits."""
        first, period = run.cycle, run.period
        last = first + (n - 1) * period
        run.moved += n
        if run.moved == run.total:
            run.end = (last + period, last)
        else:
            run.prev = (first, run.stamp, run.seq) if n == 1 else (last, last - period, -1)
            run.cycle, run.stamp, run.seq = last + period, last, -1
            if n < attempts and blocked:
                run.waiting = True
                last = run.cycle
        if last > self.last:
            self.last = last
        return first

    def _push_run(self, run: Transfer, limit, claim, goal, target):
        room = self.depth - self.count
        if room == 0:
            run.waiting = True
            self.last = max(self.last, run.cycle)
            return None
        attempts = self._attempts_before(run, limit, claim)
        dst = self.dst
        # A waiting consumer restarts on the first push's cycle, before
        # the producer's next attempt.
        cap = 1 if dst is not None and dst.waiting else room
        n = min(attempts, cap, run.total - run.moved)
        if self.words is not None:
            self.words.extend(run.values[run.moved : run.moved + n])
        hit = None
        if goal == "pushed" and self.pushed < target <= self.pushed + n:
            hit = run.cycle + (target - self.pushed - 1) * run.period
        self.count += n
        self.pushed += n
        if self.count > self.high:
            self.high = self.count
        first = self._advance(run, n, attempts, self.count == self.depth)
        _restart(dst, first, -1)
        return hit

    def _pop_run(self, run: Transfer, limit, claim, goal, target):
        if self.count == 0:
            run.waiting = True
            self.last = max(self.last, run.cycle)
            return None
        attempts = self._attempts_before(run, limit, claim)
        src = self.src
        # As for _push_run: a stalled producer restarts on the first pop.
        cap = 1 if src is not None and src.waiting else self.count
        n = min(attempts, cap, run.total - run.moved)
        if self.words is not None:
            popleft = self.words.popleft
            run.sink.extend([popleft() for _ in range(n)])
        hit = None
        free = self.depth - self.count
        if goal == "room" and free < target <= free + n:
            hit = run.cycle + (target - free - 1) * run.period
        self.count -= n
        self.popped += n
        first = self._advance(run, n, attempts, self.count == 0)
        _restart(src, first, -1)
        return hit


def _restart(run: Optional[Transfer], cycle: int, seq: int) -> None:
    """Restart *run* if it waits: woken on *cycle* by a push or pop keyed
    ``(cycle, ..., seq)``, as the stepped process's wake-up would be."""
    if run is not None and run.waiting:
        run.waiting = False
        run.cycle = run.stamp = cycle
        run.seq, run.prev = seq, None


class WordFifo:
    """A bounded FIFO of 32-bit words with an arrival schedule.

    Immediate operations are expected to police capacity via
    :meth:`can_push` / :meth:`can_pop` (as the hardware handshake does);
    violating it raises :class:`FifoError`.
    """

    def __init__(
        self,
        sim: Simulator,
        depth_words: int = DEFAULT_DEPTH_WORDS,
        name: str = "fifo",
    ):
        if depth_words <= 0:
            raise FifoError(f"depth must be positive, got {depth_words}")
        self.sim = sim
        self.name = name
        self.depth_words = depth_words
        self._flow = _Flow(depth_words)
        #: Called (once) when the schedule gains words or room.
        self._watchers: List[Callable[[], None]] = []
        self.purge_count = 0
        sim.add_timeline(self)

    # -- catch-up ------------------------------------------------------------

    def sync(self) -> None:
        """Replay the schedule up to the running kernel entry."""
        flow = self._flow
        flow.replay(self.sim.position())
        if flow.next_claim == len(flow.claims):
            flow.claims.clear()
            flow.next_claim = 0
        elif flow.next_claim > 64:
            del flow.claims[: flow.next_claim]
            flow.next_claim = 0

    def horizon(self) -> int:
        """Cycle of the last scheduled attempt (see ``Simulator.add_timeline``)."""
        sketch = self._flow.sketch()
        sketch.replay(_NEVER)
        return sketch.last

    # -- capacity ----------------------------------------------------------

    def __len__(self) -> int:
        self.sync()
        return self._flow.count

    @property
    def total_pushed(self) -> int:
        """Words ever pushed."""
        self.sync()
        return self._flow.pushed

    @property
    def total_popped(self) -> int:
        """Words ever popped (purged words are not popped)."""
        self.sync()
        return self._flow.popped

    @property
    def high_watermark(self) -> int:
        """Most words ever resident at once."""
        self.sync()
        return self._flow.high

    @property
    def free_words(self) -> int:
        """Remaining capacity in words."""
        return self.depth_words - len(self)

    def can_push(self, nwords: int = 1) -> bool:
        """Whether *nwords* more words fit."""
        return self.free_words >= nwords

    def can_pop(self, nwords: int = 1) -> bool:
        """Whether *nwords* words are available."""
        return len(self) >= nwords

    @property
    def blocks_available(self) -> int:
        """How many whole 128-bit blocks can currently be popped."""
        return len(self) // WORDS_PER_BLOCK

    # -- immediate word operations ------------------------------------------

    def push_word(self, word: int) -> None:
        """Append one 32-bit word now; raises on overflow."""
        if not 0 <= word <= 0xFFFFFFFF:
            raise FifoError(f"{self.name}: word {word:#x} exceeds 32 bits")
        self._push_now([word])

    def pop_word(self) -> int:
        """Remove and return the oldest word now; raises on underflow."""
        return self._pop_now(1)[0]

    def push_block(self, block: bytes) -> None:
        """Push a 16-byte block as four big-endian words."""
        if len(block) != 16:
            raise FifoError(f"{self.name}: block must be 16 bytes, got {len(block)}")
        if not self.can_push(WORDS_PER_BLOCK):
            raise FifoError(f"{self.name}: overflow pushing block")
        self._push_now(bytes_to_words32(block))

    def pop_block(self) -> bytes:
        """Pop four words and return them as a 16-byte block."""
        if not self.can_pop(WORDS_PER_BLOCK):
            raise FifoError(f"{self.name}: underflow popping block")
        return words32_to_bytes(self._pop_now(WORDS_PER_BLOCK))

    def _push_now(self, words) -> None:
        self.sync()
        flow = self._flow
        if flow.count + len(words) > self.depth_words:
            raise FifoError(f"{self.name}: overflow (depth {self.depth_words})")
        now, stamp, seq = self.sim.position()
        for word in words:
            flow._apply_claim(Claim(now, stamp, seq, 1, (word,)))
        self._changed(replan=True)

    def _pop_now(self, nwords: int) -> List[int]:
        self.sync()
        flow = self._flow
        if flow.count < nwords:
            raise FifoError(f"{self.name}: underflow")
        now, stamp, seq = self.sim.position()
        out = []
        for _ in range(nwords):
            claim = Claim(now, stamp, seq, -1)
            flow._apply_claim(claim)
            out.extend(claim.words)
        self._changed(replan=True)
        return out

    # -- runs ------------------------------------------------------------------

    def stream_in(self, words: List[int], cycles_per_word: int = 1) -> Transfer:
        """Start a producer run pushing *words*, one per *cycles_per_word*.

        The first attempt is ordered as a process started now would be;
        ``done`` triggers one period after the last push.
        """
        self.sync()
        flow = self._flow
        if flow.src is not None and flow.src.end is None:
            raise FifoError(f"{self.name}: a producer run is already attached")
        run = self._new_run(list(words), None, len(words), cycles_per_word)
        flow.src = run
        self._changed(replan=False)
        return run

    def drain_out(self, sink: list, nwords: int, cycles_per_word: int = 1) -> Transfer:
        """Start a consumer run popping *nwords* words into *sink*, one
        per *cycles_per_word*; ``done`` triggers one period after the
        last pop.  Ordered as :meth:`stream_in`."""
        self.sync()
        flow = self._flow
        if flow.dst is not None and flow.dst.end is None:
            raise FifoError(f"{self.name}: a consumer run is already attached")
        run = self._new_run(None, sink, nwords, cycles_per_word)
        flow.dst = run
        self._changed(replan=False)
        return run

    def _new_run(self, values, sink, total, period) -> Transfer:
        if period < 1:
            raise FifoError(f"{self.name}: cycles per word must be >= 1")
        sim = self.sim
        # Keyed as a process started now: after the running entry.
        run = Transfer(
            values, sink, total, (sim.now, sim.now, sim._seq), period,
            sim.event(f"{self.name}.transfer"),
        )
        if not total:
            run.end = (sim.now, sim.now)
        return run

    def _plan(self, run: Transfer) -> None:
        """Schedule *run*'s ``done`` once the known schedule fixes its end."""
        if run.entry is not None:
            return
        end = run.end
        if end is None:
            flow = self._flow
            left = run.total - run.moved
            if run is flow.src:
                # Without a consumer only claimed pops make room.
                if flow.dst is None and left > flow.depth - flow.count + flow.pending_pops:
                    return
                side = 1
            else:
                if flow.src is None and left > flow.count + flow.pending_pushes:
                    return
                side = 2
            end = flow.sketch().replay(_NEVER, "end", side)
        if end is not None:
            run.entry = self.sim.call_stamped(end[0], end[1], self._finish_run, run)

    def _finish_run(self, run: Transfer) -> None:
        run.entry = None
        self.sync()
        flow = self._flow
        # A run whose last word has moved may already have made way for
        # the next one.
        if flow.src is run:
            flow.src = None
        elif flow.dst is run:
            flow.dst = None
        run.done.trigger(self.sim.now)

    def _changed(self, replan: bool) -> None:
        """The schedule gained words or room: re-plan runs, wake watchers.

        Claims only add steps after every known one and cannot move a
        planned end; immediate operations and purges can (*replan*).
        """
        flow = self._flow
        for run in (flow.src, flow.dst):
            if run is None:
                continue
            if replan and run.entry is not None:
                self.sim.cancel(run.entry)
                run.entry = None
            self._plan(run)
        if self._watchers:
            watchers, self._watchers = self._watchers, []
            for callback in watchers:
                callback()

    # -- claims (the Cryptographic Unit's promised block moves) ---------------

    def pop_ready(self, nwords: int = WORDS_PER_BLOCK) -> Optional[int]:
        """Cycle by which *nwords* unclaimed words will have arrived.

        The caller's cycle if they are already resident; None if the
        known schedule never delivers them.
        """
        flow = self._flow
        # Without a consumer run the replayed count only grows: if it
        # already covers the claimed pops, no catch-up is needed.
        if flow.dst is None and flow.count - flow.pending_pops >= nwords:
            return self.sim.now
        self.sync()
        short = nwords - (flow.count - flow.pending_pops)
        if short <= 0:
            return self.sim.now
        return flow.sketch().replay(_NEVER, "pushed", flow.pushed + short)

    def claim_pop(self, cycle: int, stamp: int, seq: int, nwords: int = WORDS_PER_BLOCK) -> Claim:
        """Promise a pop of *nwords* at key ``(cycle, stamp, seq)``.

        The popped words are in the claim's ``words`` once the FIFO has
        replayed past that key (:meth:`claimed_words`).
        """
        flow = self._flow
        claim = Claim(cycle, stamp, seq, -nwords, created=self.sim.position())
        if flow.dst is None and flow.count - flow.pending_pops >= nwords:
            # The words are resident already: read them now.
            skip = flow.pending_pops
            claim.words = list(islice(flow.words, skip, skip + nwords))
        flow.claims.append(claim)
        flow.pending_pops += nwords
        self._changed(replan=False)
        return claim

    def claimed_words(self, claim: Claim) -> List[int]:
        """The words a past :meth:`claim_pop` removed, oldest first."""
        if claim.words is None:
            self.sync()
            if claim.words is None:
                raise FifoError(f"{self.name}: claimed pop not reached yet")
        return claim.words

    def push_ready(self, nwords: int = WORDS_PER_BLOCK) -> Optional[int]:
        """Cycle by which *nwords* of room will be free (None: never known)."""
        flow = self._flow
        # Without a producer run the replayed count plus every claimed
        # push bounds the count from above.
        if flow.src is None and flow.count + flow.pending_pushes <= self.depth_words - nwords:
            return self.sim.now
        self.sync()
        if flow.count <= self.depth_words - nwords:
            return self.sim.now
        return flow.sketch().replay(_NEVER, "room", nwords)

    def claim_push(self, cycle: int, stamp: int, seq: int, words: Tuple[int, ...]) -> None:
        """Promise a push of *words* at key ``(cycle, stamp, seq)``."""
        flow = self._flow
        flow.claims.append(
            Claim(cycle, stamp, seq, len(words), words, created=self.sim.position())
        )
        flow.pending_pushes += len(words)
        self._changed(replan=False)

    def when_changed(self, callback: Callable[[], None]) -> None:
        """Run *callback* once, when the schedule next gains words or room."""
        self._watchers.append(callback)

    # -- security ---------------------------------------------------------

    def purge(self) -> int:
        """Drop all contents (hardware re-init on authentication failure).

        Returns the number of words discarded.  A stalled producer run
        restarts on this cycle; words claimed by a pending pop are gone.
        """
        self.sync()
        flow = self._flow
        dropped = flow.count
        flow.words.clear()
        flow.count = 0
        self.purge_count += 1
        # As the stepped producer, woken by the purge's not-full edge.
        _restart(flow.src, self.sim.now, self.sim._seq)
        self._changed(replan=True)
        return dropped

    def snapshot(self) -> List[int]:
        """Copy of current contents, oldest first (for tests/debug)."""
        self.sync()
        return list(self._flow.words)

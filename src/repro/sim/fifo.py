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

- one *run*, the crossbar's transfer: a producer run
  (:meth:`WordFifo.stream_in`: words, start cycle, cycles per word)
  tries one push per word period; at a full FIFO it stalls, and the pop
  that frees space restarts it on that pop's cycle.  A consumer run
  (:meth:`WordFifo.drain_out`: a word count, start cycle, cycles per
  word) tries one pop per word period; at an empty FIFO it waits, and
  the next push restarts it on that push's cycle;
- *claims*, on the run's other side: the block pops (input FIFO) or
  pushes (output FIFO) the Cryptographic Unit has promised for cycles
  it already knows (a ``LOAD`` or ``STORE`` whose completion is
  computed at issue; :meth:`claim_pop`/:meth:`claim_push`).

A run moves a known number of words, and once its last word has moved
the FIFO takes the next run, even before the finished run's ``done``
fires; it cannot be replaced before that.  So, with the claims on its
other side, nothing the kernel has still to run can change the
schedule a claim sees, except a run not started yet, which moves words
only after every known one: :meth:`pop_ready` and :meth:`push_ready`
answer for a position ahead of the kernel too, where a unit may claim.

The replay moves counts, not words.  The FIFO keeps every word it has
been given or is scheduled to get, in push order — a producer run's
words when the run starts, a claimed push's when it is claimed — and
reads them by index: a claimed pop takes its words when it is claimed,
a consumer run when it is replayed.  The claims pending at once all
move words one way, so a stretch of them with no run attempt between
applies as one count.  So does a stretch of claimed pushes that a
waiting consumer run drains one claim at a time, each claim's words
popped and the run waiting again before the next claim's cycle, as the
crossbar drains an output FIFO's ``STORE`` claims (:meth:`_Flow.drain`);
ties, a run still busy when a claim lands, and projections to a count
stay with the general replay.  Whatever would break these rules — a
claim on its run's side or beside pending claims of the other kind, a
run started against pending claims on its side, an immediate move
while claimed pops are pending — raises :class:`FifoError`.

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

from bisect import bisect_left, bisect_right
from copy import copy
from itertools import repeat
from operator import add, itemgetter, lt, mul, sub
from typing import Callable, List, Optional, Tuple

from repro.errors import FifoError
from repro.sim.kernel import Event, Simulator
from repro.utils.bits import bytes_to_words32, words32_to_bytes

#: Depth in 32-bit words (512 x 32 bits == 2 KB).
DEFAULT_DEPTH_WORDS = 512

WORDS_PER_BLOCK = 4

#: A key later than every position (projections run to exhaustion).
_NEVER = (1 << 62, 1 << 62, 1 << 62)

#: Goals of a projection (see :meth:`_Flow.replay`).
_PUSHED, _ROOM, _END = 1, 2, 3

#: Words already popped that the FIFO keeps before dropping them.
_KEEP = DEFAULT_DEPTH_WORDS

#: A kernel key ``(cycle, stamp, seq)``.
Key = Tuple[int, int, int]

#: A claim's key, and its claimed total (see :class:`_Flow`).
_KEY, _CLAIMED = itemgetter(0), itemgetter(1)


class Transfer:
    """A producer or consumer run on one FIFO (see the module docs).

    ``done`` triggers with the run's end cycle, one word period after
    its last word moved, as a stepping process would return.
    """

    __slots__ = (
        "push", "sink", "moved", "total", "key", "prev", "period", "end", "stalled", "done", "entry",
    )

    def __init__(self, push: bool, sink: Optional[list], total: int, key: Key, period: int, done):
        #: A producer (True) or consumer run.
        self.push = push
        self.sink = sink
        #: Words moved so far (up to the FIFO's replayed position).
        self.moved = 0
        #: Words to move.
        self.total = total
        #: Key of the next attempt; None while the run waits at a full
        #: (producer) or empty (consumer) FIFO, and once it has ended.
        self.key: Optional[Key] = key
        #: Key of the attempt that scheduled the next one (None: a start
        #: or a restart, ordered by its ``seq``).
        self.prev: Optional[Key] = None
        self.period = period
        #: ``(cycle, stamp)`` of the end once the last word has moved.
        self.end: Optional[Tuple[int, int]] = None
        #: Cycle of the attempt that found the FIFO blocked, while waiting.
        self.stalled = 0
        self.done: Event = done
        self.entry = None


#: Stands for a FIFO with no run in a replay: never attempts, never wakes.
_NO_RUN = Transfer(True, None, 0, None, 1, None)
_NO_RUN.end = (0, 0)


def _restart(run: Optional[Transfer], cycle: int, seq: int) -> None:
    """Restart *run* if it waits: woken on *cycle* by a push or pop keyed
    ``(cycle, ..., seq)``, as the stepped process's wake-up would be."""
    if run is not None and run.key is None and run.end is None:
        run.key, run.prev = (cycle, cycle, seq), None


def _claim_first(claim, run: Transfer) -> bool:
    """Whether *claim* comes before *run*'s next attempt, keyed on the
    same cycle and stamp: the attempt was scheduled by the run's previous
    step, so it comes first iff that step ran before the claim was made
    (a start or a restart is ordered by its ``seq``)."""
    if run.prev is None:
        return claim[0][2] < run.key[2]
    return not run.prev < claim[2]


def _attempt_first(run: Transfer, tied: int, limit: Key, created: Optional[Key]) -> bool:
    """Whether *run*'s attempt number *tied* (>= 1), on *limit*'s cycle
    and stamp, comes before *limit*.

    Attempt j >= 1 is at ``(cycle + j*period, cycle + (j-1)*period)``, a
    ``Delay`` taken by attempt j - 1, the first one being at the run's
    key.  If *limit* is a claim's key, made at position *created*, the
    attempt is ordered as in :func:`_claim_first`; before a position it
    comes first.
    """
    if created is None:
        return limit[2] > -1
    cycle, period = run.key[0], run.period
    j = tied - 1
    prev = run.key if j == 0 else (cycle + j * period, cycle + (j - 1) * period, -1)
    return prev < created


class _Flow:
    """FIFO occupancy plus its schedule, replayed in key order.

    Claims are ``(key, claimed, created)``: keyed *key*, made at
    position *created*, and *claimed* the running total of claimed words
    after it (a push adds its words, a pop subtracts them).  The claims
    pending at any time are all pushes or all pops, so a run of them
    moves the count one way.  The live flow also hands a consumer run
    its words; a projection (:meth:`sketch`) replays counts only, to
    find the cycle a future condition is met.
    """

    __slots__ = (
        "depth", "count", "pushed", "popped", "high", "run", "claims", "next_claim",
        "claimed", "applied", "words", "base",
    )

    def __init__(self, depth: int):
        self.depth = depth
        self.count = self.pushed = self.popped = self.high = 0
        self.run: Optional[Transfer] = None
        self.claims: list = []
        self.next_claim = 0
        #: The claimed total of every claim made, and of those replayed:
        #: their difference is the words claims have still to move.
        self.claimed = self.applied = 0
        #: Every word pushed or scheduled to be, in push order, from the
        #: push numbered ``base`` (None in a projection).
        self.words: Optional[List[int]] = []
        self.base = 0

    def sketch(self) -> "_Flow":
        other = copy(self)
        other.run = copy(self.run) if self.run is not None else None
        other.words = None
        return other

    def replay(self, bound: Key, goal: int = 0, target: int = 0) -> Optional[int]:
        """Apply every scheduled step keyed below *bound*.

        With a *goal* the replay stops once it is met and returns its
        cycle: ``_PUSHED`` (``pushed >= target``), ``_ROOM`` (``count <=
        depth - target``), or ``_END``, the end ``(cycle, stamp)`` of the
        run.  Returns None when the schedule runs out first.
        """
        claims, run = self.claims, self.run or _NO_RUN
        i, last, depth = self.next_claim, len(claims), self.depth
        hit = None
        while True:
            attempt = run.key
            if i < last:
                claim = claims[i]
                key = claim[0]
                if attempt is None or (
                    key < attempt
                    if key[0] != attempt[0] or key[1] != attempt[1]
                    else _claim_first(claim, run)
                ):
                    if not key < bound:
                        break
                    if attempt is None and run.end is None and not run.push and goal in (0, _END):
                        # A waiting consumer run: the claims it drains one at a time.
                        j = self.drain(run, i, last, bound)
                        if j > i:
                            i = j
                            if goal and run.end is not None:
                                hit = run.end
                                break
                            continue
                    # Claims move counts alone: every one below the bound
                    # when no run attempt can come between them, else this
                    # one (which may wake a waiting run).
                    i += 1
                    if attempt is None and run.end is not None and not goal:
                        i = bisect_left(claims, (bound,), i, last)
                    claimed = claims[i - 1][1]
                    moved, self.applied = claimed - self.applied, claimed
                    count = self.count + moved
                    if moved > 0:
                        if count > depth:
                            raise FifoError("claimed push overflows the FIFO")
                        self.pushed += moved
                        if count > self.high:
                            self.high = count
                    elif count < 0:
                        raise FifoError("claimed pop underflows the FIFO")
                    else:
                        self.popped -= moved
                    self.count = count
                    if goal and (
                        (goal == _PUSHED and self.pushed >= target)
                        or (goal == _ROOM and count <= depth - target)
                    ):
                        hit = key[0]
                        break
                    if attempt is None and run.end is None:
                        # The run waits on the FIFO: it wakes on the claim's cycle.
                        run.key, run.prev = (key[0], key[0], key[2]), None
                    continue
                if key < bound:
                    limit, created = key, claim[2]
                else:
                    limit, created = bound, None
            elif attempt is None:
                break
            else:
                limit, created = bound, None
            if not attempt < bound:
                break
            # The run's attempts before *limit*: each moves a word while
            # the FIFO has room (producer) or words (consumer); one that
            # finds it blocked leaves the run waiting.
            first, period, count = attempt[0], run.period, self.count
            movable = depth - count if run.push else count
            if movable == 0:
                run.key, run.stalled = None, first
                continue
            # How many come before *limit*: the first one does.
            lcycle = limit[0]
            if lcycle <= first:
                attempts = 1
            else:
                attempts = (lcycle - first - 1) // period + 1
                if first + attempts * period == lcycle:
                    # The next one is on the limit's cycle.
                    stamp = lcycle - period
                    if stamp < limit[1] or (
                        stamp == limit[1] and _attempt_first(run, attempts, limit, created)
                    ):
                        attempts += 1
            n = min(attempts, movable, run.total - run.moved)
            if run.push:
                if goal == _PUSHED and self.pushed < target <= self.pushed + n:
                    hit = first + (target - self.pushed - 1) * period
                self.pushed += n
                self.count = count = count + n
                if count > self.high:
                    self.high = count
                blocked = count == depth
            else:
                if self.words is not None:
                    start = self.pushed - count - self.base
                    run.sink.extend(self.words[start : start + n])
                if goal == _ROOM and depth - count < target <= depth - count + n:
                    hit = first + (target - depth + count - 1) * period
                self.popped += n
                self.count = count = count - n
                blocked = count == 0
            cycle = first + (n - 1) * period
            run.moved += n
            if run.moved == run.total:
                run.key, run.end = None, (cycle + period, cycle)
            else:
                run.prev = attempt if n == 1 else (cycle, cycle - period, -1)
                if n < attempts and blocked:
                    # The next attempt finds the FIFO blocked: the run waits.
                    run.key, run.stalled = None, cycle + period
                else:
                    run.key = (cycle + period, cycle, -1)
            if goal == _END:
                hit = run.end
            if hit is not None:
                break
        self.next_claim = i
        return hit

    def drain(self, run: Transfer, i: int, last: int, bound: Key) -> int:
        """Apply at once the claimed pushes from claim *i* that the
        waiting consumer *run* drains one claim at a time; returns the
        index after them (*i* if there are none).

        Each claim restarts the run on its cycle, and the run pops the
        claim's words one a period and tries once more, finding the FIFO
        empty, before the next claim's cycle and the bound's, so nothing
        ties with them; the claim with the run's last word ends it
        instead, after its last pop.  The per-claim arithmetic runs in
        ``map`` over the candidates.
        """
        claims, period, cap = self.claims, run.period, bound[0]
        applied, left = self.applied, run.total - run.moved
        # A next claim that lands before the first one is drained: left
        # to the general replay without the work below (which a replay
        # that keeps falling back would repeat for every claim).
        key, claimed, _created = claims[i]
        if i + 1 < last and key[0] + (claimed - applied) * period >= claims[i + 1][0][0]:
            return i
        # Candidates: the claims keyed before the bound's cycle, up to
        # the one that gives the run its last word.
        j = bisect_left(claims, ((cap,),), i, last)
        j = bisect_right(claims, applied + left, i, j, key=_CLAIMED)
        if j == i:
            return i
        stretch = claims[i:j]
        cycles = list(map(_KEY, map(_KEY, stretch)))
        totals = list(map(_CLAIMED, stretch))
        words = list(map(sub, totals, [applied, *totals]))
        # After each claim's last pop, the run's next attempt (or, for the
        # claim that ends it, that pop), and the cycle it must come before.
        afters = list(map(add, cycles, map(mul, words, repeat(period))))
        ended = totals[-1] == applied + left
        if ended:
            afters[-1] -= period
        limits = cycles[1:]
        limits.append(min(cap, claims[j][0][0]) if j < last else cap)
        drained = list(map(lt, afters, limits))
        n = len(drained) if all(drained) else drained.index(False)
        high = max(self.high, *words[:n]) if n else 0
        if not n or high > self.depth:
            return i  # the general replay raises on an overflowing claim
        ended = ended and n == len(drained)
        cycle = afters[n - 1] - (0 if ended else period)
        moved = totals[n - 1] - applied
        if self.words is not None:
            start = self.pushed - self.base
            run.sink.extend(self.words[start : start + moved])
        self.pushed += moved
        self.popped += moved
        self.applied, self.high = totals[n - 1], high
        run.moved += moved
        if ended:
            run.end = (cycle + period, cycle)
        else:
            run.stalled = cycle + period
        return i + n


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
        gone = flow.pushed - flow.count - flow.base
        if gone > _KEEP:
            del flow.words[:gone]
            flow.base += gone

    def horizon(self) -> int:
        """Cycle of the last scheduled step (see ``Simulator.add_timeline``):
        the last claim, or the run's last attempt (its last word's, or the
        one that found the FIFO blocked)."""
        flow = self._flow
        sketch = flow.sketch()
        sketch.replay(_NEVER)
        run = sketch.run
        cycle = 0 if run is None else run.end[1] if run.end is not None else run.stalled
        if flow.next_claim < len(flow.claims):
            # Claims come in key order: the last one is the latest.
            cycle = max(cycle, flow.claims[-1][0][0])
        return cycle

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
        if flow.claimed < flow.applied:
            raise FifoError(f"{self.name}: immediate push with claimed pops pending")
        # Before the words still to come: a producer run's, claimed pushes.
        at = flow.pushed - flow.base
        flow.words[at:at] = words
        flow.count += len(words)
        flow.pushed += len(words)
        flow.high = max(flow.high, flow.count)
        now, _stamp, seq = self.sim.position()
        _restart(flow.run, now, seq)
        self._changed(replan=True)

    def _pop_now(self, nwords: int) -> List[int]:
        self.sync()
        flow = self._flow
        if flow.count < nwords:
            raise FifoError(f"{self.name}: underflow")
        if flow.claimed < flow.applied:
            raise FifoError(f"{self.name}: immediate pop with claimed pops pending")
        first = flow.pushed - flow.count - flow.base
        words = flow.words[first : first + nwords]
        flow.count -= nwords
        flow.popped += nwords
        now, _stamp, seq = self.sim.position()
        _restart(flow.run, now, seq)
        self._changed(replan=True)
        return words

    # -- runs ------------------------------------------------------------------

    def stream_in(self, words: List[int], cycles_per_word: int = 1) -> Transfer:
        """Start a producer run pushing *words*, one per *cycles_per_word*.

        The first attempt is ordered as a process started now would be;
        ``done`` triggers one period after the last push.
        """
        flow = self._attach()
        if flow.claimed > flow.applied:
            raise FifoError(f"{self.name}: a producer run with claimed pushes pending")
        words = list(words)
        run = self._new_run(True, None, len(words), cycles_per_word)
        flow.words.extend(words)
        flow.run = run
        self._changed(replan=False)
        return run

    def drain_out(self, sink: list, nwords: int, cycles_per_word: int = 1) -> Transfer:
        """Start a consumer run popping *nwords* words into *sink*, one
        per *cycles_per_word*; ``done`` triggers one period after the
        last pop.  Ordered as :meth:`stream_in`."""
        flow = self._attach()
        if flow.claimed < flow.applied:
            raise FifoError(f"{self.name}: a consumer run with claimed pops pending")
        run = self._new_run(False, sink, nwords, cycles_per_word)
        flow.run = run
        self._changed(replan=False)
        return run

    def _attach(self) -> _Flow:
        self.sync()
        flow = self._flow
        run = flow.run
        if run is not None and run.end is None:
            kind = "producer" if run.push else "consumer"
            raise FifoError(f"{self.name}: a {kind} run is already attached")
        return flow

    def _new_run(self, push, sink, total, period) -> Transfer:
        if period < 1:
            raise FifoError(f"{self.name}: cycles per word must be >= 1")
        sim = self.sim
        # Keyed as a process started now: after the running entry.
        run = Transfer(
            push, sink, total, (sim.now, sim.now, sim._seq), period,
            sim.event(f"{self.name}.transfer"),
        )
        if not total:
            run.key, run.end = None, (sim.now, sim.now)
        return run

    def _plan(self, run: Transfer) -> None:
        """Schedule *run*'s ``done`` once the known schedule fixes its end."""
        end = run.end
        if end is None:
            flow = self._flow
            left = run.total - run.moved
            # Only claims on the other side move the words it waits for.
            if run.push:
                if left > flow.depth - flow.count + flow.applied - flow.claimed:
                    return
            elif left > flow.count + flow.claimed - flow.applied:
                return
            self.sync()
            end = flow.sketch().replay(_NEVER, _END)
        if end is not None:
            run.entry = self.sim.call_stamped(end[0], end[1], self._finish_run, run)

    def _finish_run(self, run: Transfer) -> None:
        run.entry = None
        self.sync()
        flow = self._flow
        # A run whose last word has moved may already have made way for
        # the next one.
        if flow.run is run:
            flow.run = None
        run.done.trigger(self.sim.now)

    def _changed(self, replan: bool) -> None:
        """The schedule gained words or room: re-plan the run, wake watchers.

        Claims only add steps after every known one and cannot move a
        planned end; immediate operations and purges can (*replan*).
        """
        run = self._flow.run
        if run is not None:
            if replan and run.entry is not None:
                self.sim.cancel(run.entry)
                run.entry = None
            if run.entry is None:
                self._plan(run)
        if self._watchers:
            watchers, self._watchers = self._watchers, []
            for callback in watchers:
                callback()

    # -- claims (the Cryptographic Unit's promised block moves) ---------------

    def pop_ready(self, at: Key, nwords: int = WORDS_PER_BLOCK) -> Optional[int]:
        """First cycle from position *at* (a kernel key, which may lie
        ahead of the kernel) on which *nwords* unclaimed words are
        resident; None if the known schedule never delivers them."""
        flow = self._flow
        # Only pushes change the unclaimed count, so the replayed state
        # need not be current.
        short = nwords - flow.count + flow.applied - flow.claimed
        if short <= 0:
            return at[0]
        run = flow.run
        if run is not None and run.push and run.key is not None and short <= min(
            flow.depth - flow.count, run.total - run.moved
        ):
            # The run pushes them in its next attempts: no room runs out.
            ready = run.key[0] + (short - 1) * run.period
        else:
            self.sync()
            short = nwords - flow.count + flow.applied - flow.claimed
            if short <= 0:
                return at[0]
            ready = flow.sketch().replay(_NEVER, _PUSHED, flow.pushed + short)
            if ready is None:
                return None
        return ready if ready > at[0] else at[0]

    def claim_pop(self, key: Key, created: Key, nwords: int = WORDS_PER_BLOCK) -> List[int]:
        """Promise a pop of *nwords* at *key*, made at position *created*;
        returns the words it will pop, oldest first."""
        flow = self._flow
        run = flow.run
        if (run is not None and not run.push and run.end is None) or flow.claimed > flow.applied:
            raise FifoError(f"{self.name}: claimed pop on the side of a run or of claimed pushes")
        first = flow.pushed - flow.count + flow.applied - flow.claimed - flow.base
        words = flow.words[first : first + nwords]
        flow.claimed -= nwords
        flow.claims.append((key, flow.claimed, created))
        if run is not None and run.entry is None:
            self._plan(run)
        if self._watchers:
            self._changed(replan=False)
        return words

    def push_ready(self, at: Key, nwords: int = WORDS_PER_BLOCK) -> Optional[int]:
        """First cycle from position *at* (a kernel key, which may lie
        ahead of the kernel) on which *nwords* words of room are free;
        None if the known schedule never frees them."""
        flow = self._flow
        room = self.depth_words - nwords
        run = flow.run
        # Without a producer run the replayed count plus every claimed
        # push bounds the count from above.
        if flow.count + flow.claimed - flow.applied <= room and (run is None or not run.push):
            return at[0]
        self.sync()
        sketch = flow.sketch()
        sketch.replay(at)
        if sketch.count <= room:
            return at[0]
        return sketch.replay(_NEVER, _ROOM, nwords)

    def claim_push(self, key: Key, created: Key, words: Tuple[int, ...]) -> None:
        """Promise a push of *words* at *key*, made at position *created*."""
        flow = self._flow
        run = flow.run
        if (run is not None and run.push and run.end is None) or flow.claimed < flow.applied:
            raise FifoError(f"{self.name}: claimed push on the side of a run or of claimed pops")
        flow.words.extend(words)
        flow.claimed += len(words)
        flow.claims.append((key, flow.claimed, created))
        # A consumer run's end is fixed once claims cover its words.
        if run is not None and run.entry is None and (
            run.total - run.moved <= flow.count + flow.claimed - flow.applied
        ):
            self._plan(run)
        if self._watchers:
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
        flow.count = 0
        self.purge_count += 1
        # As the stepped producer, woken by the purge's not-full edge.
        if flow.run is not None and flow.run.push:
            _restart(flow.run, self.sim.now, self.sim._seq)
        self._changed(replan=True)
        return dropped

    def snapshot(self) -> List[int]:
        """Copy of current contents, oldest first (for tests/debug)."""
        self.sync()
        flow = self._flow
        first = flow.pushed - flow.count - flow.base
        return flow.words[first : first + flow.count]

"""FIFO: capacity, ordering, purge (hypothesis), and the arrival
schedule's bounded runs, against immediate operations and against
claimed block moves on the run's other side, compared to the
word-stepped FIFO and transfer processes of ``tests/stepped_models.py``."""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.errors import FifoError
from repro.sim.fifo import WordFifo
from repro.sim.kernel import Delay, Simulator
from repro.utils.bits import words32_to_bytes
from stepped_models import SteppedWordFifo, stepped_drainer, stepped_feeder


def make(depth=8):
    return WordFifo(Simulator(), depth_words=depth, name="t")


def test_fifo_order_preserved():
    f = make()
    for i in range(5):
        f.push_word(i)
    assert [f.pop_word() for _ in range(5)] == list(range(5))


def test_overflow_underflow():
    f = make(depth=2)
    f.push_word(1)
    f.push_word(2)
    with pytest.raises(FifoError):
        f.push_word(3)
    f.pop_word()
    f.pop_word()
    with pytest.raises(FifoError):
        f.pop_word()


def test_word_range_checked():
    f = make()
    with pytest.raises(FifoError):
        f.push_word(1 << 32)


def test_block_roundtrip(rb):
    f = make(depth=8)
    block = rb(16)
    f.push_block(block)
    assert f.blocks_available == 1
    assert f.pop_block() == block


def test_block_size_checked(rb):
    f = make()
    with pytest.raises(FifoError):
        f.push_block(rb(15))


def test_purge_clears_and_counts(rb):
    f = make()
    f.push_block(rb(16))
    dropped = f.purge()
    assert dropped == 4
    assert len(f) == 0
    assert f.purge_count == 1


def test_statistics(rb):
    f = make(depth=8)
    f.push_block(rb(16))
    f.pop_block()
    assert f.total_pushed == 4
    assert f.total_popped == 4
    assert f.high_watermark == 4


@given(st.lists(st.integers(0, 0xFFFFFFFF), max_size=40))
@settings(max_examples=30, deadline=None)
def test_fifo_invariant_random_traffic(words):
    """Pushed == popped + resident, order preserved, never negative."""
    f = WordFifo(Simulator(), depth_words=16)
    popped = []
    for w in words:
        if f.can_push():
            f.push_word(w)
        if len(f) > 8 and f.can_pop():
            popped.append(f.pop_word())
    popped += [f.pop_word() for _ in range(len(f))]
    pushed_count = f.total_pushed
    assert len(popped) == pushed_count
    # Order: popped must be a prefix-order subsequence of pushed words.
    expected = [w for w in words][:pushed_count]
    assert popped == expected[: len(popped)]


# -- the arrival schedule against the word-stepped FIFO -----------------------------


def _blocks(nwords):
    words = [(0x01010101 * (i + 1)) & 0xFFFFFFFF for i in range(nwords)]
    return [words32_to_bytes(words[i : i + 4]) for i in range(0, nwords, 4)], words


def _probe(sim, fifo, rows, cycles, offset):
    """Read every statistic on every other cycle from *offset*.

    Two probes, offset by one cycle, read every cycle.  A period of 2
    keeps a probe's wake-ups keyed apart from the runs' attempts (the
    runs here use other periods): a process stepping with exactly a
    run's period is ordered against it by their restarts, which the
    arrival schedule does not track.
    """
    yield Delay(offset)
    for _ in range(offset, cycles, 2):
        rows.append(
            (sim.now, len(fifo), fifo.blocks_available, fifo.total_pushed,
             fifo.total_popped, fifo.high_watermark, fifo.free_words)
        )
        yield Delay(2)


def _claim_blocks(sim, fifo, stepped, period, blocks, pop, lead=0):
    """A process that moves one block every *period* cycles while the
    FIFO can take the move: a pop (*pop*) or a push of the next block.

    On the stepped FIFO the words move at once; on the FIFO with an
    arrival schedule the move is a claim keyed like the process's own
    kernel entry and made where that entry was scheduled (as a ``LOAD``
    or ``STORE`` claims its completion's move at its issue).  With a
    *lead*, a push lands *lead* cycles after the process decides on it:
    claimed at the decision, keyed like the entry that pushes it on the
    stepped FIFO (as a ``STORE`` issued ahead of the kernel claims it).
    """
    moved = []
    for block in blocks:
        while True:
            scheduled = sim.position()
            yield Delay(period)
            if fifo.can_pop(4) if pop else fifo.can_push(4):
                break
        if lead:
            key = (sim.now + lead, sim.now, sim._seq)
            if stepped:
                sim.call_stamped(*key[:2], lambda _arg, words=block: [fifo.push_word(w) for w in words])
            else:
                fifo.claim_push(key, sim.position(), tuple(block))
        elif stepped:
            if pop:
                moved.extend(fifo.pop_word() for _ in range(4))
            else:
                for word in block:
                    fifo.push_word(word)
        else:
            now, stamp, seq = sim.position()
            key = (now, stamp, seq - 1)  # the running entry's own key
            if pop:
                moved.extend(fifo.claim_pop(key, scheduled))
            else:
                fifo.claim_push(key, scheduled, tuple(block))
    return moved


def _scenario(stepped, depth, producer_wc, nwords, consumer=None, consumer_wc=1,
              pops_at=(), purge_at=(), cycles=400, lead=0):
    """Run one FIFO with a run and what it meets, probing it every cycle:
    a producer run with block pops and purges at given cycles by a
    process, or with claimed block pops every *consumer_wc* cycles
    (*consumer* ``"claims"``); or (*consumer* ``"drain"``) a consumer
    run of every word, one per *consumer_wc* cycles, with claimed block
    pushes every *producer_wc* cycles, landing *lead* cycles later.  The
    runs are bounded runs, or on the stepped FIFO the stepped transfer
    processes."""
    sim = Simulator()
    fifo = (SteppedWordFifo if stepped else WordFifo)(sim, depth, "f")
    blocks, words = _blocks(nwords)
    port = SimpleNamespace(in_fifo=fifo, out_fifo=fifo, sim=sim)
    sink = []
    split = [words[i : i + 4] for i in range(0, nwords, 4)]
    if consumer == "drain":
        if stepped:
            run = sim.add_process(stepped_drainer(port, sink, nwords, consumer_wc))
        else:
            run = fifo.drain_out(sink, nwords, consumer_wc)
        claims = sim.add_process(_claim_blocks(sim, fifo, stepped, producer_wc, split, False, lead))
    else:
        if stepped:
            run = sim.add_process(stepped_feeder(port, blocks, producer_wc))
        else:
            run = fifo.stream_in(words, producer_wc)
        if consumer == "claims":
            claims = sim.add_process(_claim_blocks(sim, fifo, stepped, consumer_wc, split, True))
    purged = []

    def poke():
        events = sorted([(c, "pop") for c in pops_at] + [(c, "purge") for c in purge_at])
        for cycle, what in events:
            yield Delay(cycle - sim.now)
            if what == "pop":
                sink.extend([fifo.pop_word() for _ in range(4)])
            else:
                purged.append(fifo.purge())

    sim.add_process(poke())
    rows = []
    sim.add_process(_probe(sim, fifo, rows, cycles, 0))
    sim.add_process(_probe(sim, fifo, rows, cycles, 1))
    sim.run()
    if consumer == "claims":
        sink.extend(claims.done.value)
    return {"rows": sorted(rows), "residue": len(fifo), "ends": [run.done.value],
            "sink": list(sink), "purged": purged, "purges": fifo.purge_count, "now": sim.now}


def _assert_matches_stepped(**kwargs):
    stepped, loose = _scenario(True, **kwargs), _scenario(False, **kwargs)
    assert loose["rows"]
    assert loose == stepped
    return loose


def test_backpressure_stalls_and_restarts_on_the_pop_cycle():
    out = _assert_matches_stepped(depth=8, producer_wc=1, nwords=20, pops_at=(30, 50, 70))
    rows = {row[0]: row for row in out["rows"]}
    # Eight words by cycle 7, then stalled until the pop at 30 frees four.
    assert rows[29][1] == 8 and rows[29][3] == 8
    assert rows[34][3] == 12  # pushed at 30, 31, 32, 33
    assert rows[49][3] == 12  # full again until the pop at 50
    assert out["ends"] == [74]  # the last four pushed at 70..73


def test_purge_with_a_stream_pending_restarts_it():
    out = _assert_matches_stepped(depth=8, producer_wc=3, nwords=24, purge_at=(30, 70))
    assert out["purged"][0] == 8
    assert out["purges"] == 2


@pytest.mark.parametrize(
    "producer_wc,consumer_wc,depth", [(1, 1, 8), (3, 5, 6), (4, 4, 4), (5, 3, 12), (1, 37, 5)]
)
def test_statistics_at_every_cycle_match_the_stepped_fifo(producer_wc, consumer_wc, depth):
    """A producer run against claimed block pops (an input FIFO)."""
    out = _assert_matches_stepped(depth=depth, producer_wc=producer_wc, nwords=40,
                                  consumer="claims", consumer_wc=consumer_wc)
    assert out["sink"] == _blocks(40)[1]


@pytest.mark.parametrize(
    "producer_wc,consumer_wc,depth", [(2, 1, 8), (3, 5, 6), (4, 7, 4), (5, 3, 12), (1, 37, 5)]
)
def test_drain_statistics_at_every_cycle_match_the_stepped_fifo(producer_wc, consumer_wc, depth):
    """A consumer run against claimed block pushes (an output FIFO).
    The pushing process steps with another period than the run: a
    reader keyed like a run's attempt sees the attempt first (module
    docs)."""
    out = _assert_matches_stepped(depth=depth, producer_wc=producer_wc, nwords=40,
                                  consumer="drain", consumer_wc=consumer_wc)
    assert out["sink"] == _blocks(40)[1]


@pytest.mark.parametrize("producer_wc,lead,consumer_wc", [(13, 6, 1), (17, 6, 3), (9, 4, 1), (5, 6, 3)])
def test_pushes_claimed_ahead_match_the_stepped_fifo(producer_wc, lead, consumer_wc):
    """A consumer run against block pushes claimed *lead* cycles before
    they land.  In the first three the run drains each block before the
    next lands, so its end is projected through a drained stretch (see
    ``_Flow.drain``); in the last one the blocks land faster than it
    drains them (the FIFO holds every word: the claims do not look for
    room)."""
    out = _assert_matches_stepped(depth=64, producer_wc=producer_wc, nwords=40,
                                  consumer="drain", consumer_wc=consumer_wc, lead=lead)
    assert out["sink"] == _blocks(40)[1]


def test_sixteen_word_fifo_with_a_slow_drainer():
    """STOREs every cycle they fit against a drain of 37 cycles a word."""
    out = _assert_matches_stepped(depth=16, producer_wc=1, nwords=64, consumer="drain",
                                  consumer_wc=37, cycles=2500)
    assert out["sink"] == _blocks(64)[1]
    assert max(row[5] for row in out["rows"]) == 16


def test_a_finished_run_makes_way_before_its_done_fires():
    """A run whose last word has moved no longer holds the FIFO: the next
    run may start on the cycle the first one's ``done`` fires, before
    that event has run, and the first ``done`` still fires."""
    sim = Simulator()
    fifo = WordFifo(sim, 8, "f")
    sink, log = [], []
    producer = fifo.stream_in([1, 2])  # pushes at 0 and 1, ends at 2

    def next_runs():
        yield Delay(2)  # keyed before the end on cycle 2
        log.append(producer.done.triggered)
        log.append(fifo.stream_in([3, 4]))
        yield log[-1].done
        log.append(fifo.drain_out(sink, 4))

    sim.add_process(next_runs())
    sim.run()
    assert log[0] is False
    assert producer.done.value == 2
    assert log[1].done.value == 4 and log[2].done.value == 8
    assert sink == [1, 2, 3, 4]
    fifo.drain_out([], 1)  # waits on the empty FIFO
    with pytest.raises(FifoError, match="consumer run is already attached"):
        fifo.stream_in([5])


def test_claims_stay_on_the_other_side_of_the_run():
    """A FIFO replays one run against claims on its other side, the
    claims pending at once all move words one way, and immediate moves
    that would reorder claimed words are refused."""
    sim = Simulator()
    fifo = WordFifo(sim, 8, "f")
    fifo.stream_in([1, 2, 3, 4, 5, 6, 7, 8], 2)
    key = (20, 14, 0)
    with pytest.raises(FifoError, match="claimed push on the side of a run"):
        fifo.claim_push(key, sim.position(), (9, 9, 9, 9))
    assert fifo.claim_pop(key, sim.position()) == [1, 2, 3, 4]
    sim.run(until=17)  # every word pushed, the claim still ahead
    with pytest.raises(FifoError, match="immediate pop with claimed pops pending"):
        fifo.pop_word()
    sim.run()
    assert fifo.snapshot() == [5, 6, 7, 8]
    out = WordFifo(sim, 8, "out")
    out.claim_push((sim.now + 6, sim.now, 0), sim.position(), (1, 2, 3, 4))
    with pytest.raises(FifoError, match="claimed pop on the side of a run or of claimed pushes"):
        out.claim_pop((sim.now + 12, sim.now, 0), sim.position())
    out.drain_out([], 4)
    with pytest.raises(FifoError, match="claimed pop on the side of a run"):
        out.claim_pop((sim.now + 12, sim.now, 0), sim.position())

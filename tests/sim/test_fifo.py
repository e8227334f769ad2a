"""FIFO: capacity, ordering, purge (hypothesis), and the arrival
schedule's bounded runs against the word-stepped FIFO and transfer
processes of ``tests/stepped_models.py``."""

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


def _scenario(stepped, depth, producer_wc, nwords, consumer=None, consumer_wc=1,
              pops_at=(), purge_at=(), cycles=400):
    """Run one FIFO with a producer and a consumer (a drain of every
    word, or block pops and purges by a process), probing it every
    cycle.  The producer and the drain are bounded runs, or on the
    stepped FIFO the stepped transfer processes."""
    sim = Simulator()
    fifo = (SteppedWordFifo if stepped else WordFifo)(sim, depth, "f")
    blocks, words = _blocks(nwords)
    port = SimpleNamespace(in_fifo=fifo, out_fifo=fifo, sim=sim)
    sink = []
    if stepped:
        producer = sim.add_process(stepped_feeder(port, blocks, producer_wc))
        if consumer == "drain":
            sim.add_process(stepped_drainer(port, sink, nwords, consumer_wc))
    else:
        producer = fifo.stream_in(words, producer_wc)
        if consumer == "drain":
            fifo.drain_out(sink, nwords, consumer_wc)
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
    return {"rows": sorted(rows), "residue": len(fifo), "ends": [producer.done.value],
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
    _assert_matches_stepped(depth=depth, producer_wc=producer_wc, nwords=40,
                            consumer="drain", consumer_wc=consumer_wc)


def test_sixteen_word_fifo_with_a_slow_drainer():
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
    first, second, log = [], [], []
    producer = fifo.stream_in([1, 2])  # pushes at 0 and 1, ends at 2
    consumer = fifo.drain_out(first, 2)  # pops at 0 and 1, ends at 2

    def next_runs():
        yield Delay(2)  # keyed before both ends on cycle 2
        log.append((producer.done.triggered, consumer.done.triggered))
        log.append(fifo.stream_in([3, 4]))
        log.append(fifo.drain_out(second, 2))

    sim.add_process(next_runs())
    sim.run()
    assert log[0] == (False, False)
    assert producer.done.value == consumer.done.value == 2
    assert log[1].done.value == log[2].done.value == 4
    assert first == [1, 2] and second == [3, 4]
    fifo.drain_out([], 1)  # waits on the empty FIFO
    with pytest.raises(FifoError, match="consumer run is already attached"):
        fifo.drain_out([], 1)

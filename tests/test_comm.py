"""CommTracker: sends, supersteps, h-relations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dist.comm import CommTracker, pair_batch
from repro.util.errors import InvalidValue


class TestSend:
    def test_basic_send(self):
        t = CommTracker(3)
        t.send(0, 1, 100)
        stats = t.sync()
        assert stats.sent[0] == 100 and stats.received[1] == 100
        assert stats.messages == 1

    def test_self_send_free(self):
        t = CommTracker(2)
        t.send(0, 0, 1000)
        assert t.sync().total_bytes == 0

    def test_empty_message_elided(self):
        t = CommTracker(2)
        t.send(0, 1, 0)
        assert t.sync().messages == 0

    def test_out_of_range(self):
        t = CommTracker(2)
        with pytest.raises(InvalidValue):
            t.send(0, 2, 10)
        with pytest.raises(InvalidValue):
            t.send(-1, 0, 10)

    def test_negative_bytes(self):
        t = CommTracker(2)
        with pytest.raises(InvalidValue):
            t.send(0, 1, -5)

    def test_zero_procs_rejected(self):
        with pytest.raises(InvalidValue):
            CommTracker(0)


class TestCollectives:
    def test_broadcast(self):
        t = CommTracker(4)
        t.broadcast(1, 10)
        stats = t.sync()
        assert stats.sent[1] == 30  # 3 receivers
        assert stats.received[0] == 10

    def test_allgather(self):
        t = CommTracker(3)
        t.allgather(np.array([10, 20, 30]))
        stats = t.sync()
        np.testing.assert_array_equal(stats.sent, [20, 40, 60])
        # everyone receives everyone else's share
        np.testing.assert_array_equal(stats.received, [50, 40, 30])

    def test_allgather_size_check(self):
        t = CommTracker(3)
        with pytest.raises(InvalidValue):
            t.allgather(np.array([1, 2]))

    def test_allreduce_scalar(self):
        t = CommTracker(4)
        t.allreduce_scalar()
        stats = t.sync()
        assert stats.sent[0] == 24  # 8 bytes to 3 peers


# --- the per-message loops the closed forms replace (the oracle) ----------

def _loop_allgather(t, sizes, label):
    for src in range(t.nprocs):
        for dst in range(t.nprocs):
            t.send(src, dst, int(sizes[src]), label=label)


def _loop_allreduce_scalar(t, nbytes, label):
    _loop_allgather(t, [nbytes] * t.nprocs, label)


def _loop_broadcast(t, root, nbytes, label):
    for dst in range(t.nprocs):
        t.send(root, dst, nbytes, label=label)


def _loop_send_many(t, src, dst, nbytes, label):
    for s, d, b in zip(src, dst, nbytes):
        t.send(s, d, b, label=label)


def _ledger(t, label):
    """Everything a closed superstep leaves behind, value types included."""
    stats = t.sync(label=label)
    return (stats.sent.tolist(), stats.received.tolist(), stats.sent.dtype,
            stats.received.dtype, stats.messages, type(stats.messages),
            [(k, v, type(v)) for k, v in t.label_bytes.items()],
            dict(t.label_syncs))


def _same_ledger(fast, loop, p, label):
    a, b = CommTracker(p), CommTracker(p)
    fast(a)
    loop(b)
    assert _ledger(a, label) == _ledger(b, label)


_procs = st.integers(1, 40)
_label = st.sampled_from([None, "x"])
# shares with plenty of zeros; the flag zeroes a case entirely
_share = st.one_of(st.just(0), st.integers(1, 10_000))


@st.composite
def _shares(draw):
    p = draw(_procs)
    sizes = draw(st.lists(_share, min_size=p, max_size=p))
    if draw(st.booleans()) and draw(st.booleans()):
        sizes = [0] * p
    return p, sizes


@st.composite
def _batches(draw):
    p = draw(_procs)
    rank = st.integers(0, p - 1)
    n = draw(st.integers(0, 3 * p))
    return (p, draw(st.lists(rank, min_size=n, max_size=n)),
            draw(st.lists(rank, min_size=n, max_size=n)),
            draw(st.lists(_share, min_size=n, max_size=n)))


class TestClosedFormsMatchPerMessageLoop:
    """The closed-form collectives and ``send_many`` leave exactly the
    ledger a ``send`` per ordered pair would."""

    @settings(max_examples=60, deadline=None)
    @given(_shares(), _label)
    def test_allgather(self, case, label):
        p, sizes = case
        _same_ledger(lambda t: t.allgather(np.array(sizes), label=label),
                     lambda t: _loop_allgather(t, sizes, label), p, label)

    @settings(max_examples=40, deadline=None)
    @given(_procs, st.integers(0, 64), _label)
    def test_allreduce_scalar(self, p, nbytes, label):
        _same_ledger(lambda t: t.allreduce_scalar(nbytes, label=label),
                     lambda t: _loop_allreduce_scalar(t, nbytes, label),
                     p, label)

    @settings(max_examples=40, deadline=None)
    @given(_procs, st.data(), _share, _label)
    def test_broadcast(self, p, data, nbytes, label):
        root = data.draw(st.integers(0, p - 1))
        _same_ledger(lambda t: t.broadcast(root, nbytes, label=label),
                     lambda t: _loop_broadcast(t, root, nbytes, label),
                     p, label)

    @settings(max_examples=60, deadline=None)
    @given(_batches(), _label)
    def test_send_many(self, case, label):
        p, src, dst, nbytes = case
        _same_ledger(
            lambda t: t.send_many(np.array(src, dtype=np.int64),
                                  np.array(dst, dtype=np.int64),
                                  np.array(nbytes, dtype=np.int64),
                                  label=label),
            lambda t: _loop_send_many(t, src, dst, nbytes, label), p, label)

    def test_send_many_broadcasts_scalars(self):
        p = 5
        _same_ledger(lambda t: t.send_many(np.arange(p), 0, 16, label="g"),
                     lambda t: _loop_send_many(t, range(p), [0] * p,
                                               [16] * p, "g"), p, "g")

    def test_pair_batch_round_trip(self):
        pairs = {(0, 1): 8, (2, 0): 24, (1, 2): 16}
        src, dst, nbytes = pair_batch(pairs)
        assert {(s, d): b for s, d, b in zip(src.tolist(), dst.tolist(),
                                             nbytes.tolist())} == pairs
        assert all(a.size == 0 for a in pair_batch({}))


class TestRejectedBatchLeavesLedger:
    """A bad collective or batch raises before any counter moves."""

    def _pending(self):
        t = CommTracker(4)
        t.send(0, 1, 5, label="x")
        return t

    @pytest.mark.parametrize("bad", [
        lambda t: t.send_many([0, 1], [1, 4], [8, 8], label="x"),
        lambda t: t.send_many([0, -1], [1, 2], [8, 8], label="x"),
        lambda t: t.send_many([0, 1], [1, 2], [8, -8], label="x"),
        lambda t: t.allgather([8, 8, 8], label="x"),
        lambda t: t.allgather([8, 8, -1, 8], label="x"),
        lambda t: t.allreduce_scalar(-8, label="x"),
        lambda t: t.broadcast(4, 8, label="x"),
        lambda t: t.broadcast(1, -8, label="x"),
    ])
    def test_raises_and_keeps_pending(self, bad):
        t = self._pending()
        with pytest.raises(InvalidValue):
            bad(t)
        assert _ledger(t, "x") == _ledger(self._pending(), "x")


class TestSupersteps:
    def test_h_relation(self):
        t = CommTracker(3)
        t.send(0, 1, 100)
        t.send(2, 1, 50)
        stats = t.sync()
        # node 1 receives 150 — that's the h
        assert stats.h == 150

    def test_sync_resets(self):
        t = CommTracker(2)
        t.send(0, 1, 10)
        t.sync()
        stats2 = t.sync()
        assert stats2.total_bytes == 0 and stats2.index == 1

    def test_label_accounting(self):
        t = CommTracker(2)
        t.send(0, 1, 10, label="halo")
        t.sync(label="halo")
        t.send(0, 1, 20, label="spmv")
        t.sync(label="spmv")
        assert t.label_bytes == {"halo": 10, "spmv": 20}
        assert t.label_syncs == {"halo": 1, "spmv": 1}

    def test_totals(self):
        t = CommTracker(2)
        t.send(0, 1, 10)
        t.sync()
        t.send(1, 0, 30)
        t.sync()
        assert t.total_bytes == 40
        assert t.num_syncs == 2
        assert t.total_h == 40
        assert t.max_send_per_node() == 30

    def test_empty_tracker(self):
        t = CommTracker(2)
        assert t.max_send_per_node() == 0
        assert t.total_h == 0


class TestSplitPhase:
    def test_post_wait_equals_sync(self):
        """wait(post()) with no overlap is an eager superstep."""
        t = CommTracker(3)
        t.send(0, 1, 100)
        h = t.post(label="halo")
        stats = t.wait(h)
        assert stats.h == 100 and stats.label == "halo"
        assert stats.posted and stats.overlapped_work == 0.0
        assert t.label_syncs == {"halo": 1}

    def test_sends_after_post_belong_to_next_superstep(self):
        t = CommTracker(2)
        t.send(0, 1, 10)
        h = t.post()
        t.send(0, 1, 99)          # lands in the *next* exchange
        assert t.wait(h).total_bytes == 10
        assert t.sync().total_bytes == 99

    def test_overlap_tagging_accumulates(self):
        t = CommTracker(2)
        t.send(0, 1, 10)
        h = t.post()
        h.overlap(100.0).overlap(50.0)
        assert t.wait(h).overlapped_work == 150.0

    def test_wait_fifo_default(self):
        t = CommTracker(2)
        t.send(0, 1, 1)
        first = t.post(label="a")
        t.send(0, 1, 2)
        t.post(label="b")
        stats = t.wait()          # FIFO: the "a" exchange
        assert stats.label == "a" and stats.total_bytes == 1
        assert first.closed and t.in_flight == 1
        t.wait()

    def test_wait_errors(self):
        t = CommTracker(2)
        with pytest.raises(InvalidValue):
            t.wait()              # nothing posted
        h = t.post()
        t.wait(h)
        with pytest.raises(InvalidValue):
            t.wait(h)             # double wait
        with pytest.raises(InvalidValue):
            h.overlap(10.0)       # overlap after wait
        other = CommTracker(2).post()
        with pytest.raises(InvalidValue):
            t.wait(other)         # foreign handle

    def test_negative_overlap_rejected(self):
        t = CommTracker(2)
        h = t.post()
        with pytest.raises(InvalidValue):
            h.overlap(-1.0)
        t.wait(h)

    def test_total_overlapped_work(self):
        t = CommTracker(2)
        t.send(0, 1, 10)
        t.wait(t.post().overlap(64.0))
        t.sync()
        assert t.total_overlapped_work == 64.0


class TestResetAndContext:
    def test_reset_forgets_everything(self):
        t = CommTracker(2)
        t.send(0, 1, 10, label="x")
        t.sync(label="x")
        t.send(0, 1, 20)
        t.post()
        t.reset()
        assert t.num_syncs == 0 and t.total_bytes == 0
        assert t.label_bytes == {} and t.label_syncs == {}
        assert t.in_flight == 0
        assert t.sync().total_bytes == 0   # pending sends cleared too

    def test_context_manager_clean_exit(self):
        with CommTracker(2) as t:
            t.send(0, 1, 10)
            t.wait(t.post())
        assert t.num_syncs == 1

    def test_context_manager_flags_leaked_exchange(self):
        with pytest.raises(InvalidValue):
            with CommTracker(2) as t:
                t.send(0, 1, 10)
                t.post()          # never waited: a simulated deadlock

    def test_context_manager_does_not_mask_errors(self):
        with pytest.raises(RuntimeError):
            with CommTracker(2) as t:
                t.post()
                raise RuntimeError("boom")


class TestResolveCommMode:
    def test_explicit_wins(self, monkeypatch):
        from repro.dist.comm import resolve_comm_mode
        monkeypatch.setenv("REPRO_OVERLAP", "1")
        assert resolve_comm_mode("eager") == "eager"

    def test_env_force(self, monkeypatch):
        from repro.dist.comm import resolve_comm_mode
        for raw, expect in (("1", "overlap"), ("on", "overlap"),
                            ("overlap", "overlap"), ("0", "eager"),
                            ("", "eager"), ("eager", "eager")):
            monkeypatch.setenv("REPRO_OVERLAP", raw)
            assert resolve_comm_mode() == expect

    def test_default_eager(self, monkeypatch):
        from repro.dist.comm import resolve_comm_mode
        monkeypatch.delenv("REPRO_OVERLAP", raising=False)
        assert resolve_comm_mode() == "eager"

    def test_garbage_rejected(self, monkeypatch):
        from repro.dist.comm import resolve_comm_mode
        monkeypatch.setenv("REPRO_OVERLAP", "sometimes")
        with pytest.raises(InvalidValue):
            resolve_comm_mode()
        with pytest.raises(InvalidValue):
            resolve_comm_mode("async")

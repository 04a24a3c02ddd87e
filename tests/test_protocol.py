import random
import statistics
import tracemalloc
from collections import deque

import pytest

import ccr.protocol
from ccr import OpId, replica_type
from ccr.core import ApplyError, IntentError, TransformResult
from ccr.protocol import (
    HOLD_LIMIT,
    Full,
    Hello,
    HistoryView,
    Increment,
    PeerCursor,
    ProtocolError,
    ResyncReq,
    SiteFaulted,
    SiteState,
    SiteStats,
    _runs,
    quiescent,
)
from ccr.replicas.text import TextState
from ccr.sim import random_update
from support import VerifiedSite, count_applies


def mesh(kind, n, verify=False):
    rt = replica_type(kind)
    site = VerifiedSite if verify else SiteState
    sites = {i: site(i, rt) for i in range(n)}
    for i in sites:
        for j in sites:
            if i != j:
                sites[i].connect_peer(j)
    return sites


def drain(sites, pending, budget=50_000):
    """Deliver until silence.  pending is a deque of (src, dst, msg)."""
    delivered = 0
    while pending:
        delivered += 1
        if delivered > budget:
            raise AssertionError("message storm: protocol did not settle")
        src, dst, msg = pending.popleft()
        for nxt, reply in sites[dst].handle_message(src, msg):
            pending.append((dst, nxt, reply))
    return delivered


def outbox(site_id, msgs):
    return deque((site_id, dst, m) for dst, m in msgs)


class TestTwoSites:
    def test_roundtrip_echo_then_silence(self):
        sites = mesh("counter", 2)
        a, b = sites[0], sites[1]
        out = a.local_update(("incr", 5))
        assert len(out) == 1 and out[0][0] == 1
        inc = out[0][1]
        assert inc.prefix_len == 0 and len(inc.ops) == 1

        echo = b.handle_message(0, inc)
        assert b.current == 5
        # b rebroadcasts its grown history once ...
        assert len(echo) == 1 and echo[0][0] == 0
        # ... and at a it cancels to identity: no further messages.
        assert a.handle_message(1, echo[0][1]) == []
        assert a.digest() == b.digest()
        assert quiescent(sites, 0)
        a.check_invariants()
        b.check_invariants()

    def test_concurrent_edits_converge(self):
        sites = mesh("text", 2)
        pending = deque()
        pending.extend(outbox(0, sites[0].local_update(("ins", 0, "abc"))))
        pending.extend(outbox(1, sites[1].local_update(("ins", 0, "XY"))))
        drain(sites, pending)
        assert sites[0].digest() == sites[1].digest()
        assert quiescent(sites, 0)

    def test_make_increment_none_when_caught_up(self):
        sites = mesh("counter", 2)
        assert sites[0].make_increment(1) is None
        sites[0].local_update(("incr", 1))
        assert sites[0].make_increment(1) is None  # already queued by the update

    def test_concurrent_counter_ops_wrap_to_one_value(self):
        # Each op is legal where it was made; together they pass 2**63 - 1,
        # and every site wraps to the same value instead of faulting.
        sites = mesh("counter", 2)
        pending = deque()
        pending.extend(outbox(0, sites[0].local_update(("incr", 2**63 - 1))))
        pending.extend(outbox(1, sites[1].local_update(("incr", 1))))
        drain(sites, pending)
        assert sites[0].current == sites[1].current == -(2**63)
        assert sites[0].faulted is None and sites[1].faulted is None
        assert quiescent(sites, 0)

    def test_quiescent_false_with_undelivered(self):
        sites = mesh("counter", 2)
        sites[0].local_update(("incr", 1))
        assert not quiescent(sites, 0)
        assert not quiescent(sites, 1)


class TestRecovery:
    def test_duplicate_increment_dropped_by_position(self):
        sites = mesh("counter", 2)
        a, b = sites[0], sites[1]
        inc = a.local_update(("incr", 7))[0][1]
        b.handle_message(0, inc)

        # The duplicate's ops are what the cursor already holds at its
        # position: nothing is new and nothing needs resyncing.
        assert b.handle_message(0, inc) == []
        assert b.current == 7
        assert b.peers[0].recv_len == 1

    def test_restarted_peer_stream_starts_over_at_the_hello(self):
        sites = mesh("counter", 2)
        a, b = sites[0], sites[1]
        drain(sites, outbox(0, a.local_update(("incr", 7))))
        assert a.peers[1].recv_len == len(b.history) == 1

        # b restarts; its new stream starts over at a position a's cursor
        # has passed.  The Hello (here: connect_peer, naming no incarnation)
        # resets a's cursor, so the new stream is read from position 0 and
        # nothing needs a resync.
        b2 = SiteState(1, b.rt)
        sites[1] = b2
        b2.connect_peer(0)
        a.connect_peer(1, known_len=0)
        assert a.peers[1].recv_len == 0 and a.peers[1].remainder == list(a.history)
        inc = b2.local_update(("incr", 2))[0][1]
        assert inc.prefix_len == 0
        pending = deque([(1, 0, inc)])
        pending.extend(outbox(1, b2.request_resync(0)))  # the dialer's request
        drain(sites, pending)
        assert a.current == b2.current == 9
        assert a.peers[1].recv_len == len(b2.history)
        assert a.stats.resync_reqs == 0 and a.stats.stale_dropped == 0
        assert quiescent(sites, 0)

    def test_reordered_increments_recover(self):
        sites = mesh("counter", 2)
        a, b = sites[0], sites[1]
        first = a.local_update(("incr", 1))[0][1]
        second = a.local_update(("incr", 2))[0][1]
        assert (first.prefix_len, second.prefix_len) == (0, 1)

        assert b.handle_message(0, second) == []  # gap: arrives first, is held
        assert b.peers[0].held == {1: second.ops}
        drain(sites, deque([(0, 1, first)]))
        assert b.current == 3
        assert a.digest() == b.digest()
        assert not b.peers[0].held and b.stats.resync_reqs == 0
        assert quiescent(sites, 0)

    def test_restarted_site_numbers_from_a_fresh_base(self):
        sites = mesh("counter", 2)
        a, b = sites[0], sites[1]
        pending = deque(outbox(0, a.local_update(("incr", 4))))
        pending.extend(outbox(0, a.local_update(("incr", 6))))
        drain(sites, pending)
        old = set(a.uids)

        a2 = SiteState(0, a.rt)  # crash: history and seq counter lost
        a2.next_seq = 2**40  # a fresh base, as the agent draws one
        sites[0] = a2
        a2.connect_peer(1)
        b.connect_peer(0, known_len=0)
        replies = b.handle_message(0, Hello(site=0, kind="counter", known_len=0))
        assert replies == []
        # Dial flow: the restarted side asks for everything.  b's cursor was
        # reset at the Hello, so the recovered ops that echo back on the new
        # stream are read from position 0 and cancel.
        full = b.handle_message(0, ResyncReq())[0][1]
        pending = deque(outbox(0, a2.handle_message(1, full)))
        drain(sites, pending)
        assert quiescent(sites, 0)
        assert a2.current == 10
        assert a2.next_seq == 2**40  # old own ops came back and left it alone
        uid = a2.local_update(("incr", 1))[0][1].ops[0].uid
        assert uid == OpId(0, 2**40) and uid not in old

    def test_resent_op_faults_naming_its_uid(self):
        sites = mesh("counter", 2)
        a, b = sites[0], sites[1]
        inc = a.local_update(("incr", 1))[0][1]
        b.handle_message(0, inc)
        # The stream position is right, but the op is already integrated.
        again = Increment(kind="counter", sender=0, prefix_len=1, ops=inc.ops)
        with pytest.raises(SiteFaulted, match=r"duplicate uids.*\(0,1\)"):
            b.handle_message(0, again)
        assert b.faulted is not None

    def test_full_from_restarted_peer_integrates_from_position_zero(self):
        sites = mesh("counter", 2)
        a, b = sites[0], sites[1]
        pending = deque(outbox(0, a.local_update(("incr", 4))))
        drain(sites, pending)

        b2 = SiteState(1, b.rt)
        sites[1] = b2
        b2.connect_peer(0)
        a.connect_peer(1, known_len=0)
        assert a.peers[1].recv_len == 0
        pending = deque(outbox(1, b2.local_update(("incr", 2))))
        # Each side asks the other for its whole history.
        pending.extend([(1, 0, ResyncReq()), (0, 1, ResyncReq())])
        drain(sites, pending)
        assert a.current == b2.current == 6
        assert b2.stats.fulls_served == 1
        assert a.peers[1].recv_len == len(b2.history)
        assert quiescent(sites, 0)


class TestStreamPosition:
    """Every peer message is a piece of the peer's stream, known by its
    position; only a gap left open once the link has drained or a full hold
    resyncs, and one request at a time."""

    def test_overlapping_increment_integrates_its_tail(self, monkeypatch):
        sites = mesh("counter", 2, verify=True)
        a, b = sites[0], sites[1]
        first = a.local_update(("incr", 1))[0][1]
        a.local_update(("incr", 2))  # its increment is lost
        b.handle_message(0, first)
        overlapping = Increment(kind="counter", sender=0, prefix_len=0, ops=a.history)
        calls = count_applies(monkeypatch)
        echo = b.handle_message(0, overlapping)
        assert calls[0] == 1  # the tail's one op, at commit
        assert b.current == 3
        assert b.peers[0].recv_len == len(a.history) == 2
        assert [type(m) for _, m in echo] == [Increment]
        assert b.stats.resync_reqs == 0

    def test_two_gaps_send_one_request(self):
        sites = mesh("counter", 2)
        a, b = sites[0], sites[1]
        first, second, third = (a.local_update(("incr", n))[0][1] for n in (1, 2, 4))
        assert b.handle_message(0, second) == []
        assert b.handle_message(0, third) == []
        assert b.link_drained(0) == [(0, ResyncReq())]
        assert b.link_drained(0) == []
        assert b.peers[0].resync_pending
        assert b.stats.resync_reqs == 1
        drain(sites, deque([(1, 0, ResyncReq()), (0, 1, first)]))
        assert a.current == b.current == 7
        assert not b.peers[0].resync_pending
        assert quiescent(sites, 0)

    def test_piece_past_the_full_lands_from_the_hold(self):
        sites = mesh("counter", 2)
        a, b = sites[0], sites[1]
        first = a.local_update(("incr", 1))[0][1]
        second = a.local_update(("incr", 2))[0][1]
        assert b.handle_message(0, second) == []
        req = b.link_drained(0)
        full = a.handle_message(1, req[0][1])[0][1]
        # Sent after a cut the Full, arrives before it.
        third = a.local_update(("incr", 4))[0][1]
        assert b.handle_message(0, third) == []
        assert sorted(b.peers[0].held) == [1, 2]

        out = b.handle_message(0, full)
        assert b.peers[0].recv_len == 3
        assert not b.peers[0].held
        assert b.link_drained(0) == []
        pending = deque((1, dst, m) for dst, m in out)
        pending.append((0, 1, first))
        drain(sites, pending)
        assert a.current == b.current == 7
        assert b.stats.resync_reqs == 1
        assert quiescent(sites, 0)

    def test_gap_past_the_full_is_asked_for_again(self):
        sites = mesh("counter", 2)
        a, b = sites[0], sites[1]
        a.local_update(("incr", 1))  # lost
        second = a.local_update(("incr", 2))[0][1]
        assert b.handle_message(0, second) == []
        [(_, req)] = b.link_drained(0)
        full = a.handle_message(1, req)[0][1]
        a.local_update(("incr", 4))  # lost, sent after a cut the Full
        fourth = a.local_update(("incr", 8))[0][1]
        assert b.handle_message(0, fourth) == []
        assert b.link_drained(0) == []  # the request is still out

        out = b.handle_message(0, full)
        assert b.peers[0].recv_len == 2 and list(b.peers[0].held) == [3]
        out += b.link_drained(0)
        assert out.count((0, ResyncReq())) == 1
        drain(sites, deque((1, dst, m) for dst, m in out))
        assert a.current == b.current == 15
        assert b.stats.resync_reqs == 2
        assert not b.peers[0].held
        assert quiescent(sites, 0)

    def test_connect_peer_clears_pending_request(self):
        sites = mesh("counter", 2)
        a, b = sites[0], sites[1]
        a.local_update(("incr", 1))
        gap = a.local_update(("incr", 2))[0][1]
        assert b.handle_message(0, gap) == []
        assert b.link_drained(0) == [(0, ResyncReq())]
        assert b.handle_message(0, gap) == []
        assert b.link_drained(0) == []
        assert b.peers[0].held == {1: gap.ops}
        b.connect_peer(0)  # the link dropped with the request in flight
        assert not b.peers[0].resync_pending
        assert not b.peers[0].held
        assert b.link_drained(0) == []
        assert b.handle_message(0, gap) == []
        assert b.link_drained(0) == [(0, ResyncReq())]

    def test_new_incarnation_drops_the_old_held_pieces(self):
        sites = mesh("counter", 2)
        a, b = sites[0], sites[1]
        a.local_update(("incr", 1))  # lost with the old incarnation
        second = a.local_update(("incr", 2))[0][1]
        third = a.local_update(("incr", 4))[0][1]
        assert b.handle_message(0, second) == []
        assert b.handle_message(0, third) == []
        assert b.link_drained(0) == [(0, ResyncReq())]

        # a restarts before the request reaches it, and the request goes
        # with the old link.  The new incarnation's whole history is
        # shorter than what b saw of the old one; its Hello resets b's
        # cursor and drops the old incarnation's held pieces, which would
        # otherwise continue the new stream at their positions.
        a2 = SiteState(0, a.rt)
        sites[0] = a2
        assert b.handle_message(0, Hello(site=0, kind="counter", known_len=0, incarnation=2)) == []
        a2.handle_message(1, Hello(site=1, kind="counter", known_len=0, incarnation=1))
        assert not b.peers[0].held and not b.peers[0].resync_pending
        drain(sites, outbox(0, a2.local_update(("incr", 5))))
        assert a2.current == b.current == 5
        assert b.stats.resync_reqs == 1
        assert a2.stats.fulls_served == 0
        assert quiescent(sites, 0)

    def test_stats_count_one_duplicate_and_one_gap(self):
        sites = mesh("counter", 2)
        a, b = sites[0], sites[1]
        first = a.local_update(("incr", 1))[0][1]
        drain(sites, deque([(0, 1, first), (0, 1, first)]))  # a duplicate
        second = a.local_update(("incr", 2))[0][1]
        third = a.local_update(("incr", 4))[0][1]
        drain(sites, deque([(0, 1, third), (0, 1, second)]))  # a gap, filled
        assert a.current == b.current == 7
        assert quiescent(sites, 0)
        assert b.stats == SiteStats(resync_reqs=0, fulls_served=0, stale_dropped=1)
        assert a.stats == SiteStats(resync_reqs=0, fulls_served=0, stale_dropped=0)


class TestHold:
    """A piece past the cursor waits in the hold until the cursor reaches
    it; it costs no message unless the link drains with the gap open."""

    def test_duplicate_of_a_held_runs_first_piece_keeps_the_run(self):
        sites = mesh("counter", 2)
        a, b = sites[0], sites[1]
        first, second, third, fourth = (a.local_update(("incr", n))[0][1] for n in (1, 2, 4, 8))
        run = Increment(kind="counter", sender=0, prefix_len=1, ops=a.history[1:])
        for piece in (run, second):  # a shorter piece at the same start
            assert b.handle_message(0, piece) == []
        assert b.peers[0].held == {1: run.ops}
        drain(sites, deque([(0, 1, first)]))
        assert a.current == b.current == 15
        assert not b.peers[0].held and b.link_drained(0) == []
        assert b.stats.resync_reqs == 0
        assert quiescent(sites, 0)

    def test_piece_past_a_full_hold_asks_at_once(self):
        sites = mesh("counter", 2)
        a, b = sites[0], sites[1]
        a.local_update(("incr", 1))  # lost
        pieces = [a.local_update(("incr", 1))[0][1] for _ in range(HOLD_LIMIT + 1)]
        for piece in pieces[:HOLD_LIMIT]:
            assert b.handle_message(0, piece) == []
        assert b.handle_message(0, pieces[-1]) == [(0, ResyncReq())]
        assert len(b.peers[0].held) == HOLD_LIMIT
        drain(sites, deque([(1, 0, ResyncReq())]))
        assert a.current == b.current == HOLD_LIMIT + 2
        assert not b.peers[0].held and b.stats.resync_reqs == 1
        assert quiescent(sites, 0)

    def test_full_hold_keeps_the_piece_that_reaches_furthest(self):
        sites = mesh("counter", 2)
        a, b = sites[0], sites[1]
        a.local_update(("incr", 1))  # lost
        for _ in range(HOLD_LIMIT):
            assert b.handle_message(0, a.local_update(("incr", 1))[0][1]) == []
        [(_, req)] = b.link_drained(0)
        [(_, full)] = a.handle_message(1, req)
        # Sent after a cut the Full, arrives before it, with the hold full
        # and the request out: it has to outlast the Full.
        late = a.local_update(("incr", 1))[0][1]
        assert b.handle_message(0, late) == []
        out = b.handle_message(0, full)
        assert b.peers[0].recv_len == HOLD_LIMIT + 2
        assert not b.peers[0].held and b.link_drained(0) == []
        drain(sites, deque((1, dst, m) for dst, m in out))
        assert a.current == b.current == HOLD_LIMIT + 2
        assert quiescent(sites, 0)



class TestIncarnation:
    """A Hello naming the incarnation the cursor last saw keeps the cursor;
    any other Hello starts the peer's stream over at position 0."""

    def hello(self, site, incarnation, known_len=0, kind="counter"):
        return Hello(site=site, kind=kind, known_len=known_len, incarnation=incarnation)

    def test_same_incarnation_keeps_the_cursor(self, monkeypatch):
        sites = mesh("counter", 2)
        a, b = sites[0], sites[1]
        b.handle_message(0, self.hello(0, 7))
        for n in (1, 2):
            drain(sites, outbox(0, a.local_update(("incr", n))))
        a.local_update(("incr", 4))  # lost with the link

        # b redials a: a's Hello names the incarnation b's cursor saw, so the
        # Full that answers b's request integrates only its tail.
        b.handle_message(0, self.hello(0, 7, known_len=a.peers[1].recv_len))
        assert b.peers[0].recv_len == 2
        [(_, req)] = b.request_resync(0)
        [(_, full)] = a.handle_message(1, req)
        assert len(full.ops) == 3
        calls = count_applies(monkeypatch)
        drain(sites, outbox(1, b.handle_message(0, full)))
        assert calls[0] == 1  # the tail's one op, at commit
        assert a.current == b.current == 7
        assert b.peers[0].recv_len == 3
        assert quiescent(sites, 0)

    @pytest.mark.parametrize("incarnation", [8, None], ids=["new", "absent"])
    def test_other_incarnation_resets_the_cursor(self, incarnation):
        sites = mesh("counter", 2)
        a, b = sites[0], sites[1]
        b.handle_message(0, self.hello(0, 7))
        drain(sites, outbox(0, a.local_update(("incr", 1))))
        a.local_update(("incr", 2))  # lost
        gap = a.local_update(("incr", 4))[0][1]
        assert b.handle_message(0, gap) == []
        assert b.link_drained(0) == [(0, ResyncReq())]

        b.handle_message(0, self.hello(0, incarnation))
        cur = b.peers[0]
        assert (cur.recv_len, cur.incarnation) == (0, incarnation)
        assert cur.remainder == list(b.history)
        assert not cur.held and not cur.resync_pending
        # Read from position 0, the stream's whole history cancels what b
        # already holds and adds the rest.
        [(_, full)] = a.handle_message(1, ResyncReq())
        drain(sites, outbox(1, b.handle_message(0, full)))
        assert a.current == b.current == 7
        assert b.peers[0].recv_len == 3
        assert quiescent(sites, 0)

    @pytest.mark.parametrize("kind", ["counter", "text"])
    def test_verify_agrees_across_a_reset(self, kind):
        rng = random.Random(f"reset-{kind}")
        sites = mesh(kind, 2, verify=True)
        a, b = sites[0], sites[1]
        def edit(site):
            return outbox(site.site, random_update(site, rng)[1])

        a.handle_message(1, self.hello(1, 1, kind=kind))
        for _ in range(3):
            drain(sites, edit(a) + edit(b))
        assert len(a.recv_ops[1]) == a.peers[1].recv_len > 0
        assert edit(b)  # lost with b
        b2 = VerifiedSite(1, b.rt)
        b2.next_seq = 2**40  # a fresh base, as the agent draws one
        sites[1] = b2
        # b2 dials a: Hellos both ways, then its request.
        a.handle_message(1, self.hello(1, 2, kind=kind))
        b2.handle_message(0, self.hello(0, 5, a.peers[1].recv_len, kind))
        assert a.recv_ops[1] == [] and a.peers[1].recv_len == 0
        pending = outbox(1, b2.request_resync(0))
        pending.extend(edit(a))
        drain(sites, pending)
        drain(sites, edit(b2) + edit(a))
        assert a.digest() == b2.digest()
        assert a.recv_ops[1] == list(b2.history)
        assert quiescent(sites, 0)
        for s in sites.values():
            s.check_invariants()

    def test_cursor_has_no_slot_for_the_peers_ops(self):
        # Of the peer's stream a cursor keeps only its length; the ops
        # themselves are the reference check's, kept by VerifiedSite.
        sites = mesh("counter", 2)
        for n in range(20):
            drain(sites, outbox(n % 2, sites[n % 2].local_update(("incr", n + 1))))
        assert all(s.peers[1 - i].recv_len == 20 for i, s in sites.items())
        assert PeerCursor.__slots__ == ("sent_len", "recv_len", "incarnation",
                                        "remainder", "held", "resync_pending")
        assert not hasattr(sites[0].peers[1], "__dict__")


class TestCommitCheck:
    """No state of a peer's is kept, so its ops are checked once, where
    their rewritten forms are applied to ``current`` at commit."""

    def test_received_op_is_applied_once(self, monkeypatch):
        sites = mesh("counter", 2)
        inc = sites[1].local_update(("incr", 3))[0][1]
        calls = count_applies(monkeypatch)
        sites[0].handle_message(1, inc)
        assert calls[0] == 1
        assert sites[0].current == 3

    @pytest.mark.parametrize("concurrent", [False, True], ids=["alone", "concurrent"])
    @pytest.mark.parametrize("body", [("Del", 2, 5), ("Ins", 9, "x")], ids=["del", "ins"])
    def test_op_out_of_range_in_peer_frame_faults(self, body, concurrent):
        rt = replica_type("text")
        sites = mesh("text", 2)
        a, b = sites[0], sites[1]
        drain(sites, outbox(1, b.local_update(("ins", 0, "abc"))))
        if concurrent:
            a.local_update(("ins", 0, "xy"))  # never delivered
        # Out of range on "abc", the peer's own frame.
        bad = rt.op(OpId(1, 2), *body)
        inc = Increment(kind="text", sender=1, prefix_len=a.peers[1].recv_len, ops=(bad,))
        with pytest.raises(SiteFaulted, match=r"out of range.*\(uid=\(1,2\)\)"):
            a.handle_message(1, inc)
        assert a.faulted is not None
        with pytest.raises(SiteFaulted, match="previously faulted"):
            a.local_update(("ins", 0, "z"))

    @pytest.mark.parametrize("kind, intent, body", [
        ("text", ("ins", 0, "ab"), ("Ins", 2, "d")),
        ("queue", ("enq", "a"), ("EnqAt", 2, "z")),
        ("eset", ("add", "x"), ("Rem", "x")),  # fails in the sweep
        ("map<text>", ("upd", "k", ("ins", 0, "ab")), ("Upd", "k", ("Ins", 5, "q"))),
        ("counter", ("incr", 1), None),  # a new op under a uid the history holds
    ], ids=["text", "queue", "eset", "map-text", "reused-uid"])
    def test_a_failing_piece_commits_nothing(self, kind, intent, body):
        rt = replica_type(kind)
        a = SiteState(0, rt)
        a.connect_peer(1)
        [(_, inc)] = a.local_update(intent)
        if body is None:
            a.handle_message(1, Increment(kind, 1, 0, inc.ops))  # the echo
            piece = Increment(kind, 1, 1, (rt.op(OpId(0, 1), "Incr", 7),))
        else:  # impossible in the peer's frame, which is empty
            piece = Increment(kind, 1, 0, (rt.op(OpId(1, 1), *body),))

        def snapshot():
            return (tuple(a.history), a.current,
                    {p: (c.recv_len, tuple(c.remainder), c.sent_len)
                     for p, c in a.peers.items()})

        before = snapshot()
        with pytest.raises(SiteFaulted):
            a.handle_message(1, piece)
        assert snapshot() == before
        a.check_invariants()


class TestChain:
    def test_three_site_relay(self):
        rt = replica_type("eset")
        sites = {i: SiteState(i, rt) for i in range(3)}
        for i, j in ((0, 1), (1, 2)):
            sites[i].connect_peer(j)
            sites[j].connect_peer(i)
        pending = deque(outbox(0, sites[0].local_update(("add", "x"))))
        pending.extend(outbox(2, sites[2].local_update(("add", "y"))))
        drain(sites, pending)
        digests = {s.digest() for s in sites.values()}
        assert digests == {'["x","y"]'}
        assert quiescent(sites, 0)


class TestGuards:
    def test_hello_registers_peer(self):
        sites = mesh("counter", 1)
        a = sites[0]
        assert a.handle_message(1, Hello(site=1, kind="counter", known_len=0)) == []
        assert 1 in a.peers

    def test_hello_kind_mismatch(self):
        a = SiteState(0, replica_type("counter"))
        with pytest.raises(ProtocolError):
            a.handle_message(1, Hello(site=1, kind="text", known_len=0))

    def test_hello_site_collision(self):
        a = SiteState(0, replica_type("counter"))
        with pytest.raises(ProtocolError):
            a.handle_message(0, Hello(site=0, kind="counter", known_len=0))

    def test_hello_for_another_site_is_refused(self):
        # A Hello resets the cursor of the site it names: one sent on site
        # 1's link must not make site 0 read site 2's stream from 0 again.
        sites = mesh("counter", 3)
        a = sites[0]
        for n in (1, 2, 3):
            drain(sites, outbox(2, sites[2].local_update(("incr", n))))
        assert a.peers[2].recv_len == 3
        with pytest.raises(ProtocolError, match="Hello for site 2"):
            a.handle_message(1, Hello(site=2, kind="counter", known_len=0, incarnation=999))
        assert a.peers[2].recv_len == 3
        drain(sites, outbox(2, sites[2].local_update(("incr", 4))))
        assert a.current == 10 and not a.peers[2].held and a.stats.resync_reqs == 0

    def test_message_before_hello(self):
        a = SiteState(0, replica_type("counter"))
        inc = Increment(kind="counter", sender=1, prefix_len=0, ops=())
        with pytest.raises(ProtocolError):
            a.handle_message(1, inc)

    def test_increment_kind_mismatch(self):
        a = SiteState(0, replica_type("counter"))
        a.connect_peer(1)
        inc = Increment(kind="text", sender=1, prefix_len=0, ops=())
        with pytest.raises(ProtocolError):
            a.handle_message(1, inc)

    def test_fault_is_sticky(self):
        rt = replica_type("eset")
        b = SiteState(1, rt)
        b.local_update(("add", "x"))
        assert (b.history[0].uid, b.next_seq, b.current) == (OpId(1, 1), 2, frozenset({"x"}))
        b.connect_peer(0)
        # A remove of an element the sender cannot have seen: no legal
        # history produces this pair, integration must refuse loudly.
        rem = rt.op(OpId(0, 1), "Rem", "x")
        inc = Increment(kind="eset", sender=0, prefix_len=0, ops=(rem,))
        with pytest.raises(SiteFaulted):
            b.handle_message(0, inc)
        assert b.faulted is not None
        with pytest.raises(SiteFaulted):
            b.local_update(("add", "y"))

    def test_reused_uid_faults_and_changes_nothing(self):
        a = SiteState(0, replica_type("counter"))
        a.local_update(("incr", 3))
        a.next_seq = 1
        with pytest.raises(SiteFaulted, match=r"duplicate uids.*\(0,1\)"):
            a.local_update(("incr", 4))
        assert a.faulted is not None
        assert (a.next_seq, len(a.history), a.current) == (1, 1, 3)
        with pytest.raises(SiteFaulted, match="previously faulted"):
            a.local_update(("incr", 4))


class TestRefusedLocalOp:
    """A local op that cannot take effect leaves the site as it was."""

    @pytest.mark.parametrize("first,second", [
        (("incr", 2**63 - 1), ("incr", 1)),
        (("decr", 2**63 - 1), ("decr", 2)),
    ])
    def test_counter_overflow_is_an_intent_error(self, first, second):
        a = mesh("counter", 2)[0]
        a.local_update(first)
        before = (a.history, a.next_seq, a.current)
        with pytest.raises(IntentError, match="overflow"):
            a.local_update(second)
        assert (a.history, a.next_seq, a.current) == before
        assert a.faulted is None and not a.deferred(1)
        a.check_invariants()

    def test_op_that_does_not_apply_changes_nothing(self, monkeypatch):
        a = mesh("counter", 2)[0]
        a.local_update(("incr", 1))

        def refuse(self, state, op):
            raise ApplyError("refused")

        monkeypatch.setattr(type(a.rt), "apply", refuse)
        with pytest.raises(ApplyError):
            a.local_update(("incr", 1))
        monkeypatch.undo()
        assert (len(a.history), a.next_seq, a.current) == (1, 2, 1)
        assert len(a.uids) == 1 and not a.deferred(1)
        a.check_invariants()


def ops_by_peer(replies):
    """The ops sent to each peer over all of ``replies``, in order."""
    sent = {}
    for peer, m in replies:
        sent.setdefault(peer, []).extend(m.ops)
    return sent


class TestCoalesce:
    """A peer's increments that continue each other merge into one run
    (``_runs``), which integrates like its pieces."""

    rt = replica_type("counter")

    def inc(self, prefix_len, *seqs):
        ops = tuple(self.rt.op(OpId(0, q), "Incr", 1) for q in seqs)
        return Increment(kind="counter", sender=0, prefix_len=prefix_len, ops=ops)

    def test_contiguous_increments_merge(self):
        merged = _runs([self.inc(0, 1), self.inc(1, 2, 3), self.inc(3, 4)])
        assert merged == [self.inc(0, 1, 2, 3, 4)]

    def test_gap_stays_split(self):
        msgs = [self.inc(0, 1), self.inc(2, 3), self.inc(3, 4)]
        assert _runs(msgs) == [self.inc(0, 1), self.inc(2, 3, 4)]

    @pytest.mark.parametrize("between", [ResyncReq(), Full(sender=0, ops=())])
    def test_other_message_blocks_merge(self, between):
        msgs = [self.inc(0, 1), between, self.inc(1, 2)]
        assert _runs(msgs) == msgs

    def test_unmerged_message_is_passed_on_as_it_is(self):
        msgs = [self.inc(0, 1), self.inc(2, 3)]
        assert all(got is sent for got, sent in zip(_runs(msgs), msgs))

    def test_merged_stream_integrates_like_its_pieces(self):
        a = SiteState(0, self.rt)
        a.connect_peer(1)
        pieces = [m for i in range(5) for m in a.local_update(("incr", i + 1))]
        assert len(pieces) == 5
        one_by_one, at_once = SiteState(1, self.rt), SiteState(1, self.rt)
        for b in (one_by_one, at_once):
            b.connect_peer(0)
        echoes = [m for _, inc in pieces for m in one_by_one.handle_message(0, inc)]
        whole = Increment(kind="counter", sender=0, prefix_len=0, ops=a.history[:])
        [(peer, echo)] = at_once.handle_message(0, whole)
        assert {peer: list(echo.ops)} == ops_by_peer(echoes)
        assert at_once.history == one_by_one.history
        assert at_once.current == one_by_one.current == 15

    def test_kinds_stay_split(self):
        other = Increment(kind="text", sender=0, prefix_len=1, ops=self.inc(1, 2).ops)
        msgs = [self.inc(0, 1), other, self.inc(2, 3)]
        assert _runs(msgs) == msgs

    @pytest.mark.parametrize("kind", ["counter", "text", "lww", "queue", "socialmedia"])
    def test_run_against_concurrent_ops_integrates_like_its_pieces(self, kind):
        """A receiver holding concurrent local ops (a non-empty remainder)
        and a third peer ends in the same state from the merged run as from
        its pieces, and sends each peer the ops the pieces did, in one
        increment."""
        rt = replica_type(kind)
        rng = random.Random(f"run-{kind}")
        a = SiteState(0, rt)
        a.connect_peer(1)
        pieces = []
        while len(pieces) < 8:
            _, out = random_update(a, rng) or (None, [])
            pieces += out

        def receiver():
            b = SiteState(1, rt)
            b.connect_peer(0)
            b.connect_peer(2)
            r = random.Random(f"concurrent-{kind}")
            while len(b.history) < 5:
                random_update(b, r)
            return b

        one_by_one, at_once = receiver(), receiver()
        assert all(cur.remainder for cur in one_by_one.peers.values())
        replies = [m for _, inc in pieces for m in one_by_one.handle_message(0, inc)]
        run = Increment(kind=rt.name, sender=0, prefix_len=0, ops=a.history[:])
        merged = at_once.handle_message(0, run)
        assert len(merged) == len(ops_by_peer(merged)) == 2
        assert ops_by_peer(merged) == ops_by_peer(replies)
        assert at_once.history == one_by_one.history
        assert at_once.current == one_by_one.current
        for peer, cur in one_by_one.peers.items():
            other = at_once.peers[peer]
            assert other.remainder == cur.remainder
            assert other.recv_len == cur.recv_len
        at_once.check_invariants()


class TestHandleBatch:
    rt = replica_type("counter")

    def sender(self, n):
        """Site 0 after n local increments, with the Increments it sent to 1."""
        a = SiteState(0, self.rt)
        a.connect_peer(1)
        return a, [m for i in range(n) for _, m in a.local_update(("incr", i + 1))]

    def receiver(self):
        b = SiteState(1, self.rt)
        b.connect_peer(0)
        b.connect_peer(2)
        return b

    @staticmethod
    def by_peer(replies):
        return sorted(replies, key=lambda pair: pair[0])

    @pytest.mark.parametrize("msg_kind", ["Increment", "ResyncReq", "Full"])
    def test_one_message_batch_is_handle_message(self, msg_kind):
        # The batch defers the echo to its sender; with that flushed it
        # sends what handle_message sends at once.
        a, incs = self.sender(3)
        msg = {"Increment": incs[0], "ResyncReq": ResyncReq(),
               "Full": Full(sender=0, ops=a.history)}[msg_kind]
        by_batch, by_message = self.receiver(), self.receiver()
        for b in (by_batch, by_message):
            b.local_update(("incr", 10))
        replies = by_batch.handle_batch(0, [msg]) + by_batch.flush(0)
        assert self.by_peer(replies) == self.by_peer(by_message.handle_message(0, msg))
        assert by_batch.history == by_message.history
        assert by_batch.stats == by_message.stats

    def test_run_of_a_hundred_integrates_and_sends_once(self, monkeypatch):
        # 100 one-op increments that continue each other: one sweep, one
        # increment to each other peer, and one echo of all 100 on flush.
        _, incs = self.sender(100)
        b = self.receiver()
        b.connect_peer(3)
        calls = [0]
        real = ccr.protocol.transform_patch

        def counting(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(ccr.protocol, "transform_patch", counting)
        out = b.handle_batch(0, incs)
        assert calls[0] == 1
        assert [(peer, type(m), m.prefix_len, len(m.ops)) for peer, m in out] == [
            (2, Increment, 0, 100), (3, Increment, 0, 100)]
        [(peer, echo)] = b.flush(0)
        assert (peer, type(echo), echo.prefix_len, len(echo.ops)) == (0, Increment, 0, 100)

    def test_one_full_per_batch_of_resync_requests(self):
        # The first request's Full covers the history; the others add
        # nothing, unless a Hello between them has reset the cursor.
        b = self.receiver()
        b.local_update(("incr", 1))
        [(peer, full)] = b.handle_batch(0, [ResyncReq()] * 3)
        assert (peer, type(full), tuple(full.ops)) == (0, Full, tuple(b.history))
        assert b.stats.fulls_served == 1
        out = b.handle_batch(0, [ResyncReq(), Hello(0, "counter", 0), ResyncReq()])
        assert [type(m) for _, m in out] == [Full, Full]
        assert b.stats.fulls_served == 3

    def test_kind_mismatch_mid_batch_keeps_earlier_commits(self):
        _, incs = self.sender(3)
        other = incs[2]._replace(kind="text")
        b, ref = self.receiver(), self.receiver()
        with pytest.raises(ProtocolError, match="kind mismatch"):
            b.handle_batch(0, [incs[0], incs[1], other, incs[2]])
        run = Increment(kind="counter", sender=0, prefix_len=0, ops=incs[0].ops + incs[1].ops)
        # The error sends nothing; flushing each peer sends the run and its echo.
        [(peer, relay)] = b.flush(2)
        assert peer == 2
        replies = [(peer, relay)] + b.flush(0)
        assert self.by_peer(replies) == self.by_peer(ref.handle_message(0, run))
        assert b.history == ref.history and b.current == 3
        assert b.peers[0].recv_len == 2


class TestDeferredEcho:
    """``handle_batch`` leaves unsent the echo of a peer's ops to that
    peer; the next increment to the peer carries it, and ``flush`` sends
    it only if none has."""

    def setup_method(self):
        self.sites = mesh("counter", 3)
        a = self.sites[0]
        self.incs = [m for i in range(2) for peer, m in a.local_update(("incr", i + 1))
                     if peer == 1]

    def test_batch_defers_only_the_echo(self):
        b = self.sites[1]
        out = b.handle_batch(0, self.incs)
        assert [(peer, [op.uid for op in m.ops]) for peer, m in out] == [
            (2, [OpId(0, 1), OpId(0, 2)])]
        assert b.deferred(0) and b.peers[0].sent_len == 0
        [(peer, echo)] = b.flush(0)
        assert peer == 0 and echo.prefix_len == 0 and len(echo.ops) == 2
        assert not b.deferred(0) and b.flush(0) == []

    def test_next_local_op_carries_the_echo(self):
        b = self.sites[1]
        b.handle_batch(0, self.incs)
        to_0 = [m for peer, m in b.local_update(("incr", 7)) if peer == 0]
        assert [[op.uid for op in m.ops] for m in to_0] == [[OpId(0, 1), OpId(0, 2), OpId(1, 1)]]
        assert to_0[0].prefix_len == 0
        assert not b.deferred(0) and b.flush(0) == []
        # The echoed ops cancel at their origin; only the new one lands.
        a = self.sites[0]
        a.handle_message(1, to_0[0])
        assert [op.uid for op in a.history] == [OpId(0, 1), OpId(0, 2), OpId(1, 1)]
        assert a.current == 10

    def test_relay_from_a_third_peer_carries_the_echo(self):
        b, c = self.sites[1], self.sites[2]
        b.handle_batch(0, self.incs)
        [from_c] = [m for peer, m in c.local_update(("incr", 5)) if peer == 1]
        out = dict(b.handle_batch(2, [from_c]))
        assert [op.uid for op in out[0].ops] == [OpId(0, 1), OpId(0, 2), OpId(2, 1)]
        assert 2 not in out and b.deferred(2)
        assert not b.deferred(0) and b.flush(0) == []

    def test_full_answering_a_request_in_the_batch_leaves_nothing_deferred(self):
        b = self.sites[1]
        out = b.handle_batch(0, [*self.incs, ResyncReq()])
        [full] = [m for peer, m in out if peer == 0]
        assert isinstance(full, Full) and len(full.ops) == 2
        assert not b.deferred(0) and b.flush(0) == []


@pytest.mark.parametrize("kind,nsites", [("counter", 3), ("text", 2), ("eset", 3), ("queue", 3),
                                         ("text", 3)])
@pytest.mark.parametrize("seed", range(6))
def test_verified_cache_under_shuffled_delivery(kind, nsites, seed):
    """VerifiedSite cross-checks the per-peer incremental transform cache
    against the from-scratch computation at every single receipt."""
    rng = random.Random(f"{kind}-{seed}")
    sites = mesh(kind, nsites, verify=True)
    for _ in range(5):
        batch = []
        for i in sites:
            batch.extend(outbox(i, random_update(sites[i], rng)[1]))
        rng.shuffle(batch)
        pending = deque()
        for item in batch:
            pending.append(item)
            if rng.random() < 0.25:
                pending.append(item)  # duplicate delivery
        drain(sites, pending)
    assert len({s.digest() for s in sites.values()}) == 1
    assert quiescent(sites, 0)
    for s in sites.values():
        s.check_invariants()


def test_verified_site_fires_when_the_cache_goes_wrong(monkeypatch):
    """The reference check reads the route it checks: a remainder cache
    that loses an op is caught at the receipt that keeps it."""
    real = ccr.protocol.transform_patch

    def skewed(rt, state, p, q):
        left, right = real(rt, state, p, q)
        return TransformResult(left, right[1:])

    monkeypatch.setattr(ccr.protocol, "transform_patch", skewed)
    sites = mesh("counter", 2, verify=True)
    pending = outbox(0, sites[0].local_update(("incr", 1)))
    pending += outbox(1, sites[1].local_update(("incr", 2)))
    with pytest.raises(AssertionError, match="incremental/direct mismatch"):
        drain(sites, pending)


@pytest.mark.parametrize("kind", ["lww", "socialmedia"])
def test_partition_heal_converges(kind):
    """Two sites make 200 ops each while apart, then connect.  An lww write
    carries only the candidates its site saw, so no merged op grows with
    the other side's branch."""
    rng = random.Random(1)
    rt = replica_type(kind)
    sites = {i: SiteState(i, rt) for i in range(2)}
    for s in sites.values():
        for _ in range(200):
            random_update(s, rng)
    for i, s in sites.items():
        s.connect_peer(1 - i)
    drain(sites, deque((i, 1 - i, s.make_increment(1 - i)) for i, s in sites.items()))
    assert sites[0].digest() == sites[1].digest()
    assert quiescent(sites, 0)
    for s in sites.values():
        s.check_invariants()
        if kind == "lww":
            assert max(len(op.body[2]) for op in s.history) == 1


def test_lossy_reordering_links_resync_and_converge():
    """Increments delivered in random order, some of them lost: a gap still
    open when the network goes idle (every link drained) is repaired by a
    resync.  A lost tail shows only once a later piece follows it, so the
    last round loses nothing."""
    kinds = ["counter", "text", "eset", "queue", "lww", "addmult", "socialmedia"]
    resyncs = 0
    for seed in range(20):
        kind = kinds[seed % len(kinds)]
        rng = random.Random(f"lossy-{seed}")
        sites = mesh(kind, 3 + seed % 2)
        pending = []
        for rnd in range(6):
            lossy = rnd < 5
            for i in sites:
                _, out = random_update(sites[i], rng) or (None, [])
                pending.extend(outbox(i, out))
            while pending:
                while pending:
                    src, dst, msg = pending.pop(rng.randrange(len(pending)))
                    if lossy and isinstance(msg, Increment) and rng.random() < 0.2:
                        continue
                    pending.extend(outbox(dst, sites[dst].handle_message(src, msg)))
                for i in sites:
                    for j in sites[i].peers:
                        pending.extend(outbox(i, sites[i].link_drained(j)))
        assert len({s.digest() for s in sites.values()}) == 1, (kind, seed)
        assert quiescent(sites, 0), (kind, seed)
        resyncs += sum(s.stats.resync_reqs for s in sites.values())
    assert resyncs > 0


@pytest.mark.parametrize("kind", ["counter", "text"])
def test_restarted_site_converges_on_reordering_links(kind):
    """Three sites edit over links that reorder and duplicate; one restarts
    mid-run with nothing, as a new incarnation.  What was in flight on its
    old links is dropped, as a closed socket drops it; it dials each peer
    (Hellos both ways, its request, its backlog) and edits on, also while its
    requests are out.  It numbers its ops from a fresh base, as the agent
    does.  Every run converges, and the restarted site never reuses the uid
    of an op that outlived its old incarnation."""
    rt = replica_type(kind)
    outlived = 0
    for seed in range(100):
        rng = random.Random(f"restart-{kind}-{seed}")
        sites = {i: VerifiedSite(i, rt) for i in range(3)}
        incarnation = {i: rng.getrandbits(64) for i in sites}
        pending = []

        def dial(i, j):
            sites[j].handle_message(i, Hello(i, kind, 0, incarnation[i]))
            back = Hello(j, kind, sites[j].peers[i].recv_len, incarnation[j])
            sites[i].handle_message(j, back)
            out = sites[i].request_resync(j)
            backlog = sites[i].make_increment(j)
            pending.extend(outbox(i, out + ([(j, backlog)] if backlog else [])))

        def deliver():
            src, dst, msg = pending.pop(rng.randrange(len(pending)))
            pending.extend(outbox(dst, sites[dst].handle_message(src, msg)))
            if rng.random() < 0.1:
                pending.append((src, dst, msg))  # delivered once more, later
            if not any(p[:2] == (src, dst) for p in pending):
                pending.extend(outbox(dst, sites[dst].link_drained(src)))

        for i, j in ((0, 1), (0, 2), (1, 2)):
            dial(i, j)
        restarted, restart_at = rng.randrange(3), rng.randrange(2, 7)
        mine = set()  # uids of the ops the restarted site makes after it
        for step in range(10):
            if step == restart_at:
                pending = [p for p in pending if restarted not in p[:2]]
                sites[restarted] = VerifiedSite(restarted, rt)
                incarnation[restarted] = rng.getrandbits(64)
                sites[restarted].next_seq = incarnation[restarted] >> 1
                survivors = {op.uid for s in sites.values() for op in s.history
                             if op.uid.site == restarted}
                outlived += len(survivors)
                for j in sites:
                    if j != restarted:
                        dial(restarted, j)
            for i, s in sites.items():
                made = random_update(s, rng)
                if made is not None:
                    pending.extend(outbox(i, made[1]))
                    if i == restarted and step >= restart_at:
                        mine.add(s.history[-1].uid)
            for _ in range(rng.randrange(len(pending) + 1)):
                deliver()
        while pending:
            deliver()
        assert len({s.digest() for s in sites.values()}) == 1, seed
        assert quiescent(sites, 0), seed
        assert not mine & survivors, seed
        for s in sites.values():
            s.check_invariants()
    assert outlived > 0


def test_work_per_op_does_not_grow_with_history(monkeypatch):
    """Uid hashing per op stays flat: appending checks the new ops against
    an index, not against a set rebuilt from the whole history."""
    calls = [0]
    real_hash = OpId.__hash__

    def counting_hash(self):
        calls[0] += 1
        return real_hash(self)

    monkeypatch.setattr(OpId, "__hash__", counting_hash)
    sites = mesh("counter", 2)
    at = {}  # history length -> hash calls so far
    while len(sites[0].history) < 2000:
        i = len(sites[0].history) % 2
        drain(sites, outbox(i, sites[i].local_update(("incr", 1))))
        at[len(sites[0].history)] = calls[0]
    early = (at[300] - at[100]) / 200
    late = (at[2000] - at[1800]) / 200
    assert 0 < late <= 2 * early
    for s in sites.values():
        s.check_invariants()


class TestHistoryView:
    def test_reads_like_a_tuple(self):
        s = SiteState(0, replica_type("counter"))
        assert s.history == () and not s.history
        for i in range(5):
            s.local_update(("incr", i + 1))
        h = s.history
        t = tuple(h)
        assert isinstance(h, HistoryView) and len(h) == len(t) == 5
        assert (h[0], h[4], h[-1], h[-5]) == (t[0], t[4], t[-1], t[-5])
        for i in (5, -6):
            with pytest.raises(IndexError):
                h[i]
        for sl in (slice(1, 3), slice(3, None), slice(None, None, -2), slice(9, None)):
            assert h[sl] == t[sl] and type(h[sl]) is tuple
        assert list(h) == list(t)
        assert h == t and t == h and h == list(t) and list(t) == h and h == s.history
        assert h != t[:4] and t[:4] != h and h != t + t[:1]
        assert repr(h) == f"HistoryView({t!r})"

    def test_view_keeps_its_length_as_history_grows(self):
        sites = mesh("counter", 2)
        a, b = sites[0], sites[1]
        drain(sites, outbox(0, a.local_update(("incr", 1))))
        early = a.history
        ops = tuple(early)
        [(_, full)] = a.handle_message(1, ResyncReq())
        drain(sites, outbox(1, b.local_update(("incr", 2))))
        drain(sites, outbox(0, a.local_update(("incr", 3))))
        assert len(a.history) == 3 and a.history[:1] == ops
        assert len(early) == 1 and early == ops and early[-1] == ops[-1]
        assert full.ops == ops


def _median_alloc_peak(calls):
    """Median over ``calls`` of the bytes allocated at peak by one call."""
    peaks = []
    tracemalloc.start()
    try:
        for call in calls:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call()
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return statistics.median(peaks)


@pytest.mark.parametrize("departed_peer", [False, True])
def test_local_op_copies_no_history(departed_peer):
    """One local op allocates as much at 8k ops of history as at 1k: neither
    the history nor the remainder kept for a peer that stopped answering is
    copied.  (A tuple copy of either costs 8 bytes per op held.)"""
    s = SiteState(0, replica_type("counter"))
    if departed_peer:
        s.connect_peer(1)
    peak = {}
    for n in (1000, 8000):
        while len(s.history) < n:
            s.local_update(("incr", 1))
        peak[n] = _median_alloc_peak([lambda: s.local_update(("incr", 1))] * 21)
    assert peak[8000] < 1.25 * peak[1000], peak
    if departed_peer:
        assert len(s.peers[1].remainder) == len(s.history)


def test_relayed_op_copies_no_remainder():
    """An op received from one peer grows the remainder kept for a departed
    one in place, at the same cost at any length."""
    rt = replica_type("counter")
    a, b = SiteState(0, rt), SiteState(1, rt)
    a.connect_peer(1)
    b.connect_peer(0)
    b.connect_peer(2)  # site 2 never answers
    peak = {}
    for n in (1000, 8000):
        while len(b.history) < n - 21:
            [(_, inc)] = a.local_update(("incr", 1))
            b.handle_message(0, inc)
        incs = [a.local_update(("incr", 1))[0][1] for _ in range(21)]
        peak[n] = _median_alloc_peak([lambda inc=inc: b.handle_message(0, inc) for inc in incs])
    assert peak[8000] < 1.25 * peak[1000], peak
    assert len(b.peers[2].remainder) == len(b.history)


def test_text_ops_never_build_the_byte_mask(monkeypatch):
    # len, apply and gen_effective work on the visibility bits; only str()
    # (digests, display) derives the one-byte-per-character mask.
    reads = [0]
    real = TextState.mask

    def counted(state):
        reads[0] += 1
        return real.fget(state)

    monkeypatch.setattr(TextState, "mask", property(counted))
    sites = mesh("text", 2)
    rng = random.Random(5)
    for _ in range(150):
        pending = deque()
        for i in (0, 1):  # both edit before either hears the other
            pending += outbox(i, random_update(sites[i], rng)[1])
        drain(sites, pending)
    assert len(sites[0].history) > 250
    assert reads[0] == 0
    assert sites[0].digest() == sites[1].digest() and reads[0] > 0


def test_text_invariants_compare_the_hidden_model():
    rt = replica_type("text")
    s = SiteState(0, rt)
    s.local_update(("ins", 0, "abc"))
    s.local_update(("del", 1, 1))
    s.check_invariants()
    # Same visible text, different hidden character.
    s.current = rt.apply("axc", rt.op(OpId(0, 2), "Del", 1, 1))
    assert s.digest() == '"ac"'
    with pytest.raises(AssertionError):
        s.check_invariants()

import random
from collections import deque

import pytest

from ccr import OpId, replica_type
from ccr.protocol import (
    Full,
    Hello,
    Increment,
    ProtocolError,
    ResyncReq,
    SiteFaulted,
    SiteState,
    quiescent,
)
from support import count_applies


def mesh(kind, n, verify=False):
    rt = replica_type(kind)
    sites = {i: SiteState(i, rt, verify=verify) for i in range(n)}
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

    def test_quiescent_false_with_undelivered(self):
        sites = mesh("counter", 2)
        sites[0].local_update(("incr", 1))
        assert not quiescent(sites, 0)
        assert not quiescent(sites, 1)


class TestRecovery:
    def test_duplicate_increment_resync_full(self):
        sites = mesh("counter", 2)
        a, b = sites[0], sites[1]
        inc = a.local_update(("incr", 7))[0][1]
        b.handle_message(0, inc)

        replies = b.handle_message(0, inc)  # duplicate
        assert replies == [(0, ResyncReq())]
        full_out = a.handle_message(1, replies[0][1])
        assert len(full_out) == 1
        full = full_out[0][1]
        assert isinstance(full, Full) and full.ops == a.history
        # Full extends the known prefix by nothing: integrates silently.
        assert b.handle_message(0, full) == []
        assert b.current == 7

    def test_reordered_increments_recover(self):
        sites = mesh("counter", 2)
        a, b = sites[0], sites[1]
        first = a.local_update(("incr", 1))[0][1]
        second = a.local_update(("incr", 2))[0][1]
        assert (first.prefix_len, second.prefix_len) == (0, 1)

        replies = b.handle_message(0, second)  # gap: arrives first
        assert replies == [(0, ResyncReq())]
        pending = deque([(1, 0, replies[0][1]), (0, 1, first)])
        drain(sites, pending)
        assert b.current == 3
        assert a.digest() == b.digest()

    def test_restart_resumes_sequence_numbers(self):
        sites = mesh("counter", 2)
        a, b = sites[0], sites[1]
        pending = deque(outbox(0, a.local_update(("incr", 4))))
        pending.extend(outbox(0, a.local_update(("incr", 6))))
        drain(sites, pending)

        a2 = SiteState(0, a.rt)  # crash: history and seq counter lost
        sites[0] = a2
        a2.connect_peer(1)
        b.connect_peer(0, known_len=0)
        replies = b.handle_message(0, Hello(site=0, kind="counter", known_len=0))
        assert replies == []
        # Dial flow: the restarted side asks for everything.  The recovered
        # ops echo back on a stream whose numbering restarted from zero, so
        # one more resync round settles the cursors; drain the lot.
        full = b.handle_message(0, ResyncReq())[0][1]
        pending = deque(outbox(0, a2.handle_message(1, full)))
        drain(sites, pending)
        assert quiescent(sites, 0)
        assert a2.current == 10
        assert a2.next_seq == 3  # old own uids came back; never reuse them
        out = a2.local_update(("incr", 1))
        assert out[0][1].ops[0].uid == OpId(0, 3)

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

    def test_full_from_restarted_peer_replaces_prefix(self):
        sites = mesh("counter", 2)
        a, b = sites[0], sites[1]
        pending = deque(outbox(0, a.local_update(("incr", 4))))
        drain(sites, pending)

        b2 = SiteState(1, b.rt)
        sites[1] = b2
        b2.connect_peer(0)
        a.connect_peer(1, known_len=0)
        pending = deque(outbox(1, b2.local_update(("incr", 2))))
        pending.append((1, 0, ResyncReq()))
        drain(sites, pending)
        assert a.current == b2.current == 6
        assert quiescent(sites, 0)


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
        add = rt.op(OpId(1, 1), "Add", "x")
        b.history = (add,)
        b.current = rt.apply(b.current, add)
        b.next_seq = 2
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


def _random_intent(kind, rng, state):
    if kind == "counter":
        return ("incr", rng.randint(1, 9))
    if kind == "eset":
        x = rng.choice("abcdefgh")
        return ("add" if x not in state else "rem", x)
    if kind == "queue":
        if rng.random() < 2 / 3:
            return ("enq", rng.choice("abcdef"))
        return ("deq",)
    if state and rng.random() < 0.4:
        k = rng.randrange(len(state))
        return ("del", k, rng.randint(1, min(2, len(state) - k)))
    return ("ins", rng.randint(0, len(state)), rng.choice("abcdef") * rng.randint(1, 2))


@pytest.mark.parametrize("kind,nsites", [("counter", 3), ("text", 2), ("eset", 3), ("queue", 3),
                                         ("text", 3)])
@pytest.mark.parametrize("seed", range(6))
def test_verified_cache_under_shuffled_delivery(kind, nsites, seed):
    """verify=True cross-checks the per-peer incremental transform cache
    against the from-scratch computation at every single receipt."""
    rng = random.Random(f"{kind}-{seed}")
    sites = mesh(kind, nsites, verify=True)
    for _ in range(5):
        batch = []
        for i in sites:
            intent = _random_intent(kind, rng, sites[i].current)
            batch.extend(outbox(i, sites[i].local_update(intent)))
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

import hashlib

import pytest

from ccr.core import TransformResult
from ccr.props import check_properties
from ccr.protocol import Increment, SiteState
from ccr.replicas import replica_type
from ccr.replicas.base import ReplicaType
from ccr.sim import (
    SimConfig,
    random_update,
    run_trial,
    topology_edges,
)
from support import count_calls, use_positional_text, verify_trials

CLEAN_KINDS = ["counter", "addmult", "lww", "eset", "queue", "socialmedia"]


class TestTopology:
    def test_full(self):
        assert topology_edges("full", 4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_ring(self):
        assert topology_edges("ring", 4) == [(0, 1), (0, 3), (1, 2), (2, 3)]
        assert topology_edges("ring", 2) == [(0, 1)]
        assert topology_edges("ring", 1) == []

    def test_chain(self):
        assert topology_edges("chain", 3) == [(0, 1), (1, 2)]

    def test_unknown(self):
        with pytest.raises(ValueError):
            topology_edges("star", 3)


class TestDeterminism:
    def test_same_seed_same_report(self):
        cfg = SimConfig(kind="text", sites=3, ops_per_site=6, seed=11,
                        topology="full", reorder=True, duplicate=True)
        r1, r2 = run_trial(cfg), run_trial(cfg)
        assert (r1.reason, r1.digests, r1.messages_sent, r1.events) == (
            r2.reason, r2.digests, r2.messages_sent, r2.events)
        assert r1.script == r2.script

    def test_full_script_replay_retraces_trial(self):
        # Intent draws and network draws use separate streams, so replaying
        # the recorded script reproduces the trial exactly.
        cfg = SimConfig(kind="counter", sites=3, ops_per_site=5, seed=2,
                        topology="full", reorder=True, duplicate=True)
        r = run_trial(cfg)
        replay = run_trial(cfg, script=r.script)
        assert (replay.reason, replay.digests) == (r.reason, r.digests)
        assert replay.messages_sent == r.messages_sent

    def test_one_site_script_records_every_op(self):
        # A lone site sends nothing, but each op it makes is still recorded.
        cfg = SimConfig(kind="text", sites=1, ops_per_site=5)
        r = run_trial(cfg)
        assert r.converged and r.messages_sent == 0
        assert len(r.script) == 5  # one per op: every text intent drawn is effective
        assert run_trial(cfg, script=r.script).digests == r.digests

    # sha256 prefix, per kind, of seeds 0-11 on a 4-site ring with reorder
    # and duplicate on.  A change that alters trials on purpose re-pins
    # these and says so; any other change must leave them as they are.
    PINNED = {
        "counter": "72f17ed7e5800ee6",
        "addmult": "ffb04185d24cc209",
        "lww": "b86018f8095d2434",
        "eset": "dee0f109de309ad9",
        "queue": "fcf16ea2505aec18",
        "text": "3cabaf96568b539b",
        "socialmedia": "7a8411b4226fee2d",
        "map<text>": "a4d9fb74b78feb09",
        "tuple<counter,text>": "f7ef35233c432d81",
    }

    def test_faulty_ring_trials_match_their_pinned_hashes(self):
        got = {}
        for kind in self.PINNED:
            h = hashlib.sha256()
            for seed in range(12):
                r = run_trial(SimConfig(kind=kind, sites=4, seed=seed, topology="ring",
                                        reorder=True, duplicate=True))
                h.update(repr((r.reason, r.digests, r.messages_sent, r.max_inflight,
                               r.events, r.script, r.stats)).encode())
            got[kind] = h.hexdigest()[:16]
        assert got == self.PINNED


@pytest.mark.parametrize("kind", CLEAN_KINDS)
def test_clean_kinds_converge_under_faults(kind):
    for seed in range(12):
        cfg = SimConfig(kind=kind, sites=3 + seed % 2, ops_per_site=8, seed=seed,
                        topology="full" if seed % 2 == 0 else "ring",
                        reorder=True, duplicate=True)
        r = run_trial(cfg)
        assert r.converged, f"seed {seed}: {r.reason} {r.digests}"
        assert r.messages_sent > 0
        assert len(set(r.digests.values())) == 1


def test_two_site_text_converges_under_faults():
    for seed in range(12):
        cfg = SimConfig(kind="text", sites=2, ops_per_site=10, seed=seed,
                        topology="full", reorder=True, duplicate=True)
        r = run_trial(cfg)
        assert r.converged, f"seed {seed}: {r.reason}"


def test_three_site_text_converges_where_positional_diverged():
    # Seed 40 is one of those on which TestTextDivergence finds the
    # positional tables diverge.
    cfg = SimConfig(kind="text", sites=3, ops_per_site=5, seed=40,
                    topology="full", reorder=True, duplicate=True)
    r = run_trial(cfg)
    assert r.converged, f"{r.reason} {r.digests}"


def _first_text_divergence():
    for seed in range(60):
        cfg = SimConfig(kind="text", sites=3, ops_per_site=5, seed=seed,
                        topology="full", reorder=True, duplicate=True)
        r = run_trial(cfg)
        if r.reason == "divergence":
            return cfg, r
    raise AssertionError("no text divergence in 60 seeds")


class TestTextDivergence:
    # Under the positional tables (support.PositionalText), with three or
    # more sites, concurrent inserts collapsed onto one position by a delete
    # tie-break inconsistently across integration paths.  The simulator
    # must report this as divergence, not mask it.

    @pytest.fixture(autouse=True)
    def positional(self, monkeypatch):
        use_positional_text(monkeypatch)

    def test_divergence_is_found_and_reported(self):
        _, r = _first_text_divergence()
        assert not r.converged
        assert len(set(r.digests.values())) > 1
        assert r.script


def test_fifo_link_delivers_runs_as_one_batch(monkeypatch):
    # Messages due on one link at one tick reach the receiver as one batch,
    # so FIFO increments that continue each other integrate as one run.
    batches = []
    real = SiteState.handle_batch

    def recording(self, from_site, msgs):
        batches.append((from_site, list(msgs)))
        return real(self, from_site, msgs)

    monkeypatch.setattr(SiteState, "handle_batch", recording)
    cfg = SimConfig(kind="counter", sites=3, ops_per_site=10, seed=0, topology="full")
    r = run_trial(cfg)
    assert r.converged, r.summary()
    runs = [msgs for _, msgs in batches if len(msgs) > 1
            and all(isinstance(m, Increment) for m in msgs)
            and all(m.prefix_len == p.prefix_len + len(p.ops) for p, m in zip(msgs, msgs[1:]))]
    assert runs


def test_echo_waits_for_a_later_increment(monkeypatch):
    # Only site 0 edits, one op every 3 ticks on a FIFO link, so each of
    # its increments reaches site 1 alone.  Site 1 echoes no batch at once:
    # one flush sends whatever echoes have piled up by then.
    received = {0: 0, 1: 0}
    real = SiteState.handle_batch

    def counting(self, from_site, msgs):
        received[self.site] += sum(isinstance(m, Increment) for m in msgs)
        return real(self, from_site, msgs)

    monkeypatch.setattr(SiteState, "handle_batch", counting)
    cfg = SimConfig(kind="counter", sites=2, ops_per_site=10, seed=0, topology="full")
    r = run_trial(cfg, script=[(3 * i, 0, ("incr", 1)) for i in range(10)])
    assert r.converged, r.summary()
    assert len(r.script) == received[1] == 10
    assert 0 < received[0] < received[1]


def test_faulty_ring_message_budget():
    # The faulty-ring shape: a 4-site ring that reorders and duplicates.
    # Deferred echoes keep it under 5.2 messages per effective op (6.3 when
    # every delivery echoed at once).
    messages = ops = 0
    for kind in CLEAN_KINDS + ["text"]:
        for seed in range(4):
            r = run_trial(SimConfig(kind=kind, sites=4, ops_per_site=20, seed=seed,
                                    topology="ring", reorder=True, duplicate=True))
            assert r.converged, f"{kind} seed {seed}: {r.reason}"
            messages += r.messages_sent
            ops += len(r.script)
    assert messages <= 5.2 * ops, messages / ops


def test_no_call_sends_one_peer_two_increments(monkeypatch):
    # Each entry point builds its increments once, at its end, from what
    # each peer has not been sent: one increment per peer at most.
    sent = [0]
    for name in ("local_update", "handle_message", "handle_batch"):
        def checking(self, *args, _real=getattr(SiteState, name)):
            out = _real(self, *args)
            peers = [peer for peer, m in out if isinstance(m, Increment)]
            assert len(peers) == len(set(peers)), out
            sent[0] += len(peers) > 1
            return out

        monkeypatch.setattr(SiteState, name, checking)
    for kind in CLEAN_KINDS + ["text"]:
        for seed in range(4):
            r = run_trial(SimConfig(kind=kind, sites=4, ops_per_site=20, seed=seed,
                                    topology="ring", reorder=True, duplicate=True))
            assert r.converged, f"{kind} seed {seed}: {r.reason}"
    assert sent[0] > 0


def test_nonterminating_budget():
    cfg = SimConfig(kind="counter", sites=3, ops_per_site=5, seed=0,
                    topology="full", max_events=10)
    r = run_trial(cfg)
    assert r.reason == "nonterminating"
    assert not r.converged


@pytest.mark.parametrize("kind", CLEAN_KINDS + ["text"])
def test_verified_ring_converges(kind, monkeypatch):
    # Every site re-runs the full transform at every receipt and asserts it
    # matches the incremental one.  The check only observes: each trial
    # reports exactly what it reports without it.
    cfgs = [SimConfig(kind=kind, sites=4, ops_per_site=8, seed=seed, topology="ring",
                      reorder=True, duplicate=True) for seed in range(3)]
    plain = [run_trial(cfg) for cfg in cfgs]
    verify_trials(monkeypatch)
    for cfg, unchecked in zip(cfgs, plain):
        r = run_trial(cfg)
        assert r.converged, r.summary()
        assert r == unchecked


@pytest.mark.parametrize("kind", CLEAN_KINDS + ["text"])
def test_verified_full_mesh_converges_under_faults(kind, monkeypatch):
    verify_trials(monkeypatch)
    for seed in range(2):
        cfg = SimConfig(kind=kind, sites=5, ops_per_site=6, seed=seed, topology="full",
                        reorder=True, duplicate=True)
        r = run_trial(cfg)
        assert r.converged, r.summary()


@pytest.mark.parametrize("kind", CLEAN_KINDS + ["text"])
@pytest.mark.parametrize("sites,topology", [(3, "full"), (4, "ring")])
def test_fifo_duplicates_never_resync(kind, sites, topology):
    # On FIFO links a duplicate always arrives after its original, so it is
    # stale by position: no stream ever breaks.
    stale = 0
    for seed in range(4):
        cfg = SimConfig(kind=kind, sites=sites, ops_per_site=15, seed=seed,
                        topology=topology, duplicate=True)
        r = run_trial(cfg)
        assert r.converged, r.summary()
        assert r.stats["resync_reqs"] == 0 and r.stats["fulls_served"] == 0, r.stats
        stale += r.stats["stale_dropped"]
    assert stale > 0


@pytest.mark.parametrize("kind", CLEAN_KINDS + ["text"])
@pytest.mark.parametrize("sites,topology", [(3, "full"), (4, "ring")])
def test_reordering_links_never_resync(kind, sites, topology):
    # The network loses nothing, so every piece that overtook another is
    # held until the other lands, and no link drains with a gap open.
    for seed in range(4):
        cfg = SimConfig(kind=kind, sites=sites, ops_per_site=15, seed=seed,
                        topology=topology, reorder=True, duplicate=True)
        r = run_trial(cfg)
        assert r.converged, r.summary()
        assert r.stats["resync_reqs"] == 0 and r.stats["fulls_served"] == 0, r.stats


def test_injected_broken_transform_is_detected(monkeypatch):
    # The harness is only worth anything if it catches a wrong transform:
    # make counter transforms drop the other side's operation.
    rt = replica_type("counter")

    def broken(a, b):
        return TransformResult((a,), ())

    monkeypatch.setattr(rt, "transform_prim", broken)
    failed = 0
    for seed in range(8):
        cfg = SimConfig(kind="counter", sites=3, ops_per_site=6, seed=seed,
                        topology="full", reorder=True, duplicate=True)
        if not run_trial(cfg).converged:
            failed += 1
    assert failed > 0


def test_random_update_always_takes_effect():
    for kind in CLEAN_KINDS + ["text"]:
        site = SiteState(0, replica_type(kind))
        import random as _r
        rng = _r.Random(f"ri-{kind}")
        for made in range(1, 31):
            assert random_update(site, rng) is not None
            assert len(site.history) == made


# The first 20 draws per kind from random.Random(2024), each applied before
# the next.  Per-seed simulator and property-checker results depend on this
# stream, so a change to any kind's draw_intent must leave it as it is.
PINNED_DRAWS = {
    "counter": [("decr", 3), ("decr", 4), ("decr", 5), ("incr", 8), ("decr", 7),
                ("incr", 5), ("decr", 9), ("incr", 4), ("decr", 3), ("incr", 7),
                ("incr", 6), ("decr", 8), ("incr", 3), ("decr", 7), ("decr", 6),
                ("incr", 6), ("decr", 7), ("decr", 4), ("decr", 4), ("incr", 1)],
    "addmult": [("add", 4), ("mult", 5), ("mult", 4), ("add", 6), ("add", -5),
                ("add", 9), ("add", -8), ("mult", 3), ("add", 1), ("mult", 5),
                ("add", -6), ("add", 4), ("add", 6), ("add", 4), ("add", -1),
                ("mult", 4), ("mult", 4), ("mult", 5), ("add", 4), ("add", 6)],
    "lww": [("write", w) for w in (
        "fx", "jgx", "yw", "rh", "xpl", "qx", "gjr", "kqc", "ygw", "owu",
        "r", "n", "y", "un", "dx", "eyk", "kl", "k", "nk", "gnh")],
    "eset": [("add", "h"), ("add", "c"), ("add", "e"), ("add", "d"), ("add", "g"),
             ("rem", "e"), ("rem", "d"), ("rem", "h"), ("add", "f"), ("rem", "g"),
             ("add", "d"), ("add", "e"), ("rem", "f"), ("add", "b"), ("rem", "d"),
             ("add", "h"), ("rem", "c"), ("add", "d"), ("add", "g"), ("add", "a")],
    "queue": [("enq", "x"), ("enq", "g"), ("deq",), ("enq", "w"), ("deq",),
              ("enq", "u"), ("deq",), ("enq", "n"), ("enq", "t"), ("deq",),
              ("enq", "w"), ("enq", "c"), ("deq",), ("deq",), ("enq", "y"),
              ("deq",), ("deq",), ("deq",), ("enq", "r"), ("enq", "n")],
    "text": [("ins", 0, "fx"), ("del", 1, 1), ("ins", 1, "xpl"), ("ins", 2, "gjr"),
             ("ins", 7, "ygw"), ("ins", 6, "erg"), ("ins", 7, "un"), ("del", 11, 1),
             ("ins", 12, "kl"), ("del", 13, 2), ("del", 3, 2), ("del", 0, 3),
             ("del", 0, 2), ("ins", 6, "ys"), ("ins", 3, "ut"), ("del", 7, 2),
             ("del", 5, 2), ("ins", 5, "eim"), ("ins", 10, "wof"), ("ins", 3, "k")],
    "socialmedia": [("upd", key, ("at", i, inner)) for key, i, inner in (
        ("p2", 0, ("write", "c9")), ("p2", 0, ("write", "c11")), ("p2", 3, ("incr", 1)),
        ("p2", 2, ("incr", 1)), ("p3", 3, ("incr", 1)), ("p2", 1, ("add", "c8")),
        ("p3", 2, ("incr", 1)), ("p1", 1, ("add", "c11")), ("p2", 2, ("incr", 1)),
        ("p3", 3, ("incr", 1)), ("p1", 2, ("incr", 1)), ("p3", 1, ("add", "c11")),
        ("p3", 0, ("write", "c3")), ("p2", 3, ("incr", 1)), ("p2", 2, ("incr", 1)),
        ("p2", 0, ("write", "c11")), ("p1", 3, ("incr", 1)), ("p2", 1, ("add", "c3")),
        ("p2", 1, ("add", "c5")), ("p3", 0, ("write", "c6")))],
}


@pytest.mark.parametrize("kind", sorted(PINNED_DRAWS))
def test_random_update_draw_order_is_pinned(kind):
    import random as _r
    site = SiteState(0, replica_type(kind))
    rng = _r.Random(2024)
    draws = [random_update(site, rng)[0] for _ in range(20)]
    assert draws == PINNED_DRAWS[kind]


@pytest.mark.parametrize("kind", ["text", "queue"])
@pytest.mark.parametrize("run", [
    lambda kind: run_trial(SimConfig(kind=kind, sites=4, seed=3, topology="ring",
                                     reorder=True, duplicate=True)),
    lambda kind: check_properties(kind, 50, 3),
], ids=["run_trial", "check_properties"])
def test_each_draw_is_generated_once(kind, run, monkeypatch):
    draws = count_calls(monkeypatch, ReplicaType, "draw_intent")
    gens = count_calls(monkeypatch, ReplicaType, "gen_effective")
    run(kind)
    assert draws[0] > 0
    assert gens == draws

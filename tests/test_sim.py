import pytest

from ccr.core import OpId, TransformResult
from ccr.replicas import replica_type
from ccr.sim import (
    SimConfig,
    random_intent,
    run_trial,
    shrink_trial,
    topology_edges,
)
from support import use_positional_text

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
    # Seed 4 is the first that TestTextDivergence finds under the
    # positional tables.
    cfg = SimConfig(kind="text", sites=3, ops_per_site=5, seed=4,
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

    def test_shrinker_keeps_failure_and_replays_red(self):
        cfg, r = _first_text_divergence()
        s_cfg, s_rep = shrink_trial(cfg, r)
        assert not s_rep.converged
        assert len(s_rep.script) <= len(r.script)
        replay = run_trial(s_cfg, script=s_rep.script)
        assert not replay.converged
        assert replay.reason == s_rep.reason


def test_nonterminating_budget():
    cfg = SimConfig(kind="counter", sites=3, ops_per_site=5, seed=0,
                    topology="full", max_events=10)
    r = run_trial(cfg)
    assert r.reason == "nonterminating"
    assert not r.converged


@pytest.mark.parametrize("kind", CLEAN_KINDS + ["text"])
def test_verified_ring_converges(kind):
    # verify=True re-runs the full transform at every receipt and asserts it
    # matches the incremental one.
    for seed in range(3):
        cfg = SimConfig(kind=kind, sites=4, ops_per_site=8, seed=seed, topology="ring",
                        reorder=True, duplicate=True, verify=True)
        r = run_trial(cfg)
        assert r.converged, r.summary()


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


def test_random_intent_always_effective():
    probe = OpId(-1, 0)
    for kind in CLEAN_KINDS + ["text"]:
        rt = replica_type(kind)
        import random as _r
        rng = _r.Random(f"ri-{kind}")
        state = rt.initial()
        for _ in range(30):
            intent = random_intent(rt, rng, state)
            assert intent is not None
            op = rt.gen_effective(state, intent, probe)
            assert op is not None
            state = rt.apply(state, op)

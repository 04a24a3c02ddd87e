"""Patch algebra: monoid laws, application, the transform contract."""

import random

import pytest

from ccr import (
    ApplyError,
    ComposeError,
    OpId,
    apply_patch,
    compose,
    confluent_rep,
    is_identity,
    transform_patch,
)
from ccr.props import random_ops
from ccr.replicas import replica_type
from ccr.replicas.text import TextType
from support import count_applies, reference_transform

C = replica_type("counter")
T = replica_type("text")


def incr(site, seq, n):
    return C.op(OpId(site, seq), "Incr", n)


class TestOpId:
    def test_orders_by_site_then_seq(self):
        uids = [OpId(1, 2), OpId(0, 9), OpId(1, 1), OpId(0, 10)]
        assert sorted(uids) == [OpId(0, 9), OpId(0, 10), OpId(1, 1), OpId(1, 2)]
        assert (3, OpId(0, 5)) < (3, OpId(1, 0))

    def test_set_membership_and_hash(self):
        seen = {OpId(0, 1), OpId(2, 3)}
        assert OpId(2, 3) in seen and OpId(3, 2) not in seen
        assert hash(OpId(2, 3)) == hash((2, 3))

    def test_repr(self):
        assert repr(OpId(1, 2)) == "(1,2)"
        assert repr(T.op(OpId(0, 3), "Ins", 2, "ab")) == "(0,3) Ins 2 'ab'"
        assert repr(C.op(OpId(4, 5), "Nop")) == "(4,5) Nop"


class TestMonoid:
    def test_empty_patch_is_identity(self):
        assert is_identity(())
        assert not is_identity((incr(0, 1, 2),))

    def test_compose_is_concatenation(self):
        p = (incr(0, 1, 1), incr(0, 2, 2))
        q = (incr(1, 1, 3),)
        assert compose(p, q) == p + q
        assert compose(p, ()) == p
        assert compose((), q) == q

    def test_compose_rejects_shared_uids(self):
        p = (incr(0, 1, 1),)
        q = (incr(0, 1, 5),)
        with pytest.raises(ComposeError):
            compose(p, q)

    def test_compose_associative(self):
        rng = random.Random(7)
        for trial in range(100):
            patches = []
            seq = 0
            for site in range(3):
                ops = []
                for _ in range(rng.randrange(0, 4)):
                    seq += 1
                    ops.append(incr(site, seq, rng.randrange(1, 9)))
                patches.append(tuple(ops))
            p, q, r = patches
            assert compose(compose(p, q), r) == compose(p, compose(q, r))


class TestApply:
    def test_fold_left(self):
        p = (incr(0, 1, 2), incr(0, 2, 3))
        assert apply_patch(C, 0, p) == 5

    def test_apply_error_names_uid_and_state(self):
        bad = T.op(OpId(3, 9), "Ins", 5, "x")
        with pytest.raises(ApplyError) as e:
            apply_patch(T, "ab", (bad,))
        assert e.value.uid == OpId(3, 9)
        assert e.value.digest == '"ab"'


class TestTransform:
    def test_empty_sides_pass_through(self):
        p = (incr(0, 1, 2),)
        assert transform_patch(C, 0, p, ()) == (p, ())
        assert transform_patch(C, 0, (), p) == ((), p)

    def test_pinned_text_example(self):
        # "ab": site 0 inserts "x" at 1, site 1 deletes everything.
        p = (T.op(OpId(0, 1), "Ins", 1, "x"),)
        q = (T.op(OpId(1, 1), "Del", 0, 2),)
        left, right = transform_patch(T, "ab", p, q)
        assert left == p
        assert right == (T.op(OpId(1, 1), "Del", 0, 1), T.op(OpId(1, 1), "Del", 2, 1))
        assert apply_patch(T, apply_patch(T, "ab", p), right) == "x"
        assert apply_patch(T, apply_patch(T, "ab", q), left) == "x"

    def test_same_patch_cancels_to_identity(self):
        p = (incr(0, 1, 2), incr(0, 2, 3))
        assert transform_patch(C, 0, p, p) == ((), ())

    def test_shared_prefix_cancels(self):
        a = incr(0, 1, 1)
        p = (a, incr(0, 2, 5))
        q = (a, incr(1, 1, 7))
        left, right = transform_patch(C, 0, p, q)
        assert {op.uid for op in left} == {OpId(0, 2)}
        assert {op.uid for op in right} == {OpId(1, 1)}
        assert apply_patch(C, apply_patch(C, 0, p), right) == apply_patch(
            C, apply_patch(C, 0, q), left
        ) == 13

    def test_uid_preservation(self):
        p = (T.op(OpId(0, 1), "Del", 0, 3),)
        q = (T.op(OpId(1, 1), "Ins", 1, "zz"), T.op(OpId(1, 2), "Ins", 0, "w"))
        left, right = transform_patch(T, "abcde", p, q)
        assert {op.uid for op in left} <= {op.uid for op in p}
        assert {op.uid for op in right} <= {op.uid for op in q}


class TestStateFreeSweep:
    """The sweep rewrites ops from their bodies alone and applies none."""

    def test_two_by_two_text_sweep_applies_nothing(self, monkeypatch):
        p = (T.op(OpId(0, 1), "Ins", 1, "x"), T.op(OpId(0, 2), "Del", 0, 1))
        q = (T.op(OpId(1, 1), "Del", 0, 2), T.op(OpId(1, 2), "Ins", 0, "yz"))
        calls = count_applies(monkeypatch)
        transform_patch(T, "ab", p, q)
        assert calls[0] == 0

    @pytest.mark.parametrize("kind", ["text", "queue", "socialmedia", "tuple<counter,text>"])
    def test_random_pairs_apply_nothing(self, kind, monkeypatch):
        rt = replica_type(kind)
        rng = random.Random(f"state-free-{kind}")
        cases = []
        for _ in range(60):
            _, base = random_ops(rt, rng, rt.initial(), 9, rng.randint(1, 4))
            p, _ = random_ops(rt, rng, base, 0, rng.randint(1, 4))
            q, _ = random_ops(rt, rng, base, 1, rng.randint(1, 4))
            cases.append((base, p, q))
        calls = count_applies(monkeypatch)
        for base, p, q in cases:
            transform_patch(rt, base, p, q)
            confluent_rep(rt, base, p, q)
        assert calls[0] == 0


class TestSweepOracle:
    """The one-loop sweep returns what the reference sweep does, fragment
    for fragment, on random concurrent patches of every kind."""

    @staticmethod
    def cases(rt, rng, n):
        # p and q both start from base; both may begin with some of the ops
        # of a third site, which then meet their uid twins in the sweep.
        for _ in range(n):
            _, base = random_ops(rt, rng, rt.initial(), 9, rng.randint(0, 4))
            shared, after = random_ops(rt, rng, base, 5, rng.randint(0, 3))
            k = rng.randint(0, len(shared))
            p, _ = random_ops(rt, rng, after, 0, rng.randint(0, 4))
            q, _ = random_ops(rt, rng, apply_patch(rt, base, shared[:k]), 1, rng.randint(0, 4))
            p, q = shared + p, shared[:k] + q
            yield (p, q) if rng.random() < 0.5 else (q, p)

    @pytest.mark.parametrize("kind", ["counter", "addmult", "lww", "eset", "queue", "text",
                                      "socialmedia", "tuple<counter,text>", "map<text>"])
    def test_matches_the_reference(self, kind, monkeypatch):
        rt = replica_type(kind)
        rng = random.Random(f"sweep-oracle-{kind}")
        splits = [0]  # text op pairs that split an op in two or more
        real = TextType.transform_prim

        def counting(self, a, b):
            out = real(self, a, b)
            splits[0] += any(len(side) > 1 for side in out)
            return out

        monkeypatch.setattr(TextType, "transform_prim", counting)
        twins = 0
        for p, q in self.cases(rt, rng, 400):
            got = transform_patch(rt, None, p, q)
            want = reference_transform(rt, p, q)
            assert type(got.left) is type(got.right) is tuple
            assert got.left == want.left and got.right == want.right, (p, q)
            twins += bool({op.uid for op in p} & {op.uid for op in q})
        assert twins > 50
        if "text" in kind:
            assert splits[0] > 5

    def test_one_map_entry_matches_the_reference(self):
        # Random map patches spread over three keys and seldom give an
        # entry's sweep a split fragment to carry past a later op; text
        # patches as the updates of one entry do.
        rt, text = replica_type("map<text>"), replica_type("text")
        rng = random.Random("sweep-oracle-one-entry")

        def entry(ops):
            return tuple(rt.op(op.uid, "Upd", "k", (op.body,)) for op in ops)

        for p, q in self.cases(text, rng, 400):
            p, q = entry(p), entry(q)
            assert transform_patch(rt, None, p, q) == reference_transform(rt, p, q), (p, q)


class TestConfluentRep:
    def test_idempotent(self):
        p = (incr(0, 1, 2),)
        assert confluent_rep(C, 0, p, p) == p

    def test_three_counter_sites_all_orders_agree(self):
        # Incr 1 / Incr 2 / Incr 3 from three sites: every two-step
        # integration order lands on the same state.
        p = (incr(0, 1, 1),)
        q = (incr(1, 1, 2),)
        r = (incr(2, 1, 3),)

        def integrate(h, x):
            return compose(h, transform_patch(C, 0, x, h).left)

        states = set()
        import itertools
        for a, b, c in itertools.permutations([p, q, r]):
            h = integrate(integrate(a, b), c)
            states.add(apply_patch(C, 0, h))
        assert states == {6}

    def test_matches_both_application_orders(self):
        p = (T.op(OpId(0, 1), "Ins", 1, "x"),)
        q = (T.op(OpId(1, 1), "Del", 0, 2),)
        via_p = apply_patch(T, "ab", confluent_rep(T, "ab", p, q))
        via_q = apply_patch(T, "ab", confluent_rep(T, "ab", q, p))
        assert via_p == via_q == "x"

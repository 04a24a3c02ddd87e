"""Primitive transform case tables, kind by kind.

Expected structural outputs were derived by applying both orders to the
starting state and checking convergence by hand; the state assertions in
each test re-run that derivation mechanically.
"""

import itertools

import pytest

from ccr import (
    InconsistencyError,
    OpId,
    apply_patch,
    compose,
    confluent_rep,
    transform_patch,
)
from ccr.replicas import replica_type

TEXT = replica_type("text")
CTR = replica_type("counter")
AM = replica_type("addmult")
LWW = replica_type("lww")
ESET = replica_type("eset")
Q = replica_type("queue")
POST = replica_type("socialpost")
MEDIA = replica_type("socialmedia")


def both_orders(rt, state, p, q):
    left, right = transform_patch(rt, state, p, q)
    via_p = apply_patch(rt, apply_patch(rt, state, p), right)
    via_q = apply_patch(rt, apply_patch(rt, state, q), left)
    assert rt.digest(via_p) == rt.digest(via_q)
    return via_p


def ins(site, seq, k, s):
    return TEXT.op(OpId(site, seq), "Ins", k, s)


def dele(site, seq, k, n):
    return TEXT.op(OpId(site, seq), "Del", k, n)


class TestTextInsIns:
    def test_earlier_position_unchanged_later_shifts(self):
        a, b = ins(0, 1, 1, "xy"), ins(1, 1, 3, "z")
        left, right = transform_patch(TEXT, "abcd", (a,), (b,))
        assert left == (a,)
        assert right == (ins(1, 1, 5, "z"),)
        assert both_orders(TEXT, "abcd", (a,), (b,)) == "axybczd"

    def test_equal_position_smaller_site_first(self):
        a, b = ins(0, 1, 2, "A"), ins(1, 1, 2, "B")
        left, right = transform_patch(TEXT, "abcd", (a,), (b,))
        assert left == (a,)
        assert right == (ins(1, 1, 3, "B"),)
        assert both_orders(TEXT, "abcd", (a,), (b,)) == "abABcd"

    def test_symmetric(self):
        a, b = ins(0, 1, 2, "A"), ins(1, 1, 2, "B")
        r1 = transform_patch(TEXT, "abcd", (a,), (b,))
        r2 = transform_patch(TEXT, "abcd", (b,), (a,))
        assert r1.left == r2.right
        assert r1.right == r2.left


class TestTextInsDel:
    def test_insert_at_or_before_range_start(self):
        a, b = ins(0, 1, 1, "xy"), dele(1, 1, 1, 2)
        left, right = transform_patch(TEXT, "abcd", (a,), (b,))
        assert left == (a,)
        assert right == (dele(1, 1, 3, 2),)
        assert both_orders(TEXT, "abcd", (a,), (b,)) == "axyd"

    def test_insert_at_range_end(self):
        # A delete hides without shifting: the insert keeps its position.
        a, b = ins(0, 1, 3, "x"), dele(1, 1, 1, 2)
        left, right = transform_patch(TEXT, "abcd", (a,), (b,))
        assert left == (a,)
        assert right == (b,)
        assert both_orders(TEXT, "abcd", (a,), (b,)) == "axd"

    def test_insert_inside_range_survives_and_delete_splits(self):
        a, b = ins(0, 1, 2, "XY"), dele(1, 1, 1, 3)
        left, right = transform_patch(TEXT, "abcdef", (a,), (b,))
        assert left == (a,)
        assert right == (dele(1, 1, 1, 1), dele(1, 1, 4, 2))
        assert both_orders(TEXT, "abcdef", (a,), (b,)) == "aXYef"

    def test_mirror_argument_order(self):
        a, b = dele(0, 1, 1, 3), ins(1, 1, 2, "XY")
        left, right = transform_patch(TEXT, "abcdef", (a,), (b,))
        assert left == (dele(0, 1, 1, 1), dele(0, 1, 4, 2))
        assert right == (b,)
        assert both_orders(TEXT, "abcdef", (a,), (b,)) == "aXYef"


class TestTextDelDel:
    def test_disjoint(self):
        a, b = dele(0, 1, 0, 1), dele(1, 1, 3, 1)
        left, right = transform_patch(TEXT, "abcd", (a,), (b,))
        assert left == (a,)
        assert right == (b,)
        assert both_orders(TEXT, "abcd", (a,), (b,)) == "bc"

    def test_overlap_keeps_residuals(self):
        # Pinned: "abcdef", Del(1,3) vs Del(2,3) -> (Del(1,1), Del(4,1)),
        # both orders "af".
        a, b = dele(0, 1, 1, 3), dele(1, 1, 2, 3)
        left, right = transform_patch(TEXT, "abcdef", (a,), (b,))
        assert left == (dele(0, 1, 1, 1),)
        assert right == (dele(1, 1, 4, 1),)
        assert both_orders(TEXT, "abcdef", (a,), (b,)) == "af"

    def test_contained_range_cancels(self):
        # The outer range keeps the runs on either side of the inner one.
        a, b = dele(0, 1, 1, 4), dele(1, 1, 2, 2)
        left, right = transform_patch(TEXT, "abcdef", (a,), (b,))
        assert left == (dele(0, 1, 1, 1), dele(0, 1, 4, 1))
        assert right == ()
        assert both_orders(TEXT, "abcdef", (a,), (b,)) == "af"

    def test_equal_ranges_cancel_both(self):
        a, b = dele(0, 1, 1, 2), dele(1, 1, 1, 2)
        assert transform_patch(TEXT, "abcd", (a,), (b,)) == ((), ())


class TestTextThreeSites:
    def test_classic_insert_between_concurrent_edits(self):
        # "abc": site 0 inserts inside what site 1 deletes, site 2 inserts
        # past the range.  Every integration order must land on "xyc".
        D = "abc"
        p = (ins(0, 1, 1, "x"),)
        q = (dele(1, 1, 0, 2),)
        r = (ins(2, 1, 2, "y"),)

        def integrate(h, x):
            return compose(h, transform_patch(TEXT, D, x, h).left)

        finals = set()
        for a, b, c in itertools.permutations([p, q, r]):
            finals.add(apply_patch(TEXT, D, integrate(integrate(a, b), c)))
        assert finals == {"xyc"}


class TestCounter:
    def test_everything_commutes(self):
        a = CTR.op(OpId(0, 1), "Incr", 2)
        b = CTR.op(OpId(1, 1), "Decr", 5)
        assert transform_patch(CTR, 0, (a,), (b,)) == ((a,), (b,))
        assert both_orders(CTR, 0, (a,), (b,)) == -3


class TestAddMult:
    def test_pinned_add_mult(self):
        # From 1: Add 2 against Mult 3 -> (Add 6, Mult 3); both orders 9.
        a = AM.op(OpId(0, 1), "Add", 2)
        b = AM.op(OpId(1, 1), "Mult", 3)
        left, right = transform_patch(AM, 1, (a,), (b,))
        assert left == (AM.op(OpId(0, 1), "Add", 6),)
        assert right == (b,)
        assert both_orders(AM, 1, (a,), (b,)) == 9

    def test_mirror(self):
        a = AM.op(OpId(0, 1), "Mult", 3)
        b = AM.op(OpId(1, 1), "Add", 2)
        left, right = transform_patch(AM, 1, (a,), (b,))
        assert left == (a,)
        assert right == (AM.op(OpId(1, 1), "Add", 6),)

    def test_law_small_grid(self):
        for d in (-3, 0, 4):
            for m in (-2, 1, 5):
                for n in (-1, 0, 2):
                    a = AM.op(OpId(0, 1), "Add", m)
                    b = AM.op(OpId(1, 1), "Mult", n)
                    assert both_orders(AM, d, (a,), (b,)) == (d + m) * n

    def test_same_kind_pairs_commute(self):
        a = AM.op(OpId(0, 1), "Add", 2)
        b = AM.op(OpId(1, 1), "Add", 7)
        assert transform_patch(AM, 0, (a,), (b,)) == ((a,), (b,))
        a = AM.op(OpId(0, 1), "Mult", 2)
        b = AM.op(OpId(1, 1), "Mult", 7)
        assert transform_patch(AM, 0, (a,), (b,)) == ((a,), (b,))


def write(site, seq, s, drop=()):
    return LWW.op(OpId(site, seq), "WriteExcept", s, frozenset(drop))


class TestLww:
    def test_concurrent_writes_keep_each_other(self):
        a, b = write(0, 1, "a"), write(1, 1, "b")
        assert transform_patch(LWW, frozenset(), (a,), (b,)) == ((a,), (b,))
        final = both_orders(LWW, frozenset(), (a,), (b,))
        assert LWW.digest_value(final) == ["a", "b"]

    def test_later_solo_write_collapses(self):
        a, b = write(0, 1, "a"), write(1, 1, "b")
        merged = apply_patch(LWW, frozenset(), confluent_rep(LWW, frozenset(), (a,), (b,)))
        final = apply_patch(LWW, merged, (write(0, 2, "c", {OpId(0, 1), OpId(1, 1)}),))
        assert LWW.digest_value(final) == ["c"]

    def test_three_concurrent_writes_all_survive(self):
        D = frozenset()
        p, q, r = (write(0, 1, "a"),), (write(1, 1, "b"),), (write(2, 1, "c"),)

        def integrate(h, x):
            return compose(h, transform_patch(LWW, D, x, h).left)

        for a, b, c in itertools.permutations([p, q, r]):
            final = apply_patch(LWW, D, integrate(integrate(a, b), c))
            assert LWW.digest_value(final) == ["a", "b", "c"]


class TestESet:
    def test_concurrent_same_adds_cancel(self):
        a = ESET.op(OpId(0, 1), "Add", "x")
        b = ESET.op(OpId(1, 1), "Add", "x")
        assert transform_patch(ESET, frozenset(), (a,), (b,)) == ((), ())
        assert both_orders(ESET, frozenset(), (a,), (b,)) == frozenset({"x"})

    def test_concurrent_same_rems_cancel(self):
        a = ESET.op(OpId(0, 1), "Rem", "x")
        b = ESET.op(OpId(1, 1), "Rem", "x")
        assert transform_patch(ESET, frozenset({"x"}), (a,), (b,)) == ((), ())

    def test_distinct_elements_commute(self):
        a = ESET.op(OpId(0, 1), "Add", "x")
        b = ESET.op(OpId(1, 1), "Rem", "y")
        assert transform_patch(ESET, frozenset({"y"}), (a,), (b,)) == ((a,), (b,))

    def test_add_rem_same_element_is_inconsistent(self):
        a = ESET.op(OpId(0, 1), "Add", "x")
        b = ESET.op(OpId(1, 1), "Rem", "x")
        with pytest.raises(InconsistencyError):
            transform_patch(ESET, frozenset(), (a,), (b,))


class TestQueue:
    def test_enq_tie_break_by_site(self):
        D = Q.initial()
        a = Q.op(OpId(0, 1), "EnqAt", 0, "a")
        b = Q.op(OpId(1, 1), "EnqAt", 0, "b")
        final = both_orders(Q, D, (a,), (b,))
        assert Q.digest_value(final) == ["a", "b"]

    def test_concurrent_deq_of_same_entry_consumes_once(self):
        entry = OpId(9, 1)
        D = (((entry, "x"), (OpId(9, 2), "y")), frozenset())
        a = Q.op(OpId(0, 1), "Deq", entry)
        b = Q.op(OpId(1, 1), "Deq", entry)
        assert transform_patch(Q, D, (a,), (b,)) == ((), ())
        final = both_orders(Q, D, (a,), (b,))
        assert Q.digest_value(final) == ["y"]

    def test_distinct_deqs_commute(self):
        D = (((OpId(9, 1), "x"), (OpId(9, 2), "y")), frozenset())
        a = Q.op(OpId(0, 1), "Deq", OpId(9, 1))
        b = Q.op(OpId(1, 1), "Deq", OpId(9, 2))
        assert transform_patch(Q, D, (a,), (b,)) == ((a,), (b,))
        assert Q.digest_value(both_orders(Q, D, (a,), (b,))) == []

    def test_enq_and_deq_commute(self):
        D = (((OpId(9, 1), "x"),), frozenset())
        a = Q.op(OpId(0, 1), "EnqAt", 1, "z")
        b = Q.op(OpId(1, 1), "Deq", OpId(9, 1))
        assert transform_patch(Q, D, (a,), (b,)) == ((a,), (b,))
        assert Q.digest_value(both_orders(Q, D, (a,), (b,))) == ["z"]


class TestComposite:
    def test_tuple_distinct_slots_commute(self):
        D = POST.initial()
        a = POST.op(OpId(0, 1), "At", 2, ("Incr", 1))
        b = POST.op(OpId(1, 1), "At", 3, ("Incr", 1))
        assert transform_patch(POST, D, (a,), (b,)) == ((a,), (b,))
        final = both_orders(POST, D, (a,), (b,))
        assert POST.digest_value(final) == [[], [], 1, 1]

    def test_tuple_same_slot_delegates(self):
        D = POST.initial()
        a = POST.op(OpId(0, 1), "At", 0, ("WriteExcept", "hi", frozenset()))
        b = POST.op(OpId(1, 1), "At", 0, ("WriteExcept", "yo", frozenset()))
        final = both_orders(POST, D, (a,), (b,))
        assert POST.digest_value(final) == [["hi", "yo"], [], 0, 0]

    def test_map_auto_vivifies(self):
        op = MEDIA.op(OpId(0, 1), "Upd", "post1", (("At", 2, ("Incr", 1)),))
        final = apply_patch(MEDIA, {}, (op,))
        assert MEDIA.digest_value(final) == {"post1": [[], [], 1, 0]}

    def test_map_distinct_keys_commute(self):
        a = MEDIA.op(OpId(0, 1), "Upd", "p1", (("At", 2, ("Incr", 1)),))
        b = MEDIA.op(OpId(1, 1), "Upd", "p2", (("At", 3, ("Incr", 1)),))
        assert transform_patch(MEDIA, {}, (a,), (b,)) == ((a,), (b,))

    def test_map_same_key_transforms_inner(self):
        a = MEDIA.op(OpId(0, 1), "Upd", "p1", (("At", 1, ("Add", "nice")),))
        b = MEDIA.op(OpId(1, 1), "Upd", "p1", (("At", 1, ("Add", "nice")),))
        left, right = transform_patch(MEDIA, {}, (a,), (b,))
        assert left == () and right == ()
        final = both_orders(MEDIA, {}, (a,), (b,))
        assert MEDIA.digest_value(final) == {"p1": [[], ["nice"], 0, 0]}

    def test_map_same_key_concurrent_likes_both_count(self):
        a = MEDIA.op(OpId(0, 1), "Upd", "p1", (("At", 2, ("Incr", 1)),))
        b = MEDIA.op(OpId(1, 1), "Upd", "p1", (("At", 2, ("Incr", 1)),))
        final = both_orders(MEDIA, {}, (a,), (b,))
        assert MEDIA.digest_value(final) == {"p1": [[], [], 2, 0]}

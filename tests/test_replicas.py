"""Per-kind state machines: initial states, generation guards, application
guards, canonical digests."""

import random

import pytest

from ccr import ApplyError, IntentError, OpId, apply_patch
from ccr.protocol import SiteState
from ccr.replicas import replica_type

U = OpId(0, 1)


@pytest.mark.parametrize("kind, first, intent", [
    ("counter", None, ("incr", True)),
    ("addmult", None, ("mult", False)),
    ("tuple<counter,text>", None, ("at", False, ("incr", 2))),
    ("text", ("ins", 0, "ab"), ("ins", True, "x")),
    ("text", ("ins", 0, "ab"), ("del", 0, True)),
], ids=["counter", "addmult", "tuple-index", "text-position", "text-length"])
def test_boolean_intent_arguments_are_refused(kind, first, intent):
    # A boolean committed as an integer would go out as JSON true/false,
    # which every peer's decoder refuses, dropping the link.
    site = SiteState(0, replica_type(kind))
    if first:
        site.local_update(first)
    made = len(site.history)
    with pytest.raises(IntentError):
        site.local_update(intent)
    assert len(site.history) == made


class TestCounter:
    rt = replica_type("counter")

    def test_initial_and_digest(self):
        assert self.rt.initial() == 0
        assert self.rt.digest(0) == "0"

    def test_gen_rejects_zero(self):
        assert self.rt.gen_effective(0, ("incr", 0), U) is None
        op = self.rt.gen_effective(0, ("incr", 3), U)
        assert op.body == ("Incr", 3)
        assert op.uid == U

    def test_gen_malformed(self):
        with pytest.raises(IntentError):
            self.rt.gen_effective(0, ("incr", "x"), U)

    def test_overflow_wraps(self):
        big = self.rt.op(U, "Incr", 2**63 - 1)
        assert self.rt.apply(0, big) == 2**63 - 1
        assert self.rt.apply(1, big) == -(2**63)
        assert self.rt.apply(0, self.rt.op(U, "Decr", 2**63 + 1)) == 2**63 - 1


class TestAddMult:
    rt = replica_type("addmult")

    def test_arbitrary_precision(self):
        state = 1
        op = self.rt.op(U, "Mult", 10**30)
        state = self.rt.apply(state, op)
        state = self.rt.apply(state, self.rt.op(OpId(0, 2), "Mult", 10**30))
        assert state == 10**60

    def test_gen_guards(self):
        assert self.rt.gen_effective(5, ("add", 0), U) is None
        assert self.rt.gen_effective(5, ("mult", 1), U) is None
        assert self.rt.gen_effective(5, ("mult", 0), U).body == ("Mult", 0)


class TestLww:
    rt = replica_type("lww")

    def test_write_replaces(self):
        s = self.rt.initial()
        s = self.rt.apply(s, self.rt.op(OpId(0, 1), "WriteExcept", "a", frozenset()))
        s = self.rt.apply(s, self.rt.op(OpId(0, 2), "WriteExcept", "b", frozenset({OpId(0, 1)})))
        assert self.rt.digest_value(s) == ["b"]

    def test_drop_set_removes_only_named_candidates(self):
        s = frozenset({(OpId(1, 1), "x"), (OpId(2, 1), "y")})
        op = self.rt.op(OpId(0, 1), "WriteExcept", "z", frozenset({OpId(2, 1)}))
        assert self.rt.digest_value(self.rt.apply(s, op)) == ["x", "z"]

    def test_write_drops_the_candidates_it_saw(self):
        s = frozenset({(OpId(1, 1), "x"), (OpId(2, 1), "y")})
        op = self.rt.gen_effective(s, ("write", "z"), U)
        assert op.body == ("WriteExcept", "z", frozenset({OpId(1, 1), OpId(2, 1)}))

    def test_digest_dedupes_equal_strings(self):
        s = frozenset({(OpId(1, 1), "x"), (OpId(2, 1), "x")})
        assert self.rt.digest_value(s) == ["x"]

    def test_write_always_effective(self):
        assert self.rt.gen_effective(frozenset(), ("write", "hi"), U) is not None


class TestESet:
    rt = replica_type("eset")

    def test_gen_guards(self):
        assert self.rt.gen_effective(frozenset(), ("add", "x"), U).body == ("Add", "x")
        assert self.rt.gen_effective(frozenset({"x"}), ("add", "x"), U) is None
        assert self.rt.gen_effective(frozenset({"x"}), ("rem", "x"), U).body == ("Rem", "x")
        assert self.rt.gen_effective(frozenset(), ("rem", "x"), U) is None

    def test_apply_is_guarded_noop(self):
        s = frozenset({"x"})
        assert self.rt.apply(s, self.rt.op(U, "Add", "x")) == s
        assert self.rt.apply(s, self.rt.op(U, "Rem", "y")) == s

    def test_digest_sorted(self):
        assert self.rt.digest_value(frozenset({"b", "a"})) == ["a", "b"]


class TestQueue:
    rt = replica_type("queue")

    def test_enq_then_deq(self):
        s = self.rt.initial()
        e1 = self.rt.gen_effective(s, ("enq", "a"), OpId(0, 1))
        s = self.rt.apply(s, e1)
        s = self.rt.apply(s, self.rt.gen_effective(s, ("enq", "b"), OpId(0, 2)))
        assert self.rt.digest_value(s) == ["a", "b"]
        d = self.rt.gen_effective(s, ("deq",), OpId(0, 3))
        assert d.body == ("Deq", OpId(0, 1))
        s = self.rt.apply(s, d)
        assert self.rt.digest_value(s) == ["b"]

    def test_deq_on_empty_is_ineffective(self):
        assert self.rt.gen_effective(self.rt.initial(), ("deq",), U) is None

    def test_deq_skips_already_dequeued(self):
        s = (((OpId(9, 1), "x"), (OpId(9, 2), "y")), frozenset({OpId(9, 1)}))
        d = self.rt.gen_effective(s, ("deq",), U)
        assert d.body == ("Deq", OpId(9, 2))

    def test_enq_index_checked(self):
        with pytest.raises(ApplyError):
            self.rt.apply(self.rt.initial(), self.rt.op(U, "EnqAt", 1, "x"))


class TestText:
    rt = replica_type("text")

    def test_round_trip(self):
        s = ""
        s = self.rt.apply(s, self.rt.op(OpId(0, 1), "Ins", 0, "hello"))
        s = self.rt.apply(s, self.rt.op(OpId(0, 2), "Del", 0, 2))
        assert s == "llo"

    def test_gen_bounds(self):
        with pytest.raises(IntentError):
            self.rt.gen_effective("ab", ("ins", 3, "x"), U)
        with pytest.raises(IntentError):
            self.rt.gen_effective("ab", ("del", 1, 2), U)
        assert self.rt.gen_effective("ab", ("ins", 2, ""), U) is None
        assert self.rt.gen_effective("ab", ("del", 0, 0), U) is None

    def test_apply_bounds(self):
        with pytest.raises(ApplyError):
            apply_patch(self.rt, "ab", (self.rt.op(U, "Del", 1, 5),))

    def test_deleted_characters_stay_hidden_in_the_model(self):
        s = self.rt.apply("abcd", self.rt.op(OpId(0, 1), "Del", 1, 2))
        assert s == "ad" and len(s) == 2
        assert (s.model, s.mask) == ("abcd", b"\x01\x00\x00\x01")
        # Positions are model positions: 3 is still before "d".
        s = self.rt.apply(s, self.rt.op(OpId(0, 2), "Ins", 3, "X"))
        assert s == "aXd"
        # A range may span characters already hidden.
        assert self.rt.apply(s, self.rt.op(OpId(0, 3), "Del", 0, 4)) == "d"

    def test_view_intents_map_to_model_positions(self):
        s = self.rt.apply("abcd", self.rt.op(OpId(0, 1), "Del", 1, 2))  # view "ad"
        # An insert lands right after the visible character before it.
        assert self.rt.gen_effective(s, ("ins", 1, "X"), U).body == ("Ins", 1, "X")
        assert self.rt.gen_effective(s, ("ins", 2, "X"), U).body == ("Ins", 4, "X")
        # A delete spans the hidden characters between its ends.
        assert self.rt.gen_effective(s, ("del", 0, 2), U).body == ("Del", 0, 4)
        assert self.rt.gen_effective(s, ("del", 1, 1), U).body == ("Del", 3, 1)
        with pytest.raises(IntentError):
            self.rt.gen_effective(s, ("del", 1, 2), U)

    def test_states_equal_only_with_equal_models(self):
        hid_b = self.rt.apply("ab", self.rt.op(OpId(0, 1), "Del", 1, 1))
        hid_c = self.rt.apply("ac", self.rt.op(OpId(0, 1), "Del", 1, 1))
        assert hid_b == "a" == hid_c
        assert hid_b != hid_c
        assert self.rt.digest(hid_b) == self.rt.digest(hid_c) == '"a"'


class RefText:
    """Reference text model: a list of [character, visible] cells."""

    def __init__(self, text):
        self.cells = [[c, True] for c in text]

    def apply(self, body):
        if body[0] == "Ins":
            _, k, s = body
            self.cells[k:k] = [[c, True] for c in s]
        else:
            _, k, n = body
            for cell in self.cells[k:k + n]:
                cell[1] = False

    def model(self):
        return "".join(c for c, _ in self.cells)

    def mask(self):
        return bytes(v for _, v in self.cells)

    def view(self):
        return "".join(c for c, v in self.cells if v)

    def gen(self, intent):
        """The op body an effective view intent should become."""
        at = [i for i, (_, v) in enumerate(self.cells) if v]
        if intent[0] == "ins":
            _, k, s = intent
            return ("Ins", 0 if k == 0 else at[k - 1] + 1, s)
        _, k, n = intent
        return ("Del", at[k], at[k + n - 1] + 1 - at[k])


class TestTextAgainstReference:
    rt = replica_type("text")

    def _model_op(self, rng, ref):
        """A raw model op: inserts at both ends, and deletes that may lie
        wholly over runs already hidden."""
        size = len(ref.cells)
        r = rng.random()
        if size == 0 or r < 0.45:
            k = rng.choice((0, size, rng.randint(0, size)))
            return ("Ins", k, "".join(rng.choice("xyz") for _ in range(rng.randint(1, 4))))
        hidden = [i for i, (_, v) in enumerate(ref.cells) if not v]
        if hidden and r < 0.6:
            k = rng.choice(hidden)
            n = 1
            while k + n < size and not ref.cells[k + n][1]:
                n += 1
            return ("Del", k, n)
        k = rng.randrange(size)
        return ("Del", k, rng.randint(1, min(6, size - k)))

    def _check(self, state, ref):
        assert state.model == ref.model() and state.mask == ref.mask()
        self._check_view(state, ref)

    def _check_view(self, state, ref):
        assert len(state) == len(ref.view()) and str(state) == ref.view()
        assert state == ref.view() and bool(state) == bool(ref.view())
        for intent in (("ins", 0, "q"), ("ins", len(state), "q")):
            assert self.rt.gen_effective(state, intent, U).body == ref.gen(intent)
        if len(state):
            k = len(state) // 2
            for intent in (("ins", k, "q"), ("del", 0, len(state)), ("del", k, len(state) - k)):
                assert self.rt.gen_effective(state, intent, U).body == ref.gen(intent)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_ops_match_the_reference(self, seed):
        rng = random.Random(seed)
        start = "" if seed % 3 == 0 else "".join(rng.choice("abc") for _ in range(rng.randint(1, 40)))
        state, ref = start, RefText(start)  # a plain str is a state too
        self._check_view(state, ref)
        for step in range(300):
            if rng.random() < 0.5 or not len(ref.view()):
                body = self._model_op(rng, ref)
            else:
                intent = self.rt.draw_intent(rng, state)
                body = self.rt.gen_effective(state, intent, U).body
                assert body == ref.gen(intent)
            new = self.rt.apply(state, self.rt.op(OpId(0, step + 1), *body))
            before = ref.mask()
            ref.apply(body)
            if body[0] == "Del" and not any(before[body[1]:body[1] + body[2]]):
                assert len(new) == len(state) and new == state  # nothing left to hide
            else:
                assert new != state
            state = new
            self._check(state, ref)


class TestComposites:
    post = replica_type("socialpost")
    media = replica_type("socialmedia")

    def test_post_intents_route_to_slots(self):
        s = self.post.initial()
        op = self.post.gen_effective(s, ("at", 2, ("incr", 1)), U)
        assert op.body == ("At", 2, ("Incr", 1))
        assert self.post.digest_value(self.post.apply(s, op)) == [[], [], 1, 0]

    def test_ineffective_inner_intent_bubbles_up(self):
        s = self.media.initial()
        op = self.media.gen_effective(s, ("upd", "p1", ("at", 1, ("add", "c"))), OpId(0, 1))
        s = self.media.apply(s, op)
        again = self.media.gen_effective(s, ("upd", "p1", ("at", 1, ("add", "c"))), OpId(0, 2))
        assert again is None

    def test_media_digest_sorts_keys(self):
        s = self.media.initial()
        s = self.media.apply(s, self.media.op(OpId(0, 1), "Upd", "zz", ("At", 2, ("Incr", 1))))
        s = self.media.apply(s, self.media.op(OpId(0, 2), "Upd", "aa", ("At", 3, ("Incr", 2))))
        assert self.media.digest(s) == '{"aa":[[],[],0,2],"zz":[[],[],1,0]}'

    def test_tuple_index_guard(self):
        with pytest.raises(IntentError):
            self.post.gen_effective(self.post.initial(), ("at", 7, ("incr", 1)), U)
        with pytest.raises(ApplyError):
            self.post.apply(self.post.initial(), self.post.op(U, "At", 7, ("Incr", 1)))

    def test_kind_names(self):
        assert self.post.name == "tuple<lww,eset,counter,counter>"
        assert self.media.name == "map<tuple<lww,eset,counter,counter>>"


@pytest.mark.parametrize("kind", ["counter", "addmult", "lww", "eset", "queue", "text"])
def test_a_scalar_kind_is_one_instance(kind):
    assert replica_type(kind) is replica_type(f" {kind} ")
    assert replica_type(f"tuple<{kind}>").components[0] is replica_type(kind)


@pytest.mark.parametrize("kind, message", [
    ("nosuch", "unknown replica kind near 'nosuch'"),
    ("counterx", "trailing input in kind: 'x'"),
    ("map<text>>", "trailing input in kind: '>'"),
    ("tuple<>", "empty tuple kind"),
    ("tuple<lww;eset>", "bad kind syntax near ';eset>'"),
    ("map<counter", "bad kind syntax near ''"),
    ("map<socialpostx>", "bad kind syntax near 'x>'"),
])
def test_a_bad_kind_string_is_refused(kind, message):
    with pytest.raises(IntentError) as e:
        replica_type(kind)
    assert str(e.value) == message

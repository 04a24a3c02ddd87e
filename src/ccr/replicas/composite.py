"""Composite kinds: fixed tuples of components and string-keyed maps.

Component operations are addressed structurally: At(i, op) routes one op
into tuple slot i, Upd(key, op) routes one op into a map entry, creating it
from the component's initial state on first touch.  Both kinds share one
transform: ops on different slots or keys commute untouched; ops on the same
slot or key are transformed by the component, and the fragments of a split
stay sibling outer ops at that address, as a split text delete does.

Commands and random intents recurse the same way: ``at I <cmd>`` and
``upd KEY <cmd>`` wrap a command of the component.  The social-media post
shape, ``tuple<lww,eset,counter,counter>``, is a plain tuple in name, ops
and wire encoding with its own vocabulary: ``write S``, ``comment S``,
``like`` and ``dislike``, and ``post KEY <action>`` in a map of posts.

Inner operations are stored as bare bodies.  They are the same logical edit
as their wrapper, so they share its uid: recursing into a component pairs
the wrapper's uid with each inner body as ``Operation(uid, body)``.
"""

from __future__ import annotations

from typing import Tuple

from ..core import ApplyError, IntentError, Operation, WireError, is_int
from .base import ReplicaType, arity, int_arg

# In slot order: post action -> the intent it names on its slot.
_POST_ACTIONS = (("write", "write"), ("comment", "add"), ("like", "incr"), ("dislike", "incr"))
_COMMENTS = tuple(f"c{i}" for i in range(12))


def _command(rt: ReplicaType, tokens):
    """The intent of the command ``tokens`` for a component of kind ``rt``."""
    intent = rt.parse_intent(tokens[0], tokens[1:])
    if intent is None:
        raise IntentError(f"unknown command {tokens[0]!r} for {rt.name}")
    return intent


class _Routed(ReplicaType):
    """A kind whose op ``(tag, addr, body)`` routes one op ``body`` to the
    component ``component_at(addr)``, at a tuple slot or a map key."""

    def transform_prim(self, a, b):
        tag, addr, ba = a.body
        if addr != b.body[1]:
            return (a,), (b,)
        pa, pb = self.component_at(addr).transform_prim(
            Operation(a.uid, ba), Operation(b.uid, b.body[2]))
        return (tuple(self.op(o.uid, tag, addr, o.body) for o in pa),
                tuple(self.op(o.uid, tag, addr, o.body) for o in pb))


class TupleType(_Routed):
    def __init__(self, components: Tuple[ReplicaType, ...]):
        self.components = tuple(components)
        self.name = "tuple<" + ",".join(c.name for c in self.components) + ">"

    def initial(self):
        return tuple(c.initial() for c in self.components)

    def apply(self, state, op):
        tag, i, body = op.body
        if tag != "At":
            raise ApplyError(f"unknown tuple op {tag!r}")
        if not (0 <= i < len(self.components)):
            raise ApplyError(f"tuple index {i} out of range 0..{len(self.components) - 1}")
        slot = self.components[i].apply(state[i], Operation(op.uid, body))
        return state[:i] + (slot,) + state[i + 1:]

    def component_at(self, i):
        return self.components[i]

    def gen_effective(self, state, intent, uid):
        verb, i, inner_intent = intent
        if verb != "at":
            raise IntentError(f"tuple has no intent {verb!r}")
        if not is_int(i):
            raise IntentError("tuple index must be an integer")
        if not (0 <= i < len(self.components)):
            raise IntentError(f"tuple index {i} out of range 0..{len(self.components) - 1}")
        inner = self.components[i].gen_effective(state[i], inner_intent, uid)
        if inner is None:
            return None
        return self.op(uid, "At", i, inner.body)

    def parse_intent(self, verb, args):
        if verb != "at":
            return None
        if len(args) < 2:
            raise IntentError("at takes INDEX and a command")
        i = int_arg(args[0], "index")
        if not (0 <= i < len(self.components)):
            raise IntentError(f"tuple index {i} out of range 0..{len(self.components) - 1}")
        return ("at", i, _command(self.components[i], args[1:]))

    def draw_intent(self, rng, state):
        i = rng.randrange(len(self.components))
        return ("at", i, self.components[i].draw_intent(rng, state[i]))

    def digest_value(self, state):
        return [c.digest_value(s) for c, s in zip(self.components, state)]

    def encode_body(self, body):
        _, i, inner = body
        return {"type": "At", "i": i, "op": self.components[i].encode_body(inner)}

    def decode_body(self, obj):
        if obj.get("type") != "At":
            raise WireError(f"bad tuple op: {obj!r}")
        i = obj.get("i")
        if not is_int(i) or not (0 <= i < len(self.components)):
            raise WireError(f"bad tuple index: {obj!r}")
        if not isinstance(obj.get("op"), dict):
            raise WireError(f"bad tuple op: {obj!r}")
        return ("At", i, self.components[i].decode_body(obj["op"]))


class SocialPostType(TupleType):
    map_verb = "post"

    def parse_intent(self, verb, args):
        for i, (action, inner) in enumerate(_POST_ACTIONS):
            if verb == action:
                if inner == "incr":
                    arity(verb, args, 0)
                    return ("at", i, ("incr", 1))
                arity(verb, args, 1)
                return ("at", i, (inner, args[0]))
        return super().parse_intent(verb, args)

    def draw_intent(self, rng, state):
        i = int(rng.random() * len(_POST_ACTIONS))  # each action alike
        inner = _POST_ACTIONS[i][1]
        return ("at", i, ("incr", 1) if inner == "incr" else (inner, rng.choice(_COMMENTS)))


class MapType(_Routed):
    def __init__(self, component: ReplicaType):
        self.component = component
        self.name = f"map<{component.name}>"

    def initial(self):
        return {}

    def apply(self, state, op):
        tag, key, body = op.body
        if tag != "Upd":
            raise ApplyError(f"unknown map op {tag!r}")
        cur = state[key] if key in state else self.component.initial()
        new = dict(state)
        new[key] = self.component.apply(cur, Operation(op.uid, body))
        return new

    def component_at(self, key):
        return self.component

    def gen_effective(self, state, intent, uid):
        verb, key, inner_intent = intent
        if verb != "upd":
            raise IntentError(f"map has no intent {verb!r}")
        if not isinstance(key, str):
            raise IntentError("map key must be a string")
        comp_state = state[key] if key in state else self.component.initial()
        inner = self.component.gen_effective(comp_state, inner_intent, uid)
        if inner is None:
            return None
        return self.op(uid, "Upd", key, inner.body)

    def parse_intent(self, verb, args):
        if verb not in ("upd", self.component.map_verb):
            return None
        if len(args) < 2:
            raise IntentError(f"{verb} takes KEY and a command")
        return ("upd", args[0], _command(self.component, args[1:]))

    def draw_intent(self, rng, state):
        key = rng.choice(("p1", "p2", "p3"))
        entry = state[key] if key in state else self.component.initial()
        return ("upd", key, self.component.draw_intent(rng, entry))

    def digest_value(self, state):
        return {k: self.component.digest_value(v) for k, v in state.items()}

    # "patch" stays a list, of one op, so unsplit ops keep their old frames.
    def encode_body(self, body):
        _, key, inner = body
        return {"type": "Upd", "key": key, "patch": [self.component.encode_body(inner)]}

    def decode_body(self, obj):
        if obj.get("type") != "Upd" or not isinstance(obj.get("key"), str):
            raise WireError(f"bad map op: {obj!r}")
        patch = obj.get("patch")
        if not isinstance(patch, list) or len(patch) != 1 or not isinstance(patch[0], dict):
            raise WireError(f"bad map op patch: {obj!r}")
        return ("Upd", obj["key"], self.component.decode_body(patch[0]))

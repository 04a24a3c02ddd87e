"""Composite kinds: fixed tuples of components and string-keyed maps.

Component operations are addressed structurally: At(i, op) routes into tuple
slot i, Upd(key, patch) routes into a map entry, creating it from the
component's initial state on first touch.  Transformation delegates: ops on
different slots or keys commute untouched; ops on the same slot or key are
transformed by the component (for maps, via the full sweep, since an Upd
carries a whole inner patch).

Inner operations are stored as bare bodies.  They are the same logical edit
as their wrapper, so they share its uid; full inner Operations are
synthesized on demand when recursing.
"""

from __future__ import annotations

from typing import Tuple

from ..core import ApplyError, IntentError, Operation, WireError, transform_patch
from .base import ReplicaType


class TupleType(ReplicaType):
    def __init__(self, components: Tuple[ReplicaType, ...]):
        self.components = tuple(components)
        self.name = "tuple<" + ",".join(c.name for c in self.components) + ">"

    def initial(self):
        return tuple(c.initial() for c in self.components)

    def _inner(self, uid, i, body) -> Operation:
        return Operation(uid, self.components[i].name, body)

    def apply(self, state, op):
        tag, i, body = op.body
        if tag != "At":
            raise ApplyError(f"unknown tuple op {tag!r}")
        if not (0 <= i < len(self.components)):
            raise ApplyError(f"tuple index {i} out of range 0..{len(self.components) - 1}")
        comp = self.components[i]
        slot = comp.apply(state[i], self._inner(op.uid, i, body))
        return state[:i] + (slot,) + state[i + 1:]

    def transform_prim(self, a, b):
        _, ia, ba = a.body
        _, ib, bb = b.body
        if ia != ib:
            return (a,), (b,)
        comp = self.components[ia]
        pa, pb = comp.transform_prim(self._inner(a.uid, ia, ba), self._inner(b.uid, ib, bb))
        a2 = tuple(self.op(o.uid, "At", ia, o.body) for o in pa)
        b2 = tuple(self.op(o.uid, "At", ia, o.body) for o in pb)
        return a2, b2

    def gen_effective(self, state, intent, uid):
        verb, i, inner_intent = intent
        if verb != "at":
            raise IntentError(f"tuple has no intent {verb!r}")
        if not (0 <= i < len(self.components)):
            raise IntentError(f"tuple index {i} out of range 0..{len(self.components) - 1}")
        inner = self.components[i].gen_effective(state[i], inner_intent, uid)
        if inner is None:
            return None
        return self.op(uid, "At", i, inner.body)

    def digest_value(self, state):
        return [c.digest_value(s) for c, s in zip(self.components, state)]

    def encode_body(self, body):
        _, i, inner = body
        return {"type": "At", "i": i, "op": self.components[i].encode_body(inner)}

    def decode_body(self, obj):
        if obj.get("type") != "At":
            raise WireError(f"bad tuple op: {obj!r}")
        i = obj.get("i")
        if not isinstance(i, int) or not (0 <= i < len(self.components)):
            raise WireError(f"bad tuple index: {obj!r}")
        if not isinstance(obj.get("op"), dict):
            raise WireError(f"bad tuple op: {obj!r}")
        return ("At", i, self.components[i].decode_body(obj["op"]))


class MapType(ReplicaType):
    def __init__(self, component: ReplicaType):
        self.component = component
        self.name = f"map<{component.name}>"

    def initial(self):
        return {}

    def _inner_patch(self, uid, bodies):
        return tuple(Operation(uid, self.component.name, b) for b in bodies)

    def apply(self, state, op):
        tag, key, bodies = op.body
        if tag != "Upd":
            raise ApplyError(f"unknown map op {tag!r}")
        cur = state.get(key, self.component.initial())
        for inner in self._inner_patch(op.uid, bodies):
            cur = self.component.apply(cur, inner)
        new = dict(state)
        new[key] = cur
        return new

    def transform_prim(self, a, b):
        _, ka, pa = a.body
        _, kb, pb = b.body
        if ka != kb:
            return (a,), (b,)
        # The entry's state is not at hand, and the sweep reads none.
        left, right = transform_patch(
            self.component, None, self._inner_patch(a.uid, pa), self._inner_patch(b.uid, pb)
        )
        a2 = (self.op(a.uid, "Upd", ka, tuple(o.body for o in left)),) if left else ()
        b2 = (self.op(b.uid, "Upd", kb, tuple(o.body for o in right)),) if right else ()
        return a2, b2

    def gen_effective(self, state, intent, uid):
        verb, key, inner_intent = intent
        if verb != "upd":
            raise IntentError(f"map has no intent {verb!r}")
        if not isinstance(key, str):
            raise IntentError("map key must be a string")
        comp_state = state.get(key, self.component.initial())
        inner = self.component.gen_effective(comp_state, inner_intent, uid)
        if inner is None:
            return None
        return self.op(uid, "Upd", key, (inner.body,))

    def digest_value(self, state):
        return {k: self.component.digest_value(v) for k, v in state.items()}

    def encode_body(self, body):
        _, key, bodies = body
        return {
            "type": "Upd",
            "key": key,
            "patch": [self.component.encode_body(b) for b in bodies],
        }

    def decode_body(self, obj):
        if obj.get("type") != "Upd" or not isinstance(obj.get("key"), str):
            raise WireError(f"bad map op: {obj!r}")
        patch = obj.get("patch")
        if not isinstance(patch, list) or not all(isinstance(x, dict) for x in patch):
            raise WireError(f"bad map op patch: {obj!r}")
        return ("Upd", obj["key"], tuple(self.component.decode_body(x) for x in patch))

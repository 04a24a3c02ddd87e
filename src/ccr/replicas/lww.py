"""Last-writer-wins register, without the clock: the multi-value register of
Shapiro, Preguiça, Baquero & Zawirski (INRIA RR-7506, 2011).

There is no global "last", so the state keeps a *candidate set* of
(uid, string) pairs.  A write is WriteExcept(s, drop): it drops the
candidates whose uids are in its drop set, the candidates its site saw when
it was made, then adds itself.  A concurrent write is never among them, so
concurrent writes survive side by side and any later solo write collapses
the set to one again.  Transformation rewrites nothing, so an op never grows
after it is made.
"""

from __future__ import annotations

from ..core import ApplyError, IntentError, WireError, decode_uid, encode_uid
from .base import ReplicaType, random_word


class LwwType(ReplicaType):
    name = "lww"
    verbs = {"write": ("text",)}

    def initial(self):
        return frozenset()

    def apply(self, state, op):
        tag, s, drop = op.body
        if tag != "WriteExcept":
            raise ApplyError(f"unknown lww op {tag!r}")
        return frozenset(c for c in state if c[0] not in drop) | {(op.uid, s)}

    def transform_prim(self, a, b):
        return (a,), (b,)

    def gen_effective(self, state, intent, uid):
        verb, s = intent
        if verb not in self.verbs:
            raise IntentError(f"lww has no intent {verb!r}")
        if not isinstance(s, str):
            raise IntentError("lww payload must be a string")
        return self.op(uid, "WriteExcept", s, frozenset(u for u, _ in state))

    def draw_intent(self, rng, state):
        return ("write", random_word(rng))

    def digest_value(self, state):
        return sorted({s for (_, s) in state})

    def encode_body(self, body):
        _, s, drop = body
        return {
            "type": "WriteExcept",
            "s": s,
            "drop": [encode_uid(u) for u in sorted(drop)],
        }

    def decode_body(self, obj):
        if obj.get("type") != "WriteExcept" or not isinstance(obj.get("s"), str):
            raise WireError(f"bad lww op: {obj!r}")
        drop = obj.get("drop")
        if not isinstance(drop, list):
            raise WireError(f"bad lww drop set: {obj!r}")
        return ("WriteExcept", obj["s"], frozenset(decode_uid(u) for u in drop))

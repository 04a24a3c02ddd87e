"""Last-writer-wins register, without the clock.

There is no global "last", so the state keeps a *candidate set* of
(uid, string) pairs.  A write is really WriteExcept(s, keep): drop every
candidate whose uid is not in the keep set, then add yourself.  A freshly
generated write has an empty keep set (it supersedes everything its site has
seen); transformation against a concurrent write adds that write's uid to the
keep set, so truly concurrent writes survive side by side and any later solo
write collapses the set to a singleton again.
"""

from __future__ import annotations

from ..core import ApplyError, IntentError, WireError, decode_uid
from .base import ReplicaType, random_word


class LwwType(ReplicaType):
    name = "lww"
    verbs = {"write": ("text",)}

    def initial(self):
        return frozenset()

    def apply(self, state, op):
        tag, s, keep = op.body
        if tag != "WriteExcept":
            raise ApplyError(f"unknown lww op {tag!r}")
        return frozenset(c for c in state if c[0] in keep) | {(op.uid, s)}

    def transform_prim(self, a, b):
        ta, sa, ka = a.body
        tb, sb, kb = b.body
        a2 = self.op(a.uid, "WriteExcept", sa, ka | {b.uid})
        b2 = self.op(b.uid, "WriteExcept", sb, kb | {a.uid})
        return (a2,), (b2,)

    def gen_effective(self, state, intent, uid):
        verb, s = intent
        if verb not in self.verbs:
            raise IntentError(f"lww has no intent {verb!r}")
        if not isinstance(s, str):
            raise IntentError("lww payload must be a string")
        return self.op(uid, "WriteExcept", s, frozenset())

    def draw_intent(self, rng, state):
        return ("write", random_word(rng))

    def digest_value(self, state):
        return sorted({s for (_, s) in state})

    def encode_body(self, body):
        _, s, keep = body
        return {
            "type": "WriteExcept",
            "s": s,
            "keep": [{"site": u.site, "seq": u.seq} for u in sorted(keep)],
        }

    def decode_body(self, obj):
        if obj.get("type") != "WriteExcept" or not isinstance(obj.get("s"), str):
            raise WireError(f"bad lww op: {obj!r}")
        keep = obj.get("keep")
        if not isinstance(keep, list):
            raise WireError(f"bad lww keep set: {obj!r}")
        return ("WriteExcept", obj["s"], frozenset(decode_uid(u) for u in keep))

"""Signed 64-bit counter.  Incr and Decr commute, so transformation never
rewrites anything.  An intent that would overflow is refused; concurrent ops
that overflow together wrap around, which commutes, so every site agrees."""

from __future__ import annotations

from ..core import ApplyError, IntentError, WireError, is_int
from .base import ReplicaType

_MIN = -(2**63)
_MAX = 2**63 - 1


class CounterType(ReplicaType):
    name = "counter"
    verbs = {"incr": ("amount",), "decr": ("amount",)}

    def initial(self):
        return 0

    def apply(self, state, op):
        tag, n = op.body
        if tag == "Incr":
            v = state + n
        elif tag == "Decr":
            v = state - n
        else:
            raise ApplyError(f"unknown counter op {tag!r}")
        return (v - _MIN) % 2**64 + _MIN

    def transform_prim(self, a, b):
        return (a,), (b,)

    def gen_effective(self, state, intent, uid):
        verb, n = intent
        if verb not in self.verbs:
            raise IntentError(f"counter has no intent {verb!r}")
        if not is_int(n):
            raise IntentError("counter amount must be an integer")
        if n == 0:
            return None
        if not (_MIN <= (state + n if verb == "incr" else state - n) <= _MAX):
            raise IntentError("counter would overflow")
        return self.op(uid, "Incr" if verb == "incr" else "Decr", n)

    def draw_intent(self, rng, state):
        return (rng.choice(("incr", "decr")), rng.randint(1, 9))

    def digest_value(self, state):
        return state

    def encode_body(self, body):
        return {"type": body[0], "n": body[1]}

    def decode_body(self, obj):
        tag, n = obj.get("type"), obj.get("n")
        if tag not in ("Incr", "Decr") or not is_int(n) or not 0 < abs(n) < 2**64:
            raise WireError(f"bad counter op: {obj!r}")
        return (tag, n)

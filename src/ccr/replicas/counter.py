"""Signed 64-bit counter.  Incr and Decr commute, so transformation never
rewrites anything; overflow is an application error, not wraparound."""

from __future__ import annotations

from ..core import ApplyError, IntentError, WireError
from .base import ReplicaType

_MIN = -(2**63)
_MAX = 2**63 - 1


class CounterType(ReplicaType):
    name = "counter"

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
        if not (_MIN <= v <= _MAX):
            raise ApplyError("counter overflow")
        return v

    def transform_prim(self, a, b):
        return (a,), (b,)

    def gen_effective(self, state, intent, uid):
        verb, n = intent
        if verb not in ("incr", "decr"):
            raise IntentError(f"counter has no intent {verb!r}")
        if not isinstance(n, int):
            raise IntentError("counter amount must be an integer")
        if n == 0:
            return None
        return self.op(uid, "Incr" if verb == "incr" else "Decr", n)

    def digest_value(self, state):
        return state

    def encode_body(self, body):
        return {"type": body[0], "n": body[1]}

    def decode_body(self, obj):
        tag = obj.get("type")
        if tag not in ("Incr", "Decr") or not isinstance(obj.get("n"), int):
            raise WireError(f"bad counter op: {obj!r}")
        return (tag, obj["n"])

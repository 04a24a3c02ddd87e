"""Integer register with addition and multiplication, arbitrary precision.

Add/Add and Mult/Mult commute.  The mixed pair does not: when an Add is
rewritten to apply after a concurrent Mult, its amount is scaled by the
multiplier, so both orders land on (D + m) * n.
"""

from __future__ import annotations

from ..core import ApplyError, IntentError, WireError
from .base import ReplicaType


class AddMultType(ReplicaType):
    name = "addmult"

    def initial(self):
        return 0

    def apply(self, state, op):
        tag, n = op.body
        if tag == "Add":
            return state + n
        if tag == "Mult":
            return state * n
        raise ApplyError(f"unknown addmult op {tag!r}")

    def transform_prim(self, a, b):
        ta, na = a.body
        tb, nb = b.body
        if ta == "Add" and tb == "Mult":
            return (self.op(a.uid, "Add", na * nb),), (b,)
        if ta == "Mult" and tb == "Add":
            return (a,), (self.op(b.uid, "Add", nb * na),)
        return (a,), (b,)

    def gen_effective(self, state, intent, uid):
        verb, n = intent
        if verb not in ("add", "mult"):
            raise IntentError(f"addmult has no intent {verb!r}")
        if not isinstance(n, int):
            raise IntentError("addmult amount must be an integer")
        if verb == "add":
            if n == 0:
                return None
            return self.op(uid, "Add", n)
        if n == 1:
            return None
        return self.op(uid, "Mult", n)

    def digest_value(self, state):
        return state

    def encode_body(self, body):
        return {"type": body[0], "n": body[1]}

    def decode_body(self, obj):
        tag = obj.get("type")
        if tag not in ("Add", "Mult") or not isinstance(obj.get("n"), int):
            raise WireError(f"bad addmult op: {obj!r}")
        return (tag, obj["n"])

"""Set of strings with effectful add/remove.

Operations are generated only when they change the state (Add of an absent
element, Rem of a present one).  Two concurrent Adds of the same element, or
two concurrent Rems, do the same job once; transformation cancels both.  A
concurrent Add/Rem pair for one element cannot arise from any legal history
(the element cannot be both absent and present in the shared state), so
meeting one is an inconsistency, not a case to resolve.
"""

from __future__ import annotations

from ..core import ApplyError, InconsistencyError, IntentError, WireError
from .base import ReplicaType


class ESetType(ReplicaType):
    name = "eset"

    def initial(self):
        return frozenset()

    def apply(self, state, op):
        tag, x = op.body
        if tag == "Add":
            return state | {x}
        if tag == "Rem":
            return state - {x}
        raise ApplyError(f"unknown eset op {tag!r}")

    def transform_prim(self, a, b):
        ta, xa = a.body
        tb, xb = b.body
        if xa != xb:
            return (a,), (b,)
        if ta == tb:
            return (), ()
        raise InconsistencyError(
            f"concurrent {ta}/{tb} of {xa!r}: no shared state admits both"
        )

    def gen_effective(self, state, intent, uid):
        verb, x = intent
        if verb not in ("add", "rem"):
            raise IntentError(f"eset has no intent {verb!r}")
        if not isinstance(x, str):
            raise IntentError("eset element must be a string")
        if verb == "add":
            return None if x in state else self.op(uid, "Add", x)
        return self.op(uid, "Rem", x) if x in state else None

    def digest_value(self, state):
        return sorted(state)

    def encode_body(self, body):
        return {"type": body[0], "x": body[1]}

    def decode_body(self, obj):
        tag = obj.get("type")
        if tag not in ("Add", "Rem") or not isinstance(obj.get("x"), str):
            raise WireError(f"bad eset op: {obj!r}")
        return (tag, obj["x"])

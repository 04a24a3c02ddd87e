"""Replicated FIFO queue.

The state keeps every enqueued entry forever as (uid, item), plus the set of
uids already dequeued; the visible queue is the enq list filtered by that
set.  EnqAt(k, x) inserts at a list index and transforms exactly like a
single-character text insert (position shifts, uid tie-break at equal
indices).  Deq(target) names the entry it consumes by uid rather than by
position, so it commutes with everything except a concurrent Deq of the same
entry, which cancels on both sides: two sites racing to pop the same head
consume one element, not two.
"""

from __future__ import annotations

from ..core import ApplyError, IntentError, OpId, WireError
from .base import ReplicaType


class QueueType(ReplicaType):
    name = "queue"

    def initial(self):
        return ((), frozenset())

    def apply(self, state, op):
        enq, deq = state
        tag = op.body[0]
        if tag == "EnqAt":
            _, k, x = op.body
            if not (0 <= k <= len(enq)):
                raise ApplyError(f"enqueue index {k} out of range 0..{len(enq)}")
            return (enq[:k] + ((op.uid, x),) + enq[k:], deq)
        if tag == "Deq":
            target = op.body[1]
            return (enq, deq | {target})
        raise ApplyError(f"unknown queue op {tag!r}")

    def transform_prim(self, a, b):
        ta, tb = a.body[0], b.body[0]
        if ta == "EnqAt" and tb == "EnqAt":
            _, k1, x1 = a.body
            _, k2, x2 = b.body
            if (k1, a.uid) < (k2, b.uid):
                return (a,), (self.op(b.uid, "EnqAt", k2 + 1, x2),)
            return (self.op(a.uid, "EnqAt", k1 + 1, x1),), (b,)
        if ta == "Deq" and tb == "Deq":
            if a.body[1] == b.body[1]:
                return (), ()
            return (a,), (b,)
        # EnqAt/Deq touch disjoint parts of the state.
        return (a,), (b,)

    def gen_effective(self, state, intent, uid):
        enq, deq = state
        verb = intent[0]
        if verb == "enq":
            _, x = intent
            if not isinstance(x, str):
                raise IntentError("queue item must be a string")
            return self.op(uid, "EnqAt", len(enq), x)
        if verb == "deq":
            for entry_uid, _ in enq:
                if entry_uid not in deq:
                    return self.op(uid, "Deq", entry_uid)
            return None
        raise IntentError(f"queue has no intent {verb!r}")

    def digest_value(self, state):
        enq, deq = state
        return [x for (u, x) in enq if u not in deq]

    def encode_body(self, body):
        if body[0] == "EnqAt":
            return {"type": "EnqAt", "k": body[1], "x": body[2]}
        t = body[1]
        return {"type": "Deq", "target": {"site": t.site, "seq": t.seq}}

    def decode_body(self, obj):
        tag = obj.get("type")
        if tag == "EnqAt":
            if not isinstance(obj.get("k"), int) or not isinstance(obj.get("x"), str):
                raise WireError(f"bad queue op: {obj!r}")
            return ("EnqAt", obj["k"], obj["x"])
        if tag == "Deq":
            t = obj.get("target")
            if not isinstance(t, dict) or not isinstance(t.get("site"), int) or not isinstance(t.get("seq"), int):
                raise WireError(f"bad queue op: {obj!r}")
            return ("Deq", OpId(t["site"], t["seq"]))
        raise WireError(f"bad queue op: {obj!r}")

"""Collaborative text with tombstones: Ins(k, s) and Del(k, n).

Deleted characters stay in the model, hidden, so a delete never shifts a
position (the Tombstone Transformation Functions of Oster, Urso, Molli &
Imine, CollaborateCom 2006).  The state, a ``TextState``, is the *model*:
every character ever inserted, in order, and a mask marking each one visible
or hidden; it reads as the visible text.  Op positions are model positions:

  Ins k s   inserts s, visible, before model character k.
  Del k n   hides model characters [k, k+n).  Characters already hidden stay
            hidden, so one range may span earlier deletes.

Users edit the view, and ``gen_effective`` maps view positions onto the
model.  ``ins k s`` lands directly after visible character k-1 (at 0 when k
is 0), before any hidden characters that follow it.  ``del k n`` spans from
visible character k to visible character k+n-1, hidden characters between
them included.

Transformation rules, for concurrent a and b on the same state:

  Ins/Ins   the smaller (position, uid) goes first and is unchanged; the
            other shifts right by the first payload's length.  Since no
            delete ever collapses positions, two inserts only meet at one
            position when they target the same gap of the model, so the
            uid tie-break orders them alike on every integration path.
            Positional tables, where deletes shift positions, break exactly
            this (the three-patch merge property, TP2).
  Ins/Del   the insert never moves.  The delete shifts right by the payload
            length when the insert is at or before its start, and splits
            around the payload when the insert lands strictly inside it:
            nobody's text vanishes because someone else deleted around it.
  Del/Del   each side keeps the part of its range the other has not already
            hidden, one fragment per side of the other range.  A range
            wholly inside the other cancels to the identity.

Fragments keep the parent op's uid: they are the same logical edit in
pieces.  Hidden characters are never reclaimed, so the model grows with
every insert.
"""

from __future__ import annotations

from itertools import compress

from ..core import ApplyError, IntentError, WireError, is_int
from .base import ReplicaType, random_word

VISIBLE, HIDDEN = b"\x01", b"\x00"


class TextState:
    """The state of a text replica: the model, every character ever
    inserted, and ``mask``, one byte per model character, 1 visible and 0
    hidden.

    It stands for the visible text in ``len``, truthiness, indexing,
    slicing, ``str`` and comparison with a plain ``str``, which is accepted
    as a state with nothing hidden.  The text and its length are worked out
    on first use and kept, since a state never changes.  Two
    TextStates are equal only when their models agree, hidden characters
    included.
    """

    __slots__ = ("model", "mask", "_text", "_len")

    def __init__(self, model: str, mask: bytes):
        self.model = model
        self.mask = mask
        self._text = None
        self._len = None

    def __str__(self):
        if self._text is None:
            self._text = "".join(compress(self.model, self.mask))
        return self._text

    def __len__(self):
        if self._len is None:
            self._len = self.mask.count(1)
        return self._len

    def __getitem__(self, index):
        return str(self)[index]

    def __eq__(self, other):
        if isinstance(other, TextState):
            return self.model == other.model and self.mask == other.mask
        if isinstance(other, str):
            return str(self) == other
        return NotImplemented

    def __hash__(self):
        return hash(str(self))

    def __repr__(self):
        return repr(str(self))


def _model(state):
    if isinstance(state, TextState):
        return state.model, state.mask
    return state, VISIBLE * len(state)


def _model_index(mask: bytes, j: int) -> int:
    """Model position of visible character j (0-based), which must exist.

    Bisects on counts of visible bytes, each count over the half still in
    question, so the whole search reads the mask about once.
    """
    lo, hi, before = 0, len(mask), 0  # j+1 visible in [0, hi), <= j in [0, lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        c = mask.count(1, lo, mid)
        if before + c > j:
            hi = mid
        else:
            lo, before = mid, before + c
    return lo


class TextType(ReplicaType):
    name = "text"
    verbs = {"ins": ("position", "text"), "del": ("position", "length")}

    def initial(self):
        return TextState("", b"")

    def apply(self, state, op):
        model, mask = _model(state)
        tag = op.body[0]
        if tag == "Ins":
            _, k, s = op.body
            if not (0 <= k <= len(model)):
                raise ApplyError(f"insert position {k} out of range 0..{len(model)}")
            return TextState(model[:k] + s + model[k:], mask[:k] + VISIBLE * len(s) + mask[k:])
        if tag == "Del":
            _, k, n = op.body
            if n < 1 or k < 0 or k + n > len(model):
                raise ApplyError(f"delete range [{k},{k + n}) out of range 0..{len(model)}")
            return TextState(model, mask[:k] + HIDDEN * n + mask[k + n:])
        raise ApplyError(f"unknown text op {tag!r}")

    def transform_prim(self, a, b):
        ta, tb = a.body[0], b.body[0]
        if ta == "Ins" and tb == "Ins":
            return self._ins_ins(a, b)
        if ta == "Ins":
            return (a,), self._del_after_ins(b, a)
        if tb == "Ins":
            return self._del_after_ins(a, b), (b,)
        return self._del_after_del(a, b), self._del_after_del(b, a)

    def _ins_ins(self, a, b):
        _, k1, s1 = a.body
        _, k2, s2 = b.body
        if (k1, a.uid) < (k2, b.uid):
            return (a,), (self.op(b.uid, "Ins", k2 + len(s1), s2),)
        return (self.op(a.uid, "Ins", k1 + len(s2), s1),), (b,)

    def _del_after_ins(self, d, i):
        _, k, n = d.body
        _, p, s = i.body
        if p <= k:
            return (self.op(d.uid, "Del", k + len(s), n),)
        if p >= k + n:
            return (d,)
        return (self.op(d.uid, "Del", k, p - k),
                self.op(d.uid, "Del", p + len(s), k + n - p))

    def _del_after_del(self, a, b):
        _, k1, n1 = a.body
        _, k2, n2 = b.body
        end1, end2 = k1 + n1, k2 + n2
        if end2 <= k1 or end1 <= k2:
            return (a,)
        out = []
        if k1 < k2:
            out.append(self.op(a.uid, "Del", k1, k2 - k1))
        if end2 < end1:
            out.append(self.op(a.uid, "Del", end2, end1 - end2))
        return tuple(out)

    def gen_effective(self, state, intent, uid):
        verb = intent[0]
        if verb == "ins":
            _, k, s = intent
            if not isinstance(k, int) or not isinstance(s, str):
                raise IntentError("usage: ins <pos> <text>")
            if not (0 <= k <= len(state)):
                raise IntentError(f"insert position {k} out of range 0..{len(state)}")
            if s == "":
                return None
            at = 0 if k == 0 else _model_index(_model(state)[1], k - 1) + 1
            return self.op(uid, "Ins", at, s)
        if verb == "del":
            _, k, n = intent
            if not isinstance(k, int) or not isinstance(n, int):
                raise IntentError("usage: del <pos> <count>")
            if n == 0:
                return None
            if n < 0 or k < 0 or k + n > len(state):
                raise IntentError(f"delete range [{k},{k + n}) out of range 0..{len(state)}")
            mask = _model(state)[1]
            start = _model_index(mask, k)
            return self.op(uid, "Del", start, _model_index(mask, k + n - 1) + 1 - start)
        raise IntentError(f"text has no intent {verb!r}")

    def draw_intent(self, rng, state):
        if state and rng.random() < 1 / 3:
            k = rng.randrange(len(state))
            return ("del", k, rng.randint(1, min(3, len(state) - k)))
        s = random_word(rng)  # before the position: the draw order is pinned
        return ("ins", rng.randint(0, len(state)), s)

    def digest_value(self, state):
        return str(state)

    def encode_body(self, body):
        if body[0] == "Ins":
            return {"type": "Ins", "k": body[1], "s": body[2]}
        return {"type": "Del", "k": body[1], "n": body[2]}

    def decode_body(self, obj):
        tag = obj.get("type")
        if tag == "Ins":
            if not is_int(obj.get("k")) or not isinstance(obj.get("s"), str):
                raise WireError(f"bad text op: {obj!r}")
            return ("Ins", obj["k"], obj["s"])
        if tag == "Del":
            if not is_int(obj.get("k")) or not is_int(obj.get("n")):
                raise WireError(f"bad text op: {obj!r}")
            return ("Del", obj["k"], obj["n"])
        raise WireError(f"bad text op: {obj!r}")

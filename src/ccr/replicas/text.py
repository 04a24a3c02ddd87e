"""Collaborative text with tombstones: Ins(k, s) and Del(k, n).

Deleted characters stay in the model, hidden, so a delete never shifts a
position (the Tombstone Transformation Functions of Oster, Urso, Molli &
Imine, CollaborateCom 2006).  The state, a ``TextState``, is the *model*:
every character ever inserted, in order, and an int whose bits mark each one
visible or hidden; it reads as the visible text.  Op positions are model
positions:

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

Cost per op: the visible length is carried through ``apply``, the bits are
updated with shifts and masks, and a view position is mapped onto the model
by bisecting the bits with popcounts.  These int operations still touch the
whole model, but 30 characters to an int digit, so next to them what
grows with the history is the copy of the model string an insert makes,
and ``str()`` of a state, which builds the visible text.
"""

from __future__ import annotations

from itertools import compress

from ..core import ApplyError, IntentError, WireError, is_int
from .base import ReplicaType, random_word

_BYTE_MASK = bytes.maketrans(b"01", b"\x00\x01")


class TextState:
    """The state of a text replica: the model, every character ever
    inserted, and ``bits``, an int whose bit i is set when model character
    i is visible.

    It stands for the visible text in ``len``, truthiness, indexing,
    slicing, ``str`` and comparison with a plain ``str``, which is accepted
    as a state with nothing hidden.  ``len`` is the visible length carried
    through ``apply``, so it reads no bits.  The text is worked out on first
    use from ``mask``, a bytes view of the bits, and kept, since a state
    never changes.  Two TextStates are equal only when their models and bits
    agree, hidden characters included.
    """

    __slots__ = ("model", "bits", "_len", "_text")

    def __init__(self, model: str, bits: int, length: int):
        self.model = model
        self.bits = bits
        self._len = length
        self._text = None

    @property
    def mask(self) -> bytes:
        """One byte per model character, 1 visible and 0 hidden."""
        # A sentinel bit above the model keeps the leading hidden ones.
        return bin(self.bits | 1 << len(self.model))[:2:-1].encode().translate(_BYTE_MASK)

    def __str__(self):
        if self._text is None:
            self._text = "".join(compress(self.model, self.mask))
        return self._text

    def __len__(self):
        return self._len

    def __getitem__(self, index):
        return str(self)[index]

    def __eq__(self, other):
        if isinstance(other, TextState):
            return self.model == other.model and self.bits == other.bits
        if isinstance(other, str):
            return str(self) == other
        return NotImplemented

    def __hash__(self):
        return hash(str(self))

    def __repr__(self):
        return repr(str(self))


def _model(state):
    """(model, bits, visible length) of a TextState or a plain str."""
    if isinstance(state, TextState):
        return state.model, state.bits, state._len
    return state, (1 << len(state)) - 1, len(state)


def _model_index(bits: int, j: int) -> int:
    """Model position of visible character j (0-based), which must exist.

    Bisects on popcounts, each over the half of the bits still in question,
    so the whole search reads about twice the int's size.
    """
    at, width = 0, bits.bit_length()  # visible character j is in [at, at+width)
    while width > 1:
        half = width >> 1
        low = bits & ((1 << half) - 1)
        c = low.bit_count()
        if c > j:
            bits, width = low, half
        else:
            bits, width, at, j = bits >> half, width - half, at + half, j - c
    return at


class TextType(ReplicaType):
    name = "text"
    verbs = {"ins": ("position", "text"), "del": ("position", "length")}

    def initial(self):
        return TextState("", 0, 0)

    def apply(self, state, op):
        model, bits, length = _model(state)
        tag = op.body[0]
        if tag == "Ins":
            _, k, s = op.body
            if not (0 <= k <= len(model)):
                raise ApplyError(f"insert position {k} out of range 0..{len(model)}")
            m = len(s)
            bits = (bits & ((1 << k) - 1)) | (((1 << m) - 1) << k) | ((bits >> k) << (k + m))
            return TextState(model[:k] + s + model[k:], bits, length + m)
        if tag == "Del":
            _, k, n = op.body
            if n < 1 or k < 0 or k + n > len(model):
                raise ApplyError(f"delete range [{k},{k + n}) out of range 0..{len(model)}")
            span = bits & (((1 << n) - 1) << k)  # the visible characters it hides
            return TextState(model, bits ^ span, length - span.bit_count())
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
            if not is_int(k) or not isinstance(s, str):
                raise IntentError("usage: ins <pos> <text>")
            if not (0 <= k <= len(state)):
                raise IntentError(f"insert position {k} out of range 0..{len(state)}")
            if s == "":
                return None
            at = 0 if k == 0 else _model_index(_model(state)[1], k - 1) + 1
            return self.op(uid, "Ins", at, s)
        if verb == "del":
            _, k, n = intent
            if not is_int(k) or not is_int(n):
                raise IntentError("usage: del <pos> <count>")
            if n == 0:
                return None
            if n < 0 or k < 0 or k + n > len(state):
                raise IntentError(f"delete range [{k},{k + n}) out of range 0..{len(state)}")
            bits = _model(state)[1]
            start = _model_index(bits, k)
            return self.op(uid, "Del", start, _model_index(bits >> start, n - 1) + 1)
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
            k, s = obj.get("k"), obj.get("s")
            if not (is_int(k) and k >= 0 and isinstance(s, str) and s):
                raise WireError(f"bad text op: {obj!r}")
            return ("Ins", k, s)
        if tag == "Del":
            k, n = obj.get("k"), obj.get("n")
            if not (is_int(k) and k >= 0 and is_int(n) and n >= 1):
                raise WireError(f"bad text op: {obj!r}")
            return ("Del", k, n)
        raise WireError(f"bad text op: {obj!r}")

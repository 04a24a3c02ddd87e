"""Shared test fixtures: how to start an agent, and text kinds with known
transform defects for checking that the harnesses catch them."""

import os
import shutil
import sys

import ccr
from ccr.core import ApplyError
from ccr.replicas.base import ReplicaType
from ccr.replicas.text import TextType

# The console script when installed, else the same entry point through
# ``python -m ccr``; either way the child imports ccr from this tree.
_SCRIPT = shutil.which("ccr-agent")
AGENT = [_SCRIPT] if _SCRIPT else [sys.executable, "-m", "ccr", "agent"]
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(ccr.__file__)))
AGENT_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)}


def count_applies(monkeypatch):
    """Count every call to ``apply`` on the replica classes, composites and
    their components included; returns a one-item list holding the count."""
    calls = [0]
    todo = [ReplicaType]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        real = vars(cls).get("apply")
        if real is None:
            continue

        def counting(self, state, op, _real=real):
            calls[0] += 1
            return _real(self, state, op)

        monkeypatch.setattr(cls, "apply", counting)
    return calls


class BrokenTieText(TextType):
    # Equal-position inserts ordered by argument position instead of uid:
    # each side then believes its own insert goes first.
    def _ins_ins(self, a, b):
        _, k1, s1 = a.body
        _, k2, s2 = b.body
        if k1 <= k2:
            return (a,), (self.op(b.uid, "Ins", k2 + len(s1), s2),)
        return (self.op(a.uid, "Ins", k1 + len(s2), s1),), (b,)


class PositionalText(TextType):
    """The positional text tables that the tombstone model replaced: the
    state is a plain string and a delete collapses positions.  Pairwise
    properties hold, but a delete can bring two concurrent inserts onto one
    position, where the uid tie-break can contradict the order another
    integration path already used, so the six merge orders (TP2) disagree
    and three or more sites can diverge."""

    def initial(self):
        return ""

    def apply(self, state, op):
        tag = op.body[0]
        if tag == "Ins":
            _, k, s = op.body
            if not (0 <= k <= len(state)):
                raise ApplyError(f"insert position {k} out of range 0..{len(state)}")
            return state[:k] + s + state[k:]
        if tag == "Del":
            _, k, n = op.body
            if n < 1 or k < 0 or k + n > len(state):
                raise ApplyError(f"delete range [{k},{k + n}) out of range 0..{len(state)}")
            return state[:k] + state[k + n:]
        raise ApplyError(f"unknown text op {tag!r}")

    def transform_prim(self, a, b):
        ta, tb = a.body[0], b.body[0]
        if ta == "Ins" and tb == "Ins":
            return self._ins_ins(a, b)
        if ta == "Ins" and tb == "Del":
            return self._ins_del(a, b)
        if ta == "Del" and tb == "Ins":
            bb, aa = self._ins_del(b, a)
            return aa, bb
        return self._del_del(a, b)

    def _ins_del(self, a, b):
        _, k1, s = a.body
        _, k2, n = b.body
        if k1 <= k2:
            return (a,), (self.op(b.uid, "Del", k2 + len(s), n),)
        if k1 >= k2 + n:
            return (self.op(a.uid, "Ins", k1 - n, s),), (b,)
        # Insert strictly inside the deleted range survives at the range
        # start; the second fragment is addressed after the first applied.
        left = self.op(b.uid, "Del", k2, k1 - k2)
        right = self.op(b.uid, "Del", k2 + len(s), k2 + n - k1)
        return (self.op(a.uid, "Ins", k2, s),), (left, right)

    def _del_del(self, a, b):
        _, k1, n1 = a.body
        _, k2, n2 = b.body
        return (self._residual(a.uid, k1, n1, k2, n2),
                self._residual(b.uid, k2, n2, k1, n1))

    def _residual(self, uid, k1, n1, k2, n2):
        # What remains of [k1, k1+n1) once [k2, k2+n2) is already gone.
        cut = max(0, min(k1 + n1, k2 + n2) - max(k1, k2))
        length = n1 - cut
        if length == 0:
            return ()
        before = max(0, min(k1, k2 + n2) - k2)
        return (self.op(uid, "Del", k1 - before, length),)


def use_positional_text(monkeypatch):
    """Register PositionalText as the ``text`` kind for one test."""
    import ccr.replicas as replicas
    monkeypatch.setitem(replicas._SCALARS, "text", PositionalText())

"""Shared test fixtures: how to start an agent, a reference sweep, a site
that checks every receipt against the direct transform, and text kinds with
known transform defects for checking that the harnesses catch them."""

import os
import shutil
import sys

import ccr
import ccr.replicas.composite as composite
import ccr.sim
from ccr.core import EMPTY, ApplyError, TransformResult, transform_patch
from ccr.protocol import SiteState
from ccr.replicas.base import ReplicaType
from ccr.replicas.text import TextType

# The console script when installed, else the same entry point through
# ``python -m ccr``; either way the child imports ccr from this tree.
_SCRIPT = shutil.which("ccr-agent")
AGENT = [_SCRIPT] if _SCRIPT else [sys.executable, "-m", "ccr", "agent"]
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(ccr.__file__)))
AGENT_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)}


def count_calls(monkeypatch, cls, name):
    """Count every call to method ``name`` on ``cls`` and on each subclass
    that defines its own; returns a one-item list holding the count."""
    calls = [0]
    todo = [cls]
    while todo:
        c = todo.pop()
        todo.extend(c.__subclasses__())
        real = vars(c).get(name)
        if real is None:
            continue

        def counting(*args, _real=real, **kwargs):
            calls[0] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(c, name, counting)
    return calls


def count_applies(monkeypatch):
    """Count every call to ``apply`` on the replica classes, composites and
    their components included; returns a one-item list holding the count."""
    return count_calls(monkeypatch, ReplicaType, "apply")


def reference_transform(rt, p, q):
    """What ``transform_patch(rt, None, p, q)`` must return, computed by
    the sweep as two mutually recursive loops, one op of p at a time.  The
    inner sweeps of a map's entries run the same loops, not the code under
    test."""
    real = composite.transform_patch
    composite.transform_patch = lambda rt, state, p, q: _ref_sweep(rt, tuple(p), tuple(q))
    try:
        return _ref_sweep(rt, tuple(p), tuple(q))
    finally:
        composite.transform_patch = real


def _ref_sweep(rt, p, q):
    # Sweep each op of p across the whole of q, carrying q past it.
    if not p or not q:
        return TransformResult(p, q)
    p_out = []
    for a in p:
        a_out, q = _ref_one_vs_patch(rt, a, q)
        p_out.extend(a_out)
    return TransformResult(tuple(p_out), q)


def _ref_one_vs_patch(rt, a, q):
    # Sweep single op a across q.
    a_cur = (a,)
    q_out = []
    for i, b in enumerate(q):
        if not a_cur:
            # a vanished; the rest of q is untouched by it.
            q_out.extend(q[i:])
            return EMPTY, tuple(q_out)
        if len(a_cur) == 1:
            x = a_cur[0]
            if x.uid == b.uid:
                # Same logical edit arriving from both sides: both drop.
                a_cur = EMPTY
            else:
                a_cur, b_out = rt.transform_prim(x, b)
                q_out.extend(b_out)
        else:
            # a split into fragments: sweep b across them.
            a_cur, b_out = _ref_sweep(rt, a_cur, (b,))
            q_out.extend(b_out)
    return a_cur, tuple(q_out)


class VerifiedSite(SiteState):
    """A ``SiteState`` that checks its per-peer remainder cache at every
    receipt against the computation it stands for: the peer's whole stream
    so far, transformed against the whole history, must yield exactly the
    ops this receipt appends and the remainder the cursor keeps.  To do so
    it keeps each peer's integrated ops, which ``SiteState`` never does."""

    def __init__(self, site, rt):
        super().__init__(site, rt)
        self.recv_ops = {}  # peer -> the ops of its stream integrated so far

    def connect_peer(self, peer_site, known_len=0, incarnation=None):
        super().connect_peer(peer_site, known_len, incarnation)
        if self.peers[peer_site].recv_len == 0:  # the stream starts over
            self.recv_ops[peer_site] = []

    def _integrate(self, from_site, ops):
        if not ops:
            return super()._integrate(from_site, ops)
        stream = self.recv_ops[from_site] + list(ops)
        direct = transform_patch(self.rt, None, stream, self.history)
        n = len(self.history)
        super()._integrate(from_site, ops)
        self.recv_ops[from_site] = stream
        fresh, rem = self.history[n:], tuple(self.peers[from_site].remainder)
        assert direct.left == fresh, (
            f"incremental/direct mismatch (new ops): {direct.left} vs {fresh}")
        assert direct.right == rem, (
            f"incremental/direct mismatch (remainder): {direct.right} vs {rem}")


def verify_trials(monkeypatch):
    """Build every site of ``ccr.sim.run_trial`` as a ``VerifiedSite`` for
    one test."""
    monkeypatch.setattr(ccr.sim, "SiteState", VerifiedSite)


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

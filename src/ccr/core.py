"""Patch algebra and the transformation sweep.

The model: a replicated value of some kind (counter, text, set, ...) evolves
by applying *operations*.  A *patch* is an ordered sequence of operations,
each applying to the state left by the one before it.  Patches under
concatenation form a monoid whose identity is the empty patch.

Every operation carries a uid ``(site, seq)`` stamped at generation time.
The uid never changes, no matter how the operation's parameters are rewritten
by transformation, so any two replicas can recognise "the same edit" even
after it has been reshaped to fit a different history.

Concurrent patches are reconciled by ``transform_patch(rt, D, p, q)``, which
returns ``(p', q')`` such that

    apply(apply(D, p), q') == apply(apply(D, q), p')

(local confluence).  The sweep walks p one operation at a time, rewriting it
across each operation of q, then carries on with the rest of p against the
once-rewritten q.  It rewrites operations only and applies none: no primitive
transform reads a state.  Primitive transforms return
*patches*, not single operations, because a deletion overlapping a concurrent
insertion splits into two fragments and some pairs cancel outright.  Split
fragments keep their parent's uid: uniqueness of uids is per logical edit,
not per array slot.

When the sweep brings two operations with equal uid face to face, both are
dropped.  This is what makes redelivery and echo loops terminate: a patch
transformed against a history that already contains it comes out empty.

Nothing here knows about concrete kinds.  Callers pass a replica type object
``rt`` providing ``name``, ``apply(state, op)``, ``transform_prim(a, b)`` and
``digest(state)``; see ``ccr.replicas``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, NamedTuple, Tuple


class CcrError(Exception):
    """Base class for engine errors."""


class ComposeError(CcrError):
    """Raised when two patches cannot be concatenated."""


class ApplyError(CcrError):
    """An operation could not be applied to a state.

    Carries the offending uid and the digest of the state it was applied to,
    when known.
    """

    def __init__(self, reason: str, uid: "OpId | None" = None, digest: "str | None" = None):
        self.reason = reason
        self.uid = uid
        self.digest = digest
        detail = reason
        if uid is not None:
            detail += f" (uid={uid})"
        if digest is not None:
            detail += f" at state {digest}"
        super().__init__(detail)


class InconsistencyError(CcrError):
    """An operation pair met during transformation that no legal history
    can produce.  Indicates replica-state corruption, not user error."""


class IntentError(CcrError):
    """A malformed user intent (position out of range, bad argument)."""


class WireError(CcrError):
    """A frame that cannot be decoded into a message."""


@dataclass(frozen=True, order=True)
class OpId:
    """Identity of one logical edit: issuing site and its local sequence no."""

    site: int
    seq: int

    def __repr__(self) -> str:
        return f"({self.site},{self.seq})"


@dataclass(frozen=True)
class Operation:
    """One edit. ``body`` is a kind-specific tuple whose first element is a
    tag string (``("Ins", 2, "ab")``, ``("Incr", 1)``, ...).

    The uid identifies the logical edit: cancellation and duplicate checks
    compare uids only, since transformation may rewrite the body.
    """

    uid: OpId
    kind: str
    body: Tuple[Any, ...]

    def __repr__(self) -> str:
        args = " ".join(repr(x) for x in self.body[1:])
        return f"{self.uid} {self.body[0]}{' ' + args if args else ''}"


Patch = Tuple[Operation, ...]

EMPTY: Patch = ()


class TransformResult(NamedTuple):
    left: Patch  # first argument, rewritten to apply after the second
    right: Patch  # second argument, rewritten to apply after the first


def is_identity(p: Patch) -> bool:
    return len(p) == 0


def compose(p: Patch, q: Patch) -> Patch:
    """Concatenate two patches (q after p).

    Rejects uid overlap between the sides: composing a patch with edits it
    already contains is always a bookkeeping bug.  Duplicates *within* one
    side are legal (fragments of a split deletion share a uid).

    The check hashes every uid on both sides.  ``SiteState`` makes the same
    check through its own uid index instead, so its appends cost the new
    ops only.
    """
    if not p:
        return tuple(q)
    if not q:
        return tuple(p)
    shared = {op.uid for op in p} & {op.uid for op in q}
    if shared:
        raise ComposeError(f"duplicate uids across composition: {sorted(shared)}")
    return tuple(p) + tuple(q)


def apply_patch(rt, state: Any, p: Iterable[Operation]) -> Any:
    """Fold a patch over a state, left to right."""
    for op in p:
        if op.kind != rt.name:
            raise ApplyError(
                f"operation kind {op.kind!r} does not match replica kind {rt.name!r}",
                uid=op.uid,
                digest=rt.digest(state),
            )
        try:
            state = rt.apply(state, op)
        except ApplyError as e:
            if e.uid is None:
                raise ApplyError(e.reason, uid=op.uid, digest=rt.digest(state)) from None
            raise
    return state


def transform_patch(rt, state: Any, p: Patch, q: Patch) -> TransformResult:
    """Rewrite two concurrent patches across each other.

    Both inputs apply to ``state``.  Returns ``(p', q')`` with p' applying
    after q and q' applying after p, converging on the same state.

    ``state`` is accepted but not read, so any value (None included) will do.
    It stays in the signature because callers name the base of both patches
    positionally: criterion 5 calls ``transform_patch(rt, d, p, q)``, and the
    benchmark's tracer reads the patches as the third and fourth arguments.
    """
    return _sweep(rt, tuple(p), tuple(q))


def confluent_rep(rt, state: Any, p: Patch, q: Patch) -> Patch:
    """The composed patch ``p ⊙ q'`` taking ``state`` to the confluent state
    reached from either side.  Like ``transform_patch``, it never reads
    ``state``."""
    q_after_p = transform_patch(rt, state, q, p).left
    return compose(tuple(p), q_after_p)


def _sweep(rt, p: Patch, q: Patch) -> TransformResult:
    # Sweep each op of p across the whole of q, carrying q past it.
    if not p or not q:
        return TransformResult(p, q)
    p_out: list[Operation] = []
    for a in p:
        a_out, q = _one_vs_patch(rt, a, q)
        p_out.extend(a_out)
    return TransformResult(tuple(p_out), q)


def _one_vs_patch(rt, a: Operation, q: Patch) -> Tuple[Patch, Patch]:
    # Sweep single op a across q.
    a_cur: Patch = (a,)
    q_out: list[Operation] = []
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
            a_cur, b_out = _sweep(rt, a_cur, (b,))
            q_out.extend(b_out)
    return a_cur, tuple(q_out)

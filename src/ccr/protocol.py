"""Replication protocol: cumulative patch exchange with transform-on-receive.

Every site keeps its full history as one patch from the shared base state.
A message to a peer carries a suffix of that history plus ``prefix_len``, the
number of ops the receiver is assumed to hold already.  The receiver rebuilds
the sender's cumulative patch, transforms it against its own history, applies
whatever is genuinely new, and rebroadcasts.  Operations the receiver already
integrated cancel by uid during transformation, so a patch with nothing new
transforms to the identity and the broadcast stops there: updates terminate
on their own, even on cyclic topologies, with no clocks and no coordinator.

Out-of-order or duplicated delivery makes ``prefix_len`` disagree with the
cursor; the receiver answers with a resync request and the peer replies with
its full history, which integrates harmlessly (everything known cancels).

Transforming the peer's whole cumulative patch against the whole local
history on every receipt would cost |M|x|H| per message.  The cursor
therefore caches, per peer, the state the peer's known patch reaches and the
local history's *remainder* rewritten into the peer's frame (everything we
hold that the peer's patch does not account for).  An arriving suffix S then
needs only transform_patch(peer_state, S, remainder): by the compositional
property this yields exactly the same result as the full computation, since
the known prefix transforms to identity against our history by construction.
``SiteState(verify=True)`` re-runs the full computation on every receipt and
asserts both routes agree.

The rest of one receipt's bookkeeping is kept from growing with the
history.  Appending must refuse an op whose uid the history already holds
(the overlap check of ``core.compose``); a set of every integrated uid turns
that check into one lookup per new op.  Each cursor's copy of the peer's
history grows in place.  ``history`` itself stays an immutable tuple, rebuilt
on each append, because it is shared as a snapshot: ``Full`` carries it, and
a message in flight may hold it while this site moves on.  That copy is the
one cost per op still linear in the history.

SiteState is a single-threaded state machine: callers must serialize entry
points (the agent funnels everything through one event loop, the simulator
is sequential by construction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from .core import (
    CcrError,
    ComposeError,
    OpId,
    Operation,
    Patch,
    apply_patch,
    is_identity,
    transform_patch,
)
from .replicas.base import ReplicaType


class ProtocolError(CcrError):
    """A peer broke the protocol (message before Hello, kind mismatch,
    site collision).  Scoped to one connection."""


class SiteFaulted(CcrError):
    """This site's replica state is no longer trustworthy (transform or
    apply failed mid-integration).  Not recoverable in-process."""


@dataclass(frozen=True)
class Hello:
    site: int
    kind: str
    known_len: int  # ops of the receiver's history the sender already holds


@dataclass(frozen=True)
class Increment:
    kind: str
    sender: int
    prefix_len: int  # ops of the sender's history the receiver is assumed to hold
    ops: Patch


@dataclass(frozen=True)
class ResyncReq:
    pass


@dataclass(frozen=True)
class Full:
    sender: int
    ops: Patch


Message = Any  # Hello | Increment | ResyncReq | Full


@dataclass
class PeerCursor:
    sent_len: int = 0
    recv_len: int = 0
    # The peer's history as far as integrated; extended in place.
    recv_prefix: List[Operation] = field(default_factory=list)
    # Cache for incremental integration (see module docstring).
    peer_state: Any = None
    remainder: Patch = ()


class SiteState:
    def __init__(self, site: int, rt: ReplicaType, verify: bool = False):
        self.site = site
        self.rt = rt
        self.base = rt.initial()
        self.current = rt.initial()
        self.history: Patch = ()
        self.uids: Set[OpId] = set()  # uid of every op in history
        self.next_seq = 1
        self.peers: Dict[int, PeerCursor] = {}
        self.faulted: Optional[str] = None
        self.verify = verify

    # -- peer management ----------------------------------------------------

    def connect_peer(self, peer_site: int, known_len: int = 0) -> None:
        """Create or refresh the cursor for a peer (a Hello arrived or we
        dialed).  known_len is the peer's claim of how much of our history it
        already holds; an overclaim (stale or fresh restart on their side)
        degrades to a resync on their first prefix check."""
        cur = self.peers.get(peer_site)
        if cur is None:
            cur = PeerCursor(peer_state=self.base, remainder=self.history)
            self.peers[peer_site] = cur
        cur.sent_len = min(known_len, len(self.history))

    # -- local edits ---------------------------------------------------------

    def local_update(self, intent: Tuple[Any, ...]) -> List[Tuple[int, Message]]:
        """Apply a user intent locally; returns increments to send."""
        self._check_ok()
        op = self.rt.gen_effective(self.current, intent, OpId(self.site, self.next_seq))
        if op is None:
            return []
        self.next_seq += 1
        self._append((op,))
        self.current = self.rt.apply(self.current, op)
        for cur in self.peers.values():
            cur.remainder = cur.remainder + (op,)
        return self._broadcast()

    # -- message handling ----------------------------------------------------

    def handle_message(self, from_site: int, msg: Message) -> List[Tuple[int, Message]]:
        self._check_ok()
        if isinstance(msg, Hello):
            return self._handle_hello(msg)
        cur = self.peers.get(from_site)
        if cur is None:
            raise ProtocolError(f"message from site {from_site} before Hello")
        if isinstance(msg, Increment):
            if msg.kind != self.rt.name:
                raise ProtocolError(
                    f"kind mismatch: peer sends {msg.kind!r}, this site is {self.rt.name!r}"
                )
            if msg.prefix_len != cur.recv_len:
                return [(from_site, ResyncReq())]
            return self._integrate_suffix(from_site, tuple(msg.ops))
        if isinstance(msg, ResyncReq):
            reply = Full(sender=self.site, ops=self.history)
            cur.sent_len = len(self.history)
            return [(from_site, reply)]
        if isinstance(msg, Full):
            ops = tuple(msg.ops)
            if list(ops[: cur.recv_len]) == cur.recv_prefix:
                # Histories only grow, so a same-incarnation Full extends the
                # known prefix: integrate the suffix as if it were an
                # increment (usually empty).
                return self._integrate_suffix(from_site, ops[cur.recv_len:])
            if tuple(cur.recv_prefix[: len(ops)]) == ops:
                # Strict prefix of what we already integrated: a duplicated
                # or overtaken Full from the past.  Rewinding the cursor for
                # it would desynchronize the stream accounting for good.
                return []
            return self._integrate_full(from_site, ops)
        raise ProtocolError(f"unknown message {msg!r}")

    def _handle_hello(self, msg: Hello) -> List[Tuple[int, Message]]:
        if msg.site == self.site:
            raise ProtocolError(f"site id collision: peer also claims site {msg.site}")
        if msg.kind != self.rt.name:
            raise ProtocolError(
                f"kind mismatch: peer is {msg.kind!r}, this site is {self.rt.name!r}"
            )
        self.connect_peer(msg.site, msg.known_len)
        return []

    # -- integration core ----------------------------------------------------

    def _integrate_suffix(self, from_site: int, suffix: Patch) -> List[Tuple[int, Message]]:
        cur = self.peers[from_site]
        try:
            fresh, rem = transform_patch(self.rt, cur.peer_state, suffix, cur.remainder)
            if self.verify:
                self._verify_against_direct((*cur.recv_prefix, *suffix), fresh, rem)
            cur.recv_prefix.extend(suffix)
            cur.recv_len = len(cur.recv_prefix)
            cur.peer_state = apply_patch(self.rt, cur.peer_state, suffix)
            cur.remainder = rem
            return self._commit(from_site, fresh)
        except (ProtocolError, SiteFaulted):
            raise
        except CcrError as e:
            self.faulted = str(e)
            raise SiteFaulted(f"site {self.site} faulted during integration: {e}") from e

    def _integrate_full(self, from_site: int, ops: Patch) -> List[Tuple[int, Message]]:
        cur = self.peers[from_site]
        try:
            fresh, rem = transform_patch(self.rt, self.base, ops, self.history)
            cur.recv_prefix = list(ops)
            cur.recv_len = len(ops)
            cur.peer_state = apply_patch(self.rt, self.base, ops)
            cur.remainder = rem
            return self._commit(from_site, fresh)
        except (ProtocolError, SiteFaulted):
            raise
        except CcrError as e:
            self.faulted = str(e)
            raise SiteFaulted(f"site {self.site} faulted during integration: {e}") from e

    def _commit(self, from_site: int, fresh: Patch) -> List[Tuple[int, Message]]:
        if is_identity(fresh):
            return []
        self.current = apply_patch(self.rt, self.current, fresh)
        self._append(fresh)
        for op in fresh:
            # Own edits can come back after a restart (peer replays them in a
            # Full); never reuse their sequence numbers.
            if op.uid.site == self.site and op.uid.seq >= self.next_seq:
                self.next_seq = op.uid.seq + 1
        for peer, cur in self.peers.items():
            if peer != from_site:
                cur.remainder = cur.remainder + fresh
        return self._broadcast()

    def _append(self, ops: Patch) -> None:
        """Extend the history by ops, refusing any uid it already holds, as
        ``core.compose`` does, at a cost that does not grow with it."""
        shared = {op.uid for op in ops if op.uid in self.uids}
        if shared:
            raise ComposeError(f"duplicate uids across composition: {sorted(shared)}")
        self.history = self.history + ops
        self.uids.update(op.uid for op in ops)

    def _broadcast(self) -> List[Tuple[int, Message]]:
        out = []
        for peer in self.peers:
            m = self.make_increment(peer)
            if m is not None:
                out.append((peer, m))
        return out

    def make_increment(self, peer_site: int) -> Optional[Increment]:
        """Suffix of history the peer has not been sent yet, or None."""
        cur = self.peers[peer_site]
        if cur.sent_len == len(self.history):
            return None
        msg = Increment(
            kind=self.rt.name,
            sender=self.site,
            prefix_len=cur.sent_len,
            ops=self.history[cur.sent_len:],
        )
        cur.sent_len = len(self.history)
        return msg

    # -- invariants and checks -----------------------------------------------

    def _check_ok(self) -> None:
        if self.faulted is not None:
            raise SiteFaulted(f"site {self.site} previously faulted: {self.faulted}")

    def _verify_against_direct(self, full_patch: Patch, fresh: Patch, rem: Patch) -> None:
        direct = transform_patch(self.rt, self.base, full_patch, self.history)
        assert direct.left == fresh, (
            f"incremental/direct mismatch (new ops): {direct.left} vs {fresh}"
        )
        assert direct.right == rem, (
            f"incremental/direct mismatch (remainder): {direct.right} vs {rem}"
        )

    def check_invariants(self) -> None:
        assert self.current == apply_patch(self.rt, self.base, self.history)
        assert self.uids == {op.uid for op in self.history}
        own = [op.uid for op in self.history if op.uid.site == self.site]
        assert all(u.seq < self.next_seq for u in own)

    def digest(self) -> str:
        return self.rt.digest(self.current)


def quiescent(sites: Dict[int, SiteState], inflight: int) -> bool:
    """Nothing in flight, nothing unsent, every cursor caught up with its
    partner's history."""
    if inflight != 0:
        return False
    for s in sites.values():
        for peer, cur in s.peers.items():
            if cur.sent_len != len(s.history):
                return False
            if cur.recv_len != len(sites[peer].history):
                return False
    return True

"""Replication protocol: cumulative patch exchange with transform-on-receive.

Every site keeps its full history as one patch from the shared base state.
A message to a peer carries a suffix of that history plus ``prefix_len``, the
number of ops the receiver is assumed to hold already.  The receiver rebuilds
the sender's cumulative patch, transforms it against its own history, applies
whatever is genuinely new, and rebroadcasts it: at once to every other
peer, and to the sender perhaps later (see the echo below).  Operations the
receiver already integrated cancel by uid during transformation, so a patch
with nothing new transforms to the identity and the broadcast stops there:
updates terminate on their own, even on cyclic topologies, with no clocks
and no coordinator.

Every message from a peer is a piece of one append-only stream: an
``Increment`` covers the peer's history from ``prefix_len`` on, a ``Full``
covers it from position 0.  Within one incarnation of the peer a position
always holds the same op, so a piece is known by its position alone: only
the ops past the cursor are new, a duplicate or an overtaken piece is
dropped and an overlapping one integrates just its tail.  A restarted peer
is a new incarnation whose stream starts over; its Hello names the new
incarnation (a nonce the agent draws at start-up), and the Hello resets the
cursor's receive side, so the new stream is read from position 0.  A Hello
that names no incarnation always resets.  The new incarnation must not
reuse the old one's uids, or each side would cancel the other's op by uid,
so the agent numbers a process's ops from a random ``next_seq``; it may
edit before it has caught up.  A piece that starts past the cursor is held
(at most ``HOLD_LIMIT`` per peer, keyed by its start) and integrated as
soon as the cursor reaches it, so a link that reorders fills its own gaps
without a message.  A resync happens only when the stream is broken for
good: a gap is still open once nothing older can arrive on the link (the
transport says so with ``link_drained``) or the hold is full.  The
receiver then asks for the peer's full history, which integrates as the
piece from position 0, and held pieces continue whatever it brought.  At
most one request is in flight per peer.
Because a piece is defined by its position alone, increments of one stream
that continue each other integrate as one, reaching the same state as the
pieces one by one.  ``handle_batch`` is the one receive path for a batch of
a peer's messages (the agent's read, the simulator's delivery on one link at
one tick): it merges each such run and integrates it with one
``handle_message`` told not to broadcast.  Each entry point (``local_update``,
``handle_message``, ``handle_batch``) builds its increments once, at its end,
and only if the history grew; since ``make_increment`` sends the whole
unsent suffix, a call sends each peer one increment at most.  A
``ProtocolError`` ends a call before its increments are built: what the
earlier messages committed stays, unsent, and ``flush`` sends each peer its
share.  A piece commits only once it has transformed and applied, so a
``SiteFaulted`` leaves the history, ``current`` and cursors as they were.

The rebroadcast to the sender, the echo, brings it nothing new: it holds
those ops already, and they cancel by uid on arrival.  It is sent only
because the sender's cursor of this site's stream must reach the end of it.
The echo has no deadline: ``make_increment`` sends the whole unsent suffix,
so the next increment to that peer carries it anyway.
``handle_message`` sends it at once; ``handle_batch`` leaves it unsent, and
``flush`` sends it later unless a local op or a relay has carried it by
then.  Leaving it is always safe: every other append is broadcast at once,
so what is unsent to the batch's sender is only its own ops, in this site's
frame.  The simulator flushes a few ticks after the delivery; the agent
flushes after every read.

Transforming the peer's whole cumulative patch against the whole local
history on every receipt would cost |M|x|H| per message.  The cursor
therefore caches, per peer, only the local history's *remainder* rewritten
into the peer's frame (everything we hold that the peer's patch does not
account for).  An arriving suffix S then needs only transform(S, remainder):
by the compositional property this yields exactly the same result as the
full computation, since the known prefix transforms to identity against our
history by construction.  The sweep reads no state, so no state of the
peer's is kept; the peer's ops are checked where their rewritten forms are
applied to ``current`` at commit, and an op that does not apply faults the
site there.  The tests' ``VerifiedSite`` re-runs the full computation at
every receipt and asserts that both routes agree.

The bookkeeping of one op costs the same at any history length, and a piece's
sweep costs the ops its ops meet, so a catch-up echo or a third-peer stream
costs its length.  ``_append`` checks uids in a set.  The history and the one
per-peer list, the remainder, grow in place.  Of the peer's stream a cursor
keeps only its length.  ``history`` is read as a ``HistoryView``: a snapshot
of the log fixed at its length when taken, which costs O(1) because no entry
of the log ever changes or goes away.  ``Full`` carries such a view, and a
message in flight may hold one while this site moves on.

SiteState is a single-threaded state machine: callers must serialize entry
points (the agent funnels everything through one event loop, the simulator
is sequential by construction).
"""

from __future__ import annotations

from itertools import chain, groupby, islice
from types import SimpleNamespace
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from .core import (
    CcrError,
    OpId,
    Operation,
    Patch,
    apply_patch,
    transform_patch,
)
from .replicas.base import ReplicaType

# Most pieces held per peer past a gap; one more asks for a resync at once.
HOLD_LIMIT = 64


class ProtocolError(CcrError):
    """A peer broke the protocol (message before Hello, a Hello naming
    another site than its link's, kind mismatch, site collision).  Scoped
    to one connection.  Raised from ``handle_batch``, it leaves committed
    what the batch's messages before the offending one brought; ``flush``
    gives each peer its increment."""


class SiteFaulted(CcrError):
    """A peer's piece failed to transform or apply, or reused a uid.  It
    commits nothing, but the site stays faulted for good."""


class Hello(NamedTuple):
    site: int
    kind: str
    known_len: int  # ops of the receiver's history the sender already holds
    incarnation: Optional[int] = None  # the sender's start-up nonce


class Increment(NamedTuple):
    kind: str
    sender: int
    prefix_len: int  # ops of the sender's history the receiver is assumed to hold
    ops: Patch


class ResyncReq(NamedTuple):
    """Ask the peer for its whole history.  An empty tuple, so it is falsy
    and equals ``()``: never test a message for truth."""


class Full(NamedTuple):
    sender: int
    ops: Patch


Message = Any  # Hello | Increment | ResyncReq | Full


class HistoryView:
    """The first ``n`` ops of an append-only log, as a read-only sequence.

    Valid as long as the log is only ever extended, which ``SiteState``
    guarantees for its history.  Slices are tuples; a view equals any
    tuple, list or view holding the same ops.
    """

    __slots__ = ("_log", "_n")

    def __init__(self, log: List[Operation], n: int):
        self._log = log
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[Operation]:
        return islice(self._log, self._n)

    def __getitem__(self, i):
        if isinstance(i, slice):
            start, stop, step = i.indices(self._n)
            if step == 1:
                return tuple(self._log[start:stop])
            return tuple(self._log[k] for k in range(start, stop, step))
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError("history index out of range")
        return self._log[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (HistoryView, tuple, list)):
            return NotImplemented
        return len(other) == self._n and tuple(self) == tuple(other)

    def __repr__(self) -> str:
        return f"HistoryView({tuple(self)!r})"


class PeerCursor:
    """What this site knows of one peer's stream and what it has sent it."""

    __slots__ = ("sent_len", "recv_len", "incarnation", "remainder", "held",
                 "resync_pending")

    def __init__(self) -> None:
        self.sent_len = 0
        # Ops of the peer's stream integrated, in the incarnation its last
        # Hello named (None: it named none).
        self.recv_len = 0
        self.incarnation: Optional[int] = None
        # Local history rewritten into the peer's frame (see module
        # docstring); extended in place.
        self.remainder: List[Operation] = []
        # Pieces of the peer's stream that start past recv_len, by start,
        # the longer one kept when two share it; at most HOLD_LIMIT.  While
        # any is held, a gap before it is open.
        self.held: Dict[int, Patch] = {}
        # A ResyncReq is out and its Full has not come back yet.
        self.resync_pending = False


class SiteStats(SimpleNamespace):
    """Counts of what this site has done; ``ccr-sim`` sums them over sites.
    ``vars()`` gives them by name, always in this order; two are equal when
    every count is."""

    def __init__(self, resync_reqs: int = 0,  # ResyncReqs sent
                 fulls_served: int = 0,  # Fulls sent in answer to one
                 stale_dropped: int = 0):  # pieces that held nothing new; a merged run is one
        super().__init__(resync_reqs=resync_reqs, fulls_served=fulls_served,
                         stale_dropped=stale_dropped)


def _runs(msgs: Sequence[Message]) -> Sequence[Message]:
    """One peer's messages in order, each ``Increment`` merged into the one
    before it when both have the same kind and it starts where that one
    ends, and each ``ResyncReq`` after the first dropped until a ``Hello``:
    the first one's Full covers the history up to it, and the deferred
    increment the rest.  A message merged with none is passed on as it is."""
    if len(msgs) < 2:
        return msgs
    runs: List[List[Message]] = []
    end = None  # where the last run ends, while it is a run of increments
    asked = False  # a ResyncReq is kept since the last Hello
    for msg in msgs:
        req = isinstance(msg, ResyncReq)
        if req and asked:
            continue
        asked = (asked or req) and not isinstance(msg, Hello)
        inc = isinstance(msg, Increment)
        if inc and msg.prefix_len == end and msg.kind == runs[-1][0].kind:
            runs[-1].append(msg)
        else:
            runs.append([msg])
        end = msg.prefix_len + len(msg.ops) if inc else None
    return [run[0] if len(run) == 1 else
            Increment(run[0].kind, run[0].sender, run[0].prefix_len,
                      tuple(chain.from_iterable(m.ops for m in run)))
            for run in runs]


class SiteState:
    def __init__(self, site: int, rt: ReplicaType):
        self.site = site
        self.rt = rt
        self.current = rt.initial()
        self._log: List[Operation] = []  # the history; only ever extended
        self.uids: Set[OpId] = set()  # uid of every op in history
        self.next_seq = 1
        self.peers: Dict[int, PeerCursor] = {}
        self.faulted: Optional[str] = None
        self.stats = SiteStats()

    @property
    def history(self) -> HistoryView:
        """Every op integrated so far, as a snapshot that later ops leave
        unchanged."""
        return HistoryView(self._log, len(self._log))

    # -- peer management ----------------------------------------------------

    def connect_peer(self, peer_site: int, known_len: int = 0,
                     incarnation: Optional[int] = None) -> None:
        """Create or refresh the cursor for a peer (a Hello arrived or we
        dialed).  known_len is the peer's claim of how much of our history it
        already holds; an overclaim (stale or fresh restart on their side)
        leaves a gap there, which asks for a resync.  Unless the peer
        names the incarnation the cursor last saw, its stream starts over:
        the receive side is reset as if it had sent nothing.  A request
        still pending on an old link is forgotten, so the next gap asks
        again, and pieces held from the old link are dropped."""
        cur = self.peers.setdefault(peer_site, PeerCursor())
        if incarnation is None or incarnation != cur.incarnation:
            cur.recv_len = 0
            cur.remainder = list(self._log)
        cur.incarnation = incarnation
        cur.sent_len = min(known_len, len(self._log))
        cur.held.clear()
        cur.resync_pending = False

    # -- local edits ---------------------------------------------------------

    def local_update(self, intent: Tuple[Any, ...]) -> List[Tuple[int, Message]]:
        """Apply a user intent locally; returns increments to send."""
        self._check_ok()
        op = self.rt.gen_effective(self.current, intent, OpId(self.site, self.next_seq))
        if op is None:
            return []
        current = self.rt.apply(self.current, op)  # an op that fails changes nothing
        n = len(self._log)
        self._append((op,))
        self.next_seq += 1
        self.current = current
        for cur in self.peers.values():
            cur.remainder.append(op)
        return self._broadcast(n, None)

    # -- message handling ----------------------------------------------------

    def handle_batch(self, from_site: int, msgs: Sequence[Message]) -> List[Tuple[int, Message]]:
        """Handle a peer's messages in order, each run of increments that
        continue each other as one; returns the replies, one increment per
        peer at most.  The echo to ``from_site`` is not among them: it stays
        unsent until ``flush`` or a later increment to that peer.  A
        ``ProtocolError`` keeps what the messages before it committed but
        sends nothing: ``flush`` gives each peer its increment."""
        n = len(self._log)
        out: List[Tuple[int, Message]] = []
        for msg in _runs(msgs):
            out += self.handle_message(from_site, msg, False)
        return out + self._broadcast(n, from_site)

    def deferred(self, peer: int) -> bool:
        """Some of the history is unsent to ``peer``: ``flush`` sends it."""
        return self.peers[peer].sent_len < len(self._log)

    def flush(self, peer: int) -> List[Tuple[int, Message]]:
        """The increment ``handle_batch`` deferred to ``peer``, unless a
        later one has carried it already."""
        m = self.make_increment(peer)
        return [] if m is None else [(peer, m)]

    def handle_message(self, from_site: int, msg: Message,
                       broadcast: bool = True) -> List[Tuple[int, Message]]:
        """Handle one message from a peer; returns the replies and, if
        ``broadcast``, one increment per peer at most.  A ``SiteFaulted``
        leaves the history, ``current`` and every cursor as they were."""
        self._check_ok()
        if isinstance(msg, Hello):
            return self._handle_hello(from_site, msg)
        cur = self.peers.get(from_site)
        if cur is None:
            raise ProtocolError(f"message from site {from_site} before Hello")
        n = len(self._log)
        if isinstance(msg, Increment):
            if msg.kind != self.rt.name:
                raise ProtocolError(
                    f"kind mismatch: peer sends {msg.kind!r}, this site is {self.rt.name!r}"
                )
            start = msg.prefix_len
        elif isinstance(msg, ResyncReq):
            reply = Full(sender=self.site, ops=HistoryView(self._log, n))
            cur.sent_len = n
            self.stats.fulls_served += 1
            return [(from_site, reply)]
        elif isinstance(msg, Full):
            cur.resync_pending = False
            start = 0
        else:
            raise ProtocolError(f"unknown message {msg!r}")
        out = self._piece(from_site, start, msg.ops)
        if broadcast:
            out += self._broadcast(n, None)
        return out

    def request_resync(self, peer: int) -> List[Tuple[int, Message]]:
        """Ask the peer for its full history unless a request is already
        out: a dialer asks at once, a broken stream when its hold is full or
        when its link has drained with a gap still open."""
        cur = self.peers[peer]
        if cur.resync_pending:
            return []
        cur.resync_pending = True
        self.stats.resync_reqs += 1
        return [(peer, ResyncReq())]

    def link_drained(self, peer: int) -> List[Tuple[int, Message]]:
        """Nothing older can still arrive from ``peer``: a gap before a held
        piece will not fill by itself, so ask for the peer's history (one
        request in flight at most).  Called by the driver, after every read
        of a FIFO link and whenever a reordering link empties."""
        return self.request_resync(peer) if self.peers[peer].held else []

    def _piece(self, peer: int, start: int, ops: Patch) -> List[Tuple[int, Message]]:
        """Integrate the ops of a piece of the peer's stream that lie past
        the cursor, then every held piece the cursor reaches; hold the piece
        if it starts past the cursor.  Returns the hold's request, if any."""
        cur = self.peers[peer]
        if start > cur.recv_len:
            return self._hold(peer, start, ops)
        self._integrate(peer, ops[cur.recv_len - start:])
        while cur.held and min(cur.held) <= cur.recv_len:
            start = min(cur.held)
            self._integrate(peer, cur.held.pop(start)[cur.recv_len - start:])
        return []

    def _hold(self, peer: int, start: int, ops: Patch) -> List[Tuple[int, Message]]:
        """Keep a piece that starts past the cursor until the gap before it
        fills.  A full hold asks at once and drops a piece, but never the
        one that reaches furthest: a piece sent after the answering Full was
        cut then still leaves a gap open once that Full lands."""
        held = self.peers[peer].held
        have = held.get(start)
        if have is None and len(held) >= HOLD_LIMIT:
            far = max(held, key=lambda k: k + len(held[k]))
            if start + len(ops) > far + len(held[far]):
                del held[far]
                held[start] = ops
            return self.request_resync(peer)
        if have is None or len(ops) > len(have):
            held[start] = ops
        return []

    def _handle_hello(self, from_site: int, msg: Hello) -> List[Tuple[int, Message]]:
        # A Hello resets the cursor of the site it names: only its own link may.
        if msg.site != from_site:
            raise ProtocolError(f"Hello for site {msg.site} on the link of site {from_site}")
        if msg.site == self.site:
            raise ProtocolError(f"site id collision: peer also claims site {msg.site}")
        if msg.kind != self.rt.name:
            raise ProtocolError(
                f"kind mismatch: peer is {msg.kind!r}, this site is {self.rt.name!r}"
            )
        self.connect_peer(msg.site, msg.known_len, msg.incarnation)
        return []

    # -- integration core ----------------------------------------------------

    def _integrate(self, from_site: int, ops: Patch) -> None:
        """Integrate the ops of the peer's stream that follow the cursor;
        commit what they hold that is new once all of it has applied."""
        if not ops:
            self.stats.stale_dropped += 1
            return
        cur = self.peers[from_site]
        try:
            # The ops apply in the peer's frame, which is never built: the
            # sweep needs no state.
            fresh, rem = transform_patch(self.rt, None, ops, cur.remainder)
            current = apply_patch(self.rt, self.current, fresh) if fresh else self.current
        except CcrError as e:
            self.faulted = str(e)
            raise SiteFaulted(f"site {self.site} faulted during integration: {e}") from e
        if fresh:
            self._append(fresh)
            self.current = current
            for peer, other in self.peers.items():
                if peer != from_site:
                    other.remainder.extend(fresh)
        cur.recv_len += len(ops)
        cur.remainder = list(rem)

    def _append(self, ops: Patch) -> None:
        """Extend the history by ops, refusing any uid it already holds, as
        ``core.compose`` does, at a cost that does not grow with it.  A
        reused uid faults the site: each side would cancel the other's op."""
        shared = {op.uid for op in ops if op.uid in self.uids}
        if shared:
            self.faulted = f"duplicate uids across composition: {sorted(shared)}"
            raise SiteFaulted(f"site {self.site} faulted: {self.faulted}")
        self._log.extend(ops)
        self.uids.update(op.uid for op in ops)

    def _broadcast(self, n: int, skip: Optional[int]) -> List[Tuple[int, Message]]:
        """Increments to every peer but ``skip``, if the history grew past ``n``."""
        out = []
        if len(self._log) > n:
            for peer in self.peers:
                if peer != skip:
                    m = self.make_increment(peer)
                    if m is not None:
                        out.append((peer, m))
        return out

    def make_increment(self, peer_site: int) -> Optional[Increment]:
        """Suffix of history the peer has not been sent yet, or None."""
        cur = self.peers[peer_site]
        n = len(self._log)
        if cur.sent_len == n:
            return None
        msg = Increment(
            kind=self.rt.name,
            sender=self.site,
            prefix_len=cur.sent_len,
            ops=tuple(self._log[cur.sent_len:]),
        )
        cur.sent_len = n
        return msg

    # -- invariants and checks -----------------------------------------------

    def _check_ok(self) -> None:
        if self.faulted is not None:
            raise SiteFaulted(f"site {self.site} previously faulted: {self.faulted}")

    def check_invariants(self) -> None:
        assert self.current == apply_patch(self.rt, self.rt.initial(), self._log)
        assert self.uids == {op.uid for op in self._log}
        # No uid appears twice, across incarnations too; the fragments of a
        # split deletion share theirs, side by side.
        assert sum(1 for _ in groupby(op.uid for op in self._log)) == len(self.uids)

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

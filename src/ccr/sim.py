"""Deterministic protocol fuzzing on a simulated network.

A trial wires up real SiteState machines over logical time: no sockets, no
wall clock, every choice drawn from two RNGs seeded by the trial's seed (the
plan's and the network's), so a seed reproduces a trial exactly.  Time is in
integer ticks.  The agenda keeps one list of events per tick, in the order
they were scheduled, and runs the ticks in ascending order; no event is
ever scheduled for the tick being run, so each list is complete when its
tick starts.  Local updates are scheduled across a time horizon; each offers
its site intents drawn by the kind's ``draw_intent`` until one takes effect,
so the site itself tests each draw, once.  A delivery takes a delay of 1-3
ticks, one ``choice`` over the constant ``DELAYS``.  Without --reorder,
deliveries between a pair stay FIFO like a stream socket; with it they may
overtake.  --duplicate occasionally delivers a message once more, later.
Every message due on one link at one tick is delivered as one batch, in
send order, through ``SiteState.handle_batch``: the simulator's counterpart
of one socket read in the agent.  A piece that overtook another is held by
its receiver until the gap fills; when a delivery leaves its link empty,
nothing older can still arrive, and the receiver is told so
(``SiteState.link_drained``) and asks for a resync if a gap is still open.
The network loses nothing, so on its own it never needs that resync.
A delivery leaves its echo (the receiver's rebroadcast of the sender's own
ops back to the sender) unsent; the trial flushes it ``ECHO_DELAY`` ticks
later, at most one flush pending per link, and by then a local op or a relay
to that peer has often carried it, so the flush sends nothing.

``run_trial`` takes a ``SimConfig`` and returns a ``TrialReport``, both
named tuples; the report's ``stats`` sums every site's ``SiteStats``, its
counters in their order.  A trial converges when the agenda drains, every
cursor is caught up, and all site digests are equal.  Exceeding the event
budget is reported as nonterminating, which is a different failure than
divergence.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from .core import CcrError, IntentError
from .protocol import SiteState, SiteStats, quiescent
from .replicas import replica_type
from .replicas.base import DRAWS

# Ticks a deferred echo waits for a later increment on its link to carry it.
ECHO_DELAY = 4
# Delays in ticks, each drawn by one ``choice``: a message's, and a
# duplicate's after it.  ``choice`` over a tuple draws the same stream as
# ``randint`` over its range, in one call instead of three.
DELAYS = (1, 2, 3)
DUPLICATE_DELAYS = (1, 2, 3, 4, 5, 6)


class SimConfig(NamedTuple):
    kind: str
    sites: int = 3
    ops_per_site: int = 20
    seed: int = 0
    topology: str = "full"  # full | ring | chain
    reorder: bool = False
    duplicate: bool = False
    max_events: int = 1_000_000


class TrialReport(NamedTuple):
    seed: int
    converged: bool
    reason: str  # ok | divergence | nonterminating | fault: ...
    digests: Dict[int, str]
    messages_sent: int
    max_inflight: int
    events: int
    script: List[Tuple[int, int, Tuple[Any, ...]]]  # the intents that took effect
    stats: Dict[str, int]  # SiteStats summed over sites, in its order

    def summary(self) -> str:
        flag = "ok" if self.converged else f"FAIL ({self.reason})"
        return (
            f"seed={self.seed} {flag} messages={self.messages_sent} "
            f"max_inflight={self.max_inflight} events={self.events}"
        )


def topology_edges(topology: str, n: int) -> List[Tuple[int, int]]:
    if topology == "full":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    if topology == "ring":
        if n < 2:
            return []
        edges = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
        return sorted(edges)
    if topology == "chain":
        return [(i, i + 1) for i in range(n - 1)]
    raise ValueError(f"unknown topology {topology!r}")


def random_update(site: SiteState, rng: random.Random) -> Optional[Tuple[Tuple[Any, ...], list]]:
    """The first of up to ``DRAWS`` drawn intents that grows ``site``'s
    history, with its replies, or None; the others leave the site as it was.
    A draw took effect when it advanced ``site.next_seq``, which a local op
    does exactly when it joins the history."""
    for _ in range(DRAWS):
        intent = site.rt.draw_intent(rng, site.current)
        seq = site.next_seq
        try:
            out = site.local_update(intent)
        except IntentError:
            continue
        if site.next_seq > seq:
            return intent, out
    return None


def run_trial(cfg: SimConfig, script: Optional[List[Tuple[int, int, Tuple[Any, ...]]]] = None) -> TrialReport:
    """Run one trial.  ``script`` replays a recorded intent schedule
    (``TrialReport.script``) instead of drawing fresh intents; entries that
    no longer fit the state are skipped."""
    # Two independent streams so that replaying a recorded script skips the
    # intent draws without disturbing the delivery pattern: a full-script
    # replay retraces the original trial exactly.
    plan_rng = random.Random(f"{cfg.seed}:plan")
    net_rng = random.Random(f"{cfg.seed}:net")
    n = cfg.sites
    rt = replica_type(cfg.kind)
    sites = {i: SiteState(i, rt) for i in range(n)}
    for i, j in topology_edges(cfg.topology, n):
        sites[i].connect_peer(j)
        sites[j].connect_peer(i)

    # time -> its events, in the order scheduled: ("update", site, intent),
    # ("deliver", src, dst) or ("flush", site, peer)
    agenda: Dict[int, List[Tuple[str, int, Any]]] = {}

    horizon = max(1, cfg.ops_per_site * n)
    if script is None:
        for site in range(n):
            for _ in range(cfg.ops_per_site):
                agenda.setdefault(plan_rng.randrange(horizon), []).append(("update", site, None))
    else:
        for time, site, intent in script:
            agenda.setdefault(time, []).append(("update", site, intent))

    choice, coin = net_rng.choice, net_rng.random
    reorder, duplicate = cfg.reorder, cfg.duplicate
    link_clock = [[0] * n for _ in range(n)]  # [src][dst] -> last delivery time, FIFO
    # [src][dst] -> time -> the messages due then on that link, in send order
    due: List[List[Dict[int, List[Any]]]] = [[{} for _ in range(n)] for _ in range(n)]
    flushing = [[False] * n for _ in range(n)]  # [site][peer]: a flush is scheduled
    inflight = 0
    max_inflight = 0
    messages_sent = 0
    recorded: List[Tuple[int, int, Tuple[Any, ...]]] = []

    def enqueue(t: int, src: int, dst: int, msg: Any) -> None:
        batches = due[src][dst]
        batch = batches.get(t)
        if batch is None:
            batches[t] = [msg]
            agenda.setdefault(t, []).append(("deliver", src, dst))
        else:
            batch.append(msg)

    def send(now: int, src: int, out: List[Tuple[int, Any]]) -> None:
        nonlocal inflight, max_inflight, messages_sent
        clock = link_clock[src]
        for dst, msg in out:
            t = now + choice(DELAYS)
            if not reorder:
                if t < clock[dst]:
                    t = clock[dst]
                clock[dst] = t
            enqueue(t, src, dst, msg)
            inflight += 1
            if duplicate and coin() < 0.1:
                enqueue(t + choice(DUPLICATE_DELAYS), src, dst, msg)  # delivered once more, later
                inflight += 1
        messages_sent += len(out)
        if inflight > max_inflight:
            max_inflight = inflight

    events = 0
    reason = "ok"
    now = min(agenda, default=0)
    try:
        while agenda and reason == "ok":
            todo = agenda.pop(now, None)
            if todo is None:  # a gap between scheduled times
                now = min(agenda)
                continue
            for kind, a, b in todo:
                events += 1
                if events > cfg.max_events:
                    reason = "nonterminating"
                    break
                if kind == "deliver":
                    batches = due[a][b]
                    batch = batches.pop(now)
                    inflight -= len(batch)
                    s = sites[b]
                    out = s.handle_batch(a, batch)
                    if not batches:  # nothing else is in flight on the link
                        out += s.link_drained(a)
                    send(now, b, out)
                    if not flushing[b][a] and s.deferred(a):
                        flushing[b][a] = True
                        agenda.setdefault(now + ECHO_DELAY, []).append(("flush", b, a))
                elif kind == "update":
                    s = sites[a]
                    seq = s.next_seq
                    if b is None:
                        intent, out = random_update(s, plan_rng) or (None, [])
                    else:
                        intent = b
                        try:
                            out = s.local_update(intent)
                        except IntentError:
                            continue  # scripted intent no longer fits the state
                    if s.next_seq > seq:
                        recorded.append((now, a, intent))
                    send(now, a, out)
                else:
                    flushing[a][b] = False
                    send(now, a, sites[a].flush(b))
            now += 1
    except CcrError as e:
        reason = f"fault: {e}"

    if reason == "ok" and not quiescent(sites, 0):
        reason = "drained without quiescence"
    digests = {i: s.digest() for i, s in sites.items()}
    if reason == "ok" and len(set(digests.values())) != 1:
        reason = "divergence"
    stats = {name: sum(getattr(s.stats, name) for s in sites.values())
             for name in vars(SiteStats())}
    return TrialReport(cfg.seed, reason == "ok", reason, digests,
                       messages_sent, max_inflight, events, recorded, stats)

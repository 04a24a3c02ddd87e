"""Deterministic protocol fuzzing on a simulated network.

A trial wires up real SiteState machines over a logical-time event queue: no
sockets, no wall clock, every choice drawn from one seeded RNG, so a seed
reproduces a trial exactly.  Local updates are scheduled across a time
horizon; each offers its site intents drawn by the kind's ``draw_intent``
until one takes effect, so the site itself tests each draw, once.
Deliveries take a small random delay.  Without --reorder, deliveries between
a pair stay FIFO like a stream socket; with it they may overtake.
--duplicate occasionally delivers a message once more, later.
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
counters in their order.  A trial converges when the queue drains, every
cursor is caught up, and all site digests are equal.  Exceeding the event
budget is reported as nonterminating, which is a different failure than
divergence.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Dict, List, NamedTuple, Optional, Set, Tuple

from .core import CcrError, IntentError
from .protocol import SiteState, SiteStats, quiescent
from .replicas import replica_type
from .replicas.base import DRAWS

# Ticks a deferred echo waits for a later increment on its link to carry it.
ECHO_DELAY = 4


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
    history, with its replies, or None; the others leave the site as it was."""
    for _ in range(DRAWS):
        intent = site.rt.draw_intent(rng, site.current)
        n = len(site.history)
        try:
            out = site.local_update(intent)
        except IntentError:
            continue
        if len(site.history) > n:
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
    rt = replica_type(cfg.kind)
    sites = {i: SiteState(i, rt) for i in range(cfg.sites)}
    for i, j in topology_edges(cfg.topology, cfg.sites):
        sites[i].connect_peer(j)
        sites[j].connect_peer(i)

    heap: List[Tuple[int, int, str, Tuple[Any, ...]]] = []
    tick = 0

    def push(time: int, kind: str, payload: Tuple[Any, ...]) -> None:
        nonlocal tick
        heapq.heappush(heap, (time, tick, kind, payload))
        tick += 1

    horizon = max(1, cfg.ops_per_site * cfg.sites)
    if script is None:
        for site in range(cfg.sites):
            for _ in range(cfg.ops_per_site):
                push(plan_rng.randrange(horizon), "update", (site, None))
    else:
        for time, site, intent in script:
            push(time, "update", (site, intent))

    pair_clock: Dict[Tuple[int, int], int] = {}
    # (time, src, dst) -> the messages due then on that link, in send order
    due: Dict[Tuple[int, int, int], List[Any]] = {}
    on_link: Dict[Tuple[int, int], int] = {}  # (src, dst) -> messages in flight
    flushing: Set[Tuple[int, int]] = set()  # (site, peer) with a flush scheduled
    inflight = 0
    max_inflight = 0
    messages_sent = 0
    recorded: List[Tuple[int, int, Tuple[Any, ...]]] = []

    def enqueue(t: int, src: int, dst: int, msg: Any) -> None:
        nonlocal inflight, max_inflight
        key = (t, src, dst)
        batch = due.get(key)
        if batch is None:
            due[key] = [msg]
            push(t, "deliver", key)
        else:
            batch.append(msg)
        on_link[src, dst] = on_link.get((src, dst), 0) + 1
        inflight += 1
        if inflight > max_inflight:
            max_inflight = inflight

    def send(now: int, src: int, dst: int, msg: Any) -> None:
        nonlocal messages_sent
        t = now + net_rng.randint(1, 3)
        if not cfg.reorder:
            t = max(t, pair_clock.get((src, dst), 0))
            pair_clock[(src, dst)] = t
        enqueue(t, src, dst, msg)
        messages_sent += 1
        if cfg.duplicate and net_rng.random() < 0.1:
            enqueue(t + net_rng.randint(1, 6), src, dst, msg)  # delivered once more, later

    def report(reason: str) -> TrialReport:
        digests = {i: s.digest() for i, s in sites.items()}
        if reason == "ok" and len(set(digests.values())) != 1:
            reason = "divergence"
        stats = {name: sum(getattr(s.stats, name) for s in sites.values())
                 for name in vars(SiteStats())}
        return TrialReport(cfg.seed, reason == "ok", reason, digests,
                           messages_sent, max_inflight, events, recorded, stats)

    events = 0
    fault: Optional[str] = None
    while heap:
        events += 1
        if events > cfg.max_events:
            return report("nonterminating")
        now, _, kind, payload = heapq.heappop(heap)
        try:
            if kind == "update":
                site, intent = payload
                s = sites[site]
                n = len(s.history)
                try:
                    if intent is None:
                        intent, out = random_update(s, plan_rng) or (None, [])
                    else:
                        out = s.local_update(intent)
                except IntentError:
                    continue  # scripted intent no longer fits the state
                if len(s.history) > n:
                    recorded.append((now, site, intent))
                for dst, msg in out:
                    send(now, site, dst, msg)
            elif kind == "deliver":
                _, src, dst = payload
                batch = due.pop(payload)
                inflight -= len(batch)
                left = on_link[src, dst] = on_link[src, dst] - len(batch)
                s = sites[dst]
                out = s.handle_batch(src, batch)
                if not left:
                    out += s.link_drained(src)
                for nxt, reply in out:
                    send(now, dst, nxt, reply)
                if (dst, src) not in flushing and s.deferred(src):
                    flushing.add((dst, src))
                    push(now + ECHO_DELAY, "flush", (dst, src))
            else:
                flushing.discard(payload)
                site, peer = payload
                for _, msg in sites[site].flush(peer):
                    send(now, site, peer, msg)
        except CcrError as e:
            fault = f"fault: {e}"
            break

    if fault is not None:
        return report(fault)
    if not quiescent(sites, 0):
        return report("drained without quiescence")
    return report("ok")

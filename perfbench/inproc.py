"""The two in-process workloads: ``long-history`` and ``faulty-ring``.

Both drive the engine only through its public entry points
(``SiteState.local_update`` / ``handle_message`` and ``ccr.sim.run_trial``)
on one thread.  Each returns a ``Outcome`` (see ``common``).
"""

from __future__ import annotations

import random
from collections import deque
from time import perf_counter

import ccr.sim as sim
from ccr.core import CcrError
from ccr.protocol import SiteState
from ccr.replicas import replica_type

from common import Outcome, median, percentile
from speed import Speed

ALPHABET = "abcdefghijklmnopqrstuvwxyz"

# long-history: two text sites grow one shared history to this many ops; a
# run's inputs are this many histories.
HISTORY_OPS = 4000
HISTORIES = 2
SPEED_EVERY = 500  # history ops between two samples of the machine's speed

# faulty-ring: one rotation is one trial of each kind, in this order; a run's
# inputs are this many rotations.
RING_KINDS = ("counter", "addmult", "lww", "eset", "queue", "text", "socialmedia")
RING = dict(sites=4, ops_per_site=20, topology="ring", reorder=True, duplicate=True)
ROTATIONS = 20


def _text_intent(rng, text):
    """An intent that is effective on ``text``: delete 1-3 characters one
    time in three, otherwise insert 1-3 letters."""
    if text and rng.random() < 1 / 3:
        k = rng.randrange(len(text))
        return ("del", k, rng.randint(1, min(3, len(text) - k)))
    s = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 3)))
    return ("ins", rng.randint(0, len(text)), s)


def _one_history(rt, rng, history_ops, latencies, speed):
    """Grow one two-site history, sampling ``speed`` between rounds every
    ``SPEED_EVERY`` ops (untimed); returns (ops made, messages, seconds,
    whether the gate passed, digest of site 0 or None after a fault)."""
    a, b = SiteState(0, rt), SiteState(1, rt)
    a.connect_peer(1)
    b.connect_peer(0)
    sites = (a, b)
    made = messages = 0
    pending = {}  # uid -> time its local_update began
    fault = None
    next_sample = SPEED_EVERY
    paused = 0.0
    t0 = perf_counter()
    try:
        while len(a.history) < history_ops:
            if len(a.history) >= next_sample:
                t = perf_counter()
                speed.sample()
                paused += perf_counter() - t
                next_sample += SPEED_EVERY
            queue = deque()
            for s in sites:
                h0 = len(s.history)
                t = perf_counter()
                out = s.local_update(_text_intent(rng, s.current))
                for op in s.history[h0:]:
                    made += 1
                    pending[op.uid] = t
                queue.extend((s.site, dst, m) for dst, m in out)
            while queue:
                src, dst, msg = queue.popleft()
                messages += 1
                target = sites[dst]
                h0 = len(target.history)
                replies = target.handle_message(src, msg)
                now = perf_counter()
                # An op subsumed by a concurrent delete never shows up at
                # the peer and gives no sample.
                for op in target.history[h0:]:
                    issued = pending.pop(op.uid, None)
                    if issued is not None:
                        latencies.append(1000.0 * (now - issued))
                queue.extend((dst, nxt, m) for nxt, m in replies)
    except CcrError as e:
        fault = e
    seconds = perf_counter() - t0 - paused
    if fault is not None:
        return made, messages, seconds, False, None
    return made, messages, seconds, _gate(a, b), a.digest()


def _gate(a, b):
    """long-history correctness gate: equal digests and both sites'
    invariants hold."""
    if a.digest() != b.digest():
        return False
    try:
        a.check_invariants()
        b.check_invariants()
    except AssertionError:
        return False
    return True


def long_history(seed, seconds=None, units=None, tracer=None):
    """``tracer`` is not needed here: its wrappers already catch every call
    the two sites make, and set each span's request id to the op uid."""
    rt = replica_type("text")
    rng = random.Random(seed)
    inputs = [rng.randrange(2**32) for _ in range(HISTORIES)]
    out = Outcome()
    speed = Speed()
    latencies = []
    # per history: ops that passed the gate / seconds, at the reference
    # speed and as timed
    rates, wall_rates = [], []
    messages = 0
    first = {}  # input index -> (gate passed, digest) of its first run
    start = perf_counter()
    k0 = speed.sample()
    while not out.finished(start, seconds, units, HISTORIES):
        i = out.units % HISTORIES
        made, msgs, dt, ok, digest = _one_history(
            rt, random.Random(inputs[i]), HISTORY_OPS, latencies, speed)
        k1 = speed.sample()
        out.units += 1
        out.work_s += dt
        wall_rates.append(made / dt if ok else 0.0)
        rates.append(wall_rates[-1] * speed.slowdown(k0, k1))
        k0 = k1
        if i not in first:
            first[i] = (ok, digest)
            out.attempted += made
            messages += msgs
            if not ok:
                out.failed += made
        elif first[i] != (ok, digest):
            out.correct = False  # the same edits ended elsewhere this time
    out.e2e["ops_per_s"] = (median(rates), "1/s")
    out.extra["ops_per_s.wall"] = (median(wall_rates), "1/s")
    out.extra["op_latency_ms.p50"] = (percentile(latencies, 50), "ms")
    out.extra["op_latency_ms.p99"] = (percentile(latencies, 99), "ms")
    out.e2e["msgs_per_op"] = (messages / out.attempted, "count")
    out.samples["op_latency_ms"] = len(latencies)
    return out


def _outcome_name(reason):
    if reason == "ok" or reason == "nonterminating":
        return reason
    if reason.startswith("fault"):
        return "fault"
    return "divergence"  # includes "drained without quiescence"


def _counter_reference(report):
    """Independent check of a converged counter trial: the agreed value is
    the signed sum of every effective intent."""
    total = sum(n if verb == "incr" else -n for _, _, (verb, n) in report.script)
    return all(d == str(total) for d in report.digests.values())


def faulty_ring(seed, seconds=None, units=None, tracer=None):
    rng = random.Random(seed)
    inputs = [[sim.SimConfig(kind=kind, seed=rng.randrange(2**31), **RING)
               for kind in RING_KINDS] for _ in range(ROTATIONS)]
    out = Outcome()
    speed = Speed()
    # per rotation: ops of converged trials / seconds, at the reference speed
    # and as timed
    rates, wall_rates = [], []
    messages = 0
    tally = dict.fromkeys(("ok", "divergence", "fault", "nonterminating"), 0)
    events = max_inflight = 0
    first = {}  # (rotation, kind) -> (reason, digests) of its first run
    run_trial = sim.run_trial if tracer is None else tracer.span("sim.run_trial", sim.run_trial)
    start = perf_counter()
    k0 = speed.sample()
    while not out.finished(start, seconds, units, ROTATIONS):
        r = out.units % ROTATIONS
        ok_ops = 0
        busy = 0.0
        for k, cfg in enumerate(inputs[r]):
            if tracer is not None:
                tracer.req = cfg.seed
            t = perf_counter()
            report = run_trial(cfg)
            busy += perf_counter() - t
            n = len(report.script)
            if report.converged:
                ok_ops += n
            result = (report.reason, report.digests)
            if (r, k) in first:
                if first[r, k] != result:
                    out.correct = False  # run_trial did not reproduce the trial
                continue
            first[r, k] = result
            out.attempted += n
            messages += report.messages_sent
            events += report.events
            max_inflight = max(max_inflight, report.max_inflight)
            tally[_outcome_name(report.reason)] += 1
            if report.converged:
                if len(set(report.digests.values())) != 1 or (
                        cfg.kind == "counter" and not _counter_reference(report)):
                    out.correct = False
            else:
                out.failed += n
        k1 = speed.sample()
        out.units += 1
        out.work_s += busy
        wall_rates.append(ok_ops / busy)
        rates.append(wall_rates[-1] * speed.slowdown(k0, k1))
        k0 = k1
    out.e2e["ops_per_s"] = (median(rates), "1/s")
    out.extra["ops_per_s.wall"] = (median(wall_rates), "1/s")
    out.e2e["msgs_per_op"] = (messages / out.attempted, "count")
    out.layer["sim.events"] = (events, "count")
    out.layer["sim.messages"] = (messages, "count")
    out.layer["sim.max_inflight"] = (max_inflight, "count")
    out.samples["outcomes"] = tally
    for name, n in tally.items():
        out.layer[f"sim.outcome.{name}"] = (n, "count")
    return out

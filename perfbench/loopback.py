"""The ``agent-loopback`` workload: a real ``ccr-agent`` process over TCP.

The benchmark plays site 0 and speaks the wire protocol itself.  Each agent
(site 1, kind ``counter``) is started with ``--connect`` pointed at the
benchmark's listener, so the agent dials, sends Hello and a resync request,
and the benchmark answers with a Full.  The agent rebroadcasts every op it
integrates to its only peer, the benchmark; that echo is the op's
acknowledgement.

A run is a ladder of open-loop steps, each on a fresh agent and each sending
``STEP_OPS`` Increments of one op on a fixed schedule, at the nominal rate
``LADDER[0]`` and then at each doubled rate; then a catch-up, where a fresh
agent must pull ``CATCHUP_OPS`` ops in one Full and echo them all; then
floods, where a fresh agent is sent a step's ops all at once, cycling over
``FLOODS`` inputs until the time is up.  Latency is reported at the nominal
rate only, throughput from the floods.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import resource
import sys
from time import perf_counter

from ccr.core import OpId
from ccr.protocol import Full, Hello, Increment, ResyncReq
from ccr.replicas import replica_type
from ccr.wire import decode_message, encode_message

from common import Outcome, median, percentile
from speed import BARE, Speed, at_reference_start
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
BOOT = os.path.join(HERE, "agent_boot.py")
OUT_DIR = os.path.join(HERE, "out")

KIND = "counter"
LADDER = (1000, 2000, 4000, 8000)  # ops/s; the first is the nominal rate
STEP_OPS = 1500
FLOODS = 4  # distinct flood inputs of a run
LATENCY_LIMIT_MS = 25.0  # a step passes when its p99 is within this ...
ACK_BOUND_S = 1.0  # ... and every op is acknowledged this soon after it was due
# Kept above the agent's 64 KiB line limit on purpose: a Full of this many
# counter ops is about 135 KB, which the agent cannot read today.
CATCHUP_OPS = 3000
CATCHUP_BOUND_S = 2.0  # a catch-up not done this long after spawn failed
FLOOD_BOUND_S = 10.0  # a flooded op not acknowledged this soon failed
SPAWN_TIMEOUT_S = 30.0
# The benchmark's own reader must take the catch-up echo in one line.
READ_LIMIT = 1 << 26


class Peer:
    """The benchmark's end of one agent connection."""

    def __init__(self, rt, full_ops=()):
        self.rt = rt
        self.full_ops = tuple(full_ops)
        self.sent = set(op.uid for op in self.full_ops)
        self.ready = asyncio.Event()
        self.ready_at = 0.0
        self.acks = {}  # uid -> time of first echo
        self.want = 0
        self.all_acked = asyncio.Event()
        self.writer = None
        self.frames = 0  # both directions, after the handshake
        self.bytes = 0
        self.stray = False  # an echoed uid that was never sent

    async def serve(self, reader, writer):
        self.writer = writer
        hello = decode_message(self.rt, await reader.readline())
        if not isinstance(hello, Hello) or hello.kind != self.rt.name:
            raise RuntimeError(f"agent did not greet as a {self.rt.name} site: {hello!r}")
        writer.write(encode_message(self.rt, Hello(site=0, kind=self.rt.name, known_len=0)))
        req = decode_message(self.rt, await reader.readline())
        if not isinstance(req, ResyncReq):
            raise RuntimeError(f"agent did not ask for a resync: {req!r}")
        writer.write(encode_message(self.rt, Full(sender=0, ops=self.full_ops)))
        await writer.drain()
        self.ready_at = perf_counter()
        self.ready.set()
        while True:
            line = await reader.readline()
            if not line:
                return
            t = perf_counter()
            self.frames += 1
            self.bytes += len(line)
            for op in getattr(decode_message(self.rt, line), "ops", ()):
                self.ack(op.uid, t)

    def ack(self, uid, t):
        if uid not in self.sent:
            self.stray = True
        elif uid not in self.acks:
            self.acks[uid] = t
            if len(self.acks) >= self.want:
                self.all_acked.set()

    def send(self, ops, frame):
        self.sent.update(op.uid for op in ops)
        self.writer.write(frame)
        self.frames += 1
        self.bytes += len(frame)


class Agent:
    """One spawned agent process and the listener it dials."""

    def __init__(self, peer, trace_prefix):
        self.peer = peer
        self.trace_prefix = trace_prefix
        self.server = None
        self.proc = None
        self.spawned = 0.0
        self.setup_s = None  # spawn -> handshake done
        self.bare_s = 0.0  # a bare interpreter's start, timed before the spawn
        self.speed_at = 0  # index of the speed sample taken before the spawn
        self.slowdown = 1.0  # of the machine while the agent lived
        self._cpu0 = 0.0
        self.cpu_s = 0.0
        self.shown = None  # the agent's `show` output at the end

    async def start(self):
        self.server = await asyncio.start_server(self._serve, "127.0.0.1", 0, limit=READ_LIMIT)
        port = self.server.sockets[0].getsockname()[1]
        argv = [sys.executable, BOOT]
        if self.trace_prefix is not None:
            argv += ["--trace-out", self.trace_prefix]
        argv += ["--", "--site", "1", "--replica", KIND, "--listen", "127.0.0.1:0",
                 "--connect", f"127.0.0.1:{port}"]
        self._cpu0 = _children_cpu()
        self.spawned = perf_counter()
        self.proc = await asyncio.create_subprocess_exec(
            *argv, stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.PIPE)

    async def _serve(self, reader, writer):
        try:
            await self.peer.serve(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()

    async def stop(self):
        """Ask for the final state, close stdin (the agent quits on EOF),
        and wait for the process to end."""
        try:
            out, err = await asyncio.wait_for(self.proc.communicate(b"show\n"), SPAWN_TIMEOUT_S)
        except asyncio.TimeoutError:
            self.proc.kill()
            out, err = await self.proc.communicate()
        self.cpu_s = _children_cpu() - self._cpu0
        lines = [ln for ln in out.decode(errors="replace").splitlines() if ln.strip()]
        self.shown = lines[-1] if lines else None
        self.server.close()
        await self.server.wait_closed()
        if self.proc.returncode != 0:
            raise RuntimeError(f"agent exited {self.proc.returncode}: {err.decode()[-2000:]}")
        if self.trace_prefix is None:
            return None
        with open(self.trace_prefix + ".json") as f:
            return json.load(f)


def _children_cpu():
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


class Loopback:
    def __init__(self, seed, trace_prefix=None):
        self.rt = replica_type(KIND)
        self.rng = random.Random(seed)
        self.trace_prefix = trace_prefix
        self.spawns = 0
        self.speed = Speed()
        # spawn -> handshake done, seconds at the reference speed and as timed
        self.setup, self.setup_wall = [], []
        self.late_max = 0.0
        self.cpu_s = 0.0
        self.ops_to_agents = 0
        self.totals = tracing.empty_totals()
        self.correct = True
        self.steps = []
        self.live = []  # agents started and not yet stopped

    def _ops(self, n, sites=(0,)):
        """``n`` valid counter ops, uids round-robin over ``sites``."""
        ops = []
        for i in range(n):
            verb = self.rng.choice(("incr", "decr"))
            uid = OpId(sites[i % len(sites)], i // len(sites) + 1)
            ops.append(self.rt.gen_effective(0, (verb, self.rng.randint(1, 9)), uid))
        return ops

    async def _spawn(self, peer):
        prefix = None
        if self.trace_prefix is not None:
            prefix = f"{self.trace_prefix}-{self.spawns}"
        self.spawns += 1
        agent = Agent(peer, prefix)
        self.live.append(agent)
        t = perf_counter()
        bare = await asyncio.create_subprocess_exec(*BARE)
        await bare.wait()
        agent.bare_s = perf_counter() - t
        agent.speed_at = self.speed.sample()
        await agent.start()
        return agent

    async def _finish(self, agent, ops_sent):
        self.live.remove(agent)
        totals = await agent.stop()
        agent.slowdown = self.speed.slowdown(agent.speed_at, self.speed.sample())
        if agent.setup_s is not None:
            self.setup_wall.append(agent.setup_s)
            self.setup.append(at_reference_start(agent.setup_s, agent.bare_s))
        self.cpu_s += agent.cpu_s
        self.ops_to_agents += ops_sent
        if totals is not None:
            tracing.merge(self.totals, totals)
        if agent.peer.stray:
            self.correct = False

    async def _connect(self, peer):
        agent = await self._spawn(peer)
        await asyncio.wait_for(peer.ready.wait(), SPAWN_TIMEOUT_S)
        agent.setup_s = peer.ready_at - agent.spawned
        return agent

    def _frames(self, ops):
        return [encode_message(self.rt, Increment(kind=KIND, sender=0, prefix_len=i, ops=(op,)))
                for i, op in enumerate(ops)]

    async def step(self, rate):
        """One open-loop ladder step on a fresh agent."""
        ops = self._ops(STEP_OPS)
        frames = self._frames(ops)
        peer = Peer(self.rt)
        agent = await self._connect(peer)
        peer.want = len(ops)
        gc.collect()
        gc.disable()
        try:
            due, sent = await self._send(peer, ops, frames, rate)
            if sent < len(ops):
                peer.want = sent
                if len(peer.acks) >= sent:
                    peer.all_acked.set()
            if sent:
                await _wait(peer.all_acked, due[sent - 1] + ACK_BOUND_S)
        finally:
            gc.enable()
        frames_n, bytes_n = peer.frames, peer.bytes
        await self._finish(agent, sent)
        lat = []
        for i, op in enumerate(ops[:sent]):
            t = peer.acks.get(op.uid)
            if t is not None and t - due[i] <= ACK_BOUND_S:
                lat.append(1000.0 * (t - due[i]))
        failed = len(ops) - len(lat)
        if failed == 0 and agent.shown != _total(ops):
            self.correct = False
        r = dict(rate=rate, lat=lat, failed=failed, frames=frames_n, bytes=bytes_n,
                 passed=failed == 0 and percentile(lat, 99) <= LATENCY_LIMIT_MS)
        self.steps.append(r)
        return r

    async def _send(self, peer, ops, frames, rate):
        """Write each frame at its due time; stop early once an op is past
        its acknowledgement bound (the step has a backlog)."""
        start = perf_counter() + 0.002
        due = [start + i / rate for i in range(len(ops))]
        sent = oldest = 0
        while sent < len(ops):
            now = perf_counter()
            while sent < len(ops) and due[sent] <= now:
                peer.send((ops[sent],), frames[sent])
                self.late_max = max(self.late_max, now - due[sent])
                sent += 1
            while oldest < sent and ops[oldest].uid in peer.acks:
                oldest += 1
            if oldest < sent and now - due[oldest] > ACK_BOUND_S:
                break
            await peer.writer.drain()
            if sent < len(ops):
                wait = due[sent] - perf_counter()
                await asyncio.sleep(wait if wait > 0 else 0)
        return due, sent

    async def flood(self, ops, frames):
        """``ops`` written at once to a fresh agent; returns acknowledged ops
        per second at the reference speed and as timed, and failed ops."""
        peer = Peer(self.rt)
        agent = await self._connect(peer)
        peer.want = len(ops)
        gc.collect()
        gc.disable()
        try:
            t0 = perf_counter()
            for op, frame in zip(ops, frames):
                peer.send((op,), frame)
            await peer.writer.drain()
            await _wait(peer.all_acked, t0 + FLOOD_BOUND_S)
        finally:
            gc.enable()
        await self._finish(agent, len(ops))
        acked = len(peer.acks)
        if acked == len(ops) and agent.shown != _total(ops):
            self.correct = False
        rate = acked / (max(peer.acks.values()) - t0) if acked else 0.0
        return rate * agent.slowdown, rate, len(ops) - acked

    async def catchup(self):
        """A fresh agent pulls the survivor's history in one Full; returns
        (seconds until its echo covered the history or the bound passed,
        completed)."""
        history = self._ops(CATCHUP_OPS, sites=(0, 1))
        peer = Peer(self.rt, history)
        peer.want = len(history)
        agent = await self._spawn(peer)
        await _wait(peer.all_acked, agent.spawned + CATCHUP_BOUND_S)
        elapsed = perf_counter() - agent.spawned
        done = len(peer.acks) == len(history)
        if peer.ready.is_set():
            agent.setup_s = peer.ready_at - agent.spawned
        await self._finish(agent, len(history))
        if done and agent.shown != _total(history):
            self.correct = False
        return elapsed, done


async def _wait(event, deadline):
    try:
        await asyncio.wait_for(event.wait(), max(0.0, deadline - perf_counter()))
    except asyncio.TimeoutError:
        pass


def _total(ops):
    """The counter value ``ops`` reach from 0, as the agent's `show` prints it."""
    return str(sum(op.body[1] if op.body[0] == "Incr" else -op.body[1] for op in ops))


async def _run(lb, out, seconds, units):
    """The ladder, then the catch-up, then floods until the time is up;
    ``units`` counts the floods."""
    try:
        return await _ladder_catchup_floods(lb, out, seconds, units)
    finally:
        for agent in lb.live:  # only after an error: stop what is left
            if agent.proc is not None and agent.proc.returncode is None:
                agent.proc.kill()
                await agent.proc.wait()


async def _ladder_catchup_floods(lb, out, seconds, units):
    start = perf_counter()
    nominal = None
    floods, floods_wall = [], []
    top = 0
    climbing = True
    for rate in LADDER:
        r = await lb.step(rate)
        out.attempted += STEP_OPS
        out.failed += r["failed"]
        nominal = nominal or r
        climbing = climbing and r["passed"]
        if climbing:
            top = rate
    catchup_s, done = await lb.catchup()
    out.attempted += CATCHUP_OPS
    if not done:
        out.failed += CATCHUP_OPS
    inputs = [lb._ops(STEP_OPS) for _ in range(FLOODS)]
    inputs = [(ops, lb._frames(ops)) for ops in inputs]
    flood_failed = [None] * FLOODS  # per input: most ops any of its floods lost
    while not out.finished(start, seconds, units, FLOODS):
        i = out.units % FLOODS
        rate, wall, failed = await lb.flood(*inputs[i])
        floods.append(rate)
        floods_wall.append(wall)
        flood_failed[i] = max(flood_failed[i] or 0, failed)
        out.units += 1
    out.attempted += STEP_OPS * FLOODS
    out.failed += sum(flood_failed)
    return nominal, (floods, floods_wall), top, catchup_s


def agent_loopback(seed, seconds=None, units=None, tracer=None):
    """``tracer`` only switches tracing on: the spans live in the agents."""
    prefix = None
    if tracer is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        prefix = os.path.join(OUT_DIR, f"agent-loopback-{seed}-agent")
    lb = Loopback(seed, prefix)
    out = Outcome()
    nominal, (floods, floods_wall), top, catchup_s = asyncio.run(_run(lb, out, seconds, units))
    out.correct = lb.correct
    lat = nominal["lat"]
    acked = len(lat)
    out.e2e["setup_s"] = (median(lb.setup), "s")
    out.extra["setup_s.wall"] = (median(lb.setup_wall), "s")
    # The median flood: the machine's speed drifts by a fifth within seconds.
    out.e2e["ops_per_s"] = (median(floods), "1/s")
    out.extra["ops_per_s.wall"] = (median(floods_wall), "1/s")
    out.e2e["msgs_per_op"] = (nominal["frames"] / acked, "count")
    out.extra["op_latency_ms.p50"] = (percentile(lat, 50), "ms")
    out.extra["op_latency_ms.p99"] = (percentile(lat, 99), "ms")
    out.extra["bytes_per_op"] = (nominal["bytes"] / acked, "bytes")
    out.extra["max_rate_ops_s"] = (top, "1/s")
    out.extra["catchup_s"] = (catchup_s, "s")
    out.samples["op_latency_ms"] = len(lat)
    out.samples["setup_s"] = len(lb.setup)
    out.samples["ops_per_s"] = len(floods)
    out.samples["steps"] = [
        {"rate": r["rate"], "p50_ms": round(percentile(r["lat"], 50), 3),
         "p99_ms": round(percentile(r["lat"], 99), 3), "failed": r["failed"]}
        for r in lb.steps]
    ops = max(lb.ops_to_agents, 1)
    out.work_s = lb.cpu_s / ops  # agent CPU per op, for the trace overhead
    out.layer["agent.cpu_ms"] = (1000.0 * lb.cpu_s, "ms")
    out.layer["agent.cpu_us_per_op"] = (1e6 * lb.cpu_s / ops, "us")
    out.layer["bench.late_ms.max"] = (1000.0 * lb.late_max, "ms")
    out.trace = lb.totals
    return out

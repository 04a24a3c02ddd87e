"""Per-layer tracing by wrapping the public functions of each ccr module.

Nothing in ``src/`` knows about this file.  ``Tracer.install()`` replaces a
function in every ``ccr`` module namespace that holds it (so
``ccr.protocol.transform_patch`` and ``ccr.replicas.composite.transform_patch``
are both caught, as is ``ccr.agent.encode_message``), and replaces methods on
the classes the engine calls through (``SiteState``, every ``ReplicaType``
subclass, and asyncio's ``Handle._run`` inside the agent process).

Each call becomes a span ``[name, start, end, parent, request]`` kept in
memory.  Spans are folded into per-name totals whenever the outermost span
closes and the buffer is large, so a long traced run stays small; the first
``SPAN_KEEP`` spans of a process are also written out verbatim at exit.  Self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

SPAN_KEEP = 10_000
FOLD_AT = 50_000
# Per-op cost is sampled in windows of this many history ops: the window
# starting at 1,000 ops, and the last full window of the longest history.
OP_WINDOW = 250


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, request id]
        self.stack = []
        self.req = None
        self.kept = []
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.maxes = defaultdict(int)
        self.sweep_depth = 0
        # history-length window -> [protocol seconds, ops added]
        self.op_windows = defaultdict(lambda: [0.0, 0])
        self.max_history = 0
        self._undo = []

    # -- recording ------------------------------------------------------------

    def span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``before(args)`` runs at entry and returns a context handed to
        ``after(ctx, args, result, seconds)`` at exit; both count work at the
        boundary.
        """
        spans, stack, clock, calls = self.spans, self.stack, time.perf_counter, self.calls

        def wrapper(*args, **kwargs):
            ctx = before(args) if before is not None else None
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.req]
            spans.append(rec)
            stack.append(len(spans) - 1)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[2] = clock()
                stack.pop()
                calls[name] += 1
                # Also on an exception (a faulting trial), so depth counts hold;
                # ``result`` is None then.
                if after is not None:
                    after(ctx, args, result, rec[2] - rec[1])
                if not stack and len(spans) >= FOLD_AT:
                    self.fold()

        wrapper.__wrapped__ = fn
        return wrapper

    def fold(self):
        """Turn the closed spans in the buffer into per-name self time."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        for i, rec in enumerate(spans):
            self.self_s[rec[0]] += rec[2] - rec[1] - child[i]
        room = SPAN_KEEP - len(self.kept)
        if room > 0:
            base = len(self.kept)
            for rec in spans[:room]:
                parent = rec[3] + base if rec[3] >= 0 else -1
                self.kept.append([rec[0], rec[1], rec[2], parent, _req_text(rec[4])])
        spans.clear()

    # -- installation ---------------------------------------------------------

    def install(self, agent=False):
        """Wrap every traced layer; ``agent=True`` also times the event loop."""
        import sys

        import ccr.core as core
        import ccr.wire as wire
        from ccr.protocol import Full, Increment, ResyncReq, SiteState
        from ccr.replicas.base import ReplicaType
        import ccr.agent  # noqa: F401  (so its imported names get rebound)
        import ccr.sim  # noqa: F401

        count, maxes = self.counts, self.maxes

        def after_compose(_, args, __, ___):
            count["core.compose.ops_scanned"] += len(args[0]) + len(args[1])

        def before_transform(args):
            self.sweep_depth += 1

        def after_transform(_, args, __, ___):
            self.sweep_depth -= 1
            count["core.transform_patch.pairs"] += len(args[2]) * len(args[3])

        def after_apply_patch(_, args, __, ___):
            count["core.apply_patch.ops"] += len(args[2])

        def after_encode(_, args, frame, __):
            if frame is None:
                return
            count["wire.encode.bytes"] += len(frame)
            maxes["wire.frame_bytes.max"] = max(maxes["wire.frame_bytes.max"], len(frame))

        def before_decode(args):
            self.req = self.calls["wire.decode"] + 1  # frame index

        def after_decode(_, args, __, ___):
            n = len(args[1])
            count["wire.decode.bytes"] += n
            maxes["wire.frame_bytes.max"] = max(maxes["wire.frame_bytes.max"], n)

        def wrap_function(fn, name, before=None, after=None):
            wrapped = self.span(name, fn, before, after)
            for mod in list(sys.modules.values()):
                if mod is None or not getattr(mod, "__name__", "").startswith("ccr"):
                    continue
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._undo.append((mod, attr, val))
                        setattr(mod, attr, wrapped)

        wrap_function(core.compose, "core.compose", after=after_compose)
        wrap_function(core.transform_patch, "core.transform_patch",
                      before_transform, after_transform)
        wrap_function(core.apply_patch, "core.apply_patch", after=after_apply_patch)
        wrap_function(wire.encode_message, "wire.encode", after=after_encode)
        wrap_function(wire.decode_message, "wire.decode", before_decode, after_decode)

        def in_sweep(args):
            if self.sweep_depth:
                count["replicas.apply.in_sweep_calls"] += 1

        for cls in _subclasses(ReplicaType):
            for meth, name, before in (("apply", "replicas.apply", in_sweep),
                                       ("transform_prim", "replicas.transform_prim", None),
                                       ("gen_effective", "replicas.gen_effective", None)):
                if meth in vars(cls):
                    self._wrap_attr(cls, meth, name, before)

        def before_local(args):
            site = args[0]
            if not self.stack:
                self.req = (site.site, site.next_seq)
            return len(site.history)

        def before_handle(args):
            site, msg = args[0], args[2]
            if not self.stack and getattr(msg, "ops", None):
                self.req = (msg.ops[0].uid.site, msg.ops[0].uid.seq)
            return len(site.history)

        def after_protocol(h0, args, out, dt):
            site = args[0]
            added = len(site.history) - h0
            window = self.op_windows[h0 // OP_WINDOW]
            window[0] += dt
            window[1] += added
            self.max_history = max(self.max_history, len(site.history))
            return added

        def after_handle(h0, args, out, dt):
            added = after_protocol(h0, args, out, dt)
            msg = args[2]
            if isinstance(msg, (Increment, Full)):
                count["protocol.ops_received"] += len(msg.ops)
                count["protocol.ops_committed"] += added
                if isinstance(msg, Increment) and added == 0:
                    count["protocol.identity_increments"] += 1
                if isinstance(msg, Full):
                    count["protocol.fulls"] += 1
                    count["protocol.full_ops"] += len(msg.ops)
            for _, reply in out or ():
                if isinstance(reply, ResyncReq):
                    count["protocol.resync_reqs"] += 1

        self._wrap_attr(SiteState, "local_update", "protocol.local_update",
                        before_local, after_protocol)
        self._wrap_attr(SiteState, "handle_message", "protocol.handle_message",
                        before_handle, after_handle)

        if agent:
            import asyncio.events

            self._wrap_attr(asyncio.events.Handle, "_run", "agent.loop")

    def _wrap_attr(self, owner, attr, name, before=None, after=None):
        fn = vars(owner)[attr]
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, self.span(name, fn, before, after))

    def uninstall(self):
        for owner, attr, val in reversed(self._undo):
            setattr(owner, attr, val)
        self._undo.clear()

    # -- results ----------------------------------------------------------------

    def totals(self):
        """Plain-data per-layer totals; summable across processes."""
        self.fold()
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "maxes": dict(self.maxes),
            "op_windows": {str(k): v for k, v in self.op_windows.items()},
            "max_history": self.max_history,
        }

    def write_spans(self, path):
        self.fold()
        with open(path, "w") as f:
            for rec in self.kept:
                f.write(json.dumps(rec) + "\n")


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _req_text(req):
    return None if req is None else str(req)


def merge(into, other):
    """Add one process's ``totals()`` into another's."""
    for key in ("self_s", "calls", "counts"):
        for k, v in other[key].items():
            into[key][k] = into[key].get(k, 0) + v
    for k, v in other["maxes"].items():
        into["maxes"][k] = max(into["maxes"].get(k, 0), v)
    for k, (t, n) in other["op_windows"].items():
        w = into["op_windows"].setdefault(k, [0.0, 0])
        w[0] += t
        w[1] += n
    into["max_history"] = max(into["max_history"], other["max_history"])
    return into


def empty_totals():
    return {"self_s": {}, "calls": {}, "counts": {}, "maxes": {},
            "op_windows": {}, "max_history": 0}


def layer_metrics(t):
    """Per-layer metrics (name -> (value, unit)) from merged totals."""
    ms = lambda name: 1000.0 * t["self_s"].get(name, 0.0)  # noqa: E731
    calls = lambda name: t["calls"].get(name, 0)  # noqa: E731
    cnt = lambda name: t["counts"].get(name, 0)  # noqa: E731
    m = {
        "core.compose.calls": (calls("core.compose"), "count"),
        "core.compose.self_ms": (ms("core.compose"), "ms"),
        "core.compose.ops_scanned": (cnt("core.compose.ops_scanned"), "count"),
        "protocol.local_update.self_ms": (ms("protocol.local_update"), "ms"),
        "protocol.handle_message.self_ms": (ms("protocol.handle_message"), "ms"),
        "core.transform_patch.calls": (calls("core.transform_patch"), "count"),
        "core.transform_patch.self_ms": (ms("core.transform_patch"), "ms"),
        "core.transform_patch.pairs": (cnt("core.transform_patch.pairs"), "count"),
        "replicas.transform_prim.calls": (calls("replicas.transform_prim"), "count"),
        "replicas.transform_prim.self_ms": (ms("replicas.transform_prim"), "ms"),
        "replicas.apply.calls": (calls("replicas.apply"), "count"),
        "replicas.apply.self_ms": (ms("replicas.apply"), "ms"),
        "replicas.apply.in_sweep_calls": (cnt("replicas.apply.in_sweep_calls"), "count"),
        "core.apply_patch.ops": (cnt("core.apply_patch.ops"), "count"),
        "core.apply_patch.self_ms": (ms("core.apply_patch"), "ms"),
        "replicas.gen_effective.self_ms": (ms("replicas.gen_effective"), "ms"),
        "protocol.ops_received": (cnt("protocol.ops_received"), "count"),
        "protocol.ops_committed": (cnt("protocol.ops_committed"), "count"),
        "protocol.identity_increments": (cnt("protocol.identity_increments"), "count"),
        "protocol.resync_reqs": (cnt("protocol.resync_reqs"), "count"),
        "protocol.fulls": (cnt("protocol.fulls"), "count"),
        "protocol.full_ops": (cnt("protocol.full_ops"), "count"),
        "wire.encode.calls": (calls("wire.encode"), "count"),
        "wire.encode.self_ms": (ms("wire.encode"), "ms"),
        "wire.encode.bytes": (cnt("wire.encode.bytes"), "bytes"),
        "wire.decode.calls": (calls("wire.decode"), "count"),
        "wire.decode.self_ms": (ms("wire.decode"), "ms"),
        "wire.decode.bytes": (cnt("wire.decode.bytes"), "bytes"),
        "wire.frame_bytes.max": (t["maxes"].get("wire.frame_bytes.max", 0), "bytes"),
        "agent.self_ms": (ms("agent.loop"), "ms"),
        # Only the agent process decodes and encodes frames.
        "agent.frames_in": (calls("wire.decode"), "count"),
        "agent.frames_out": (calls("wire.encode"), "count"),
        "sim.run_trial.self_ms": (ms("sim.run_trial"), "ms"),
    }
    received = cnt("protocol.ops_received")
    m["protocol.useful_ratio"] = (cnt("protocol.ops_committed") / received if received else 0.0, "ratio")
    h1k = _window_us(t, 1000)
    top = (t["max_history"] // OP_WINDOW - 1) * OP_WINDOW
    hmax = _window_us(t, top) if top > 1000 else 0.0
    m["protocol.op_us.h1k"] = (h1k, "us")
    m["protocol.op_us.hmax"] = (hmax, "us")
    m["protocol.op_us.growth"] = (hmax / h1k if h1k and hmax else 0.0, "ratio")
    return m


def _window_us(t, start):
    """Protocol time per history op added while the history length was in
    [start, start + OP_WINDOW); 0 when no history got that long."""
    sec, ops = t["op_windows"].get(str(start // OP_WINDOW), (0.0, 0))
    return 1e6 * sec / ops if ops else 0.0

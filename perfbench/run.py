"""The ccr benchmark: one command, three workloads, end-to-end or traced.

    python3 perfbench/run.py --workload long-history --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``.  With ``--trace 0`` the end-to-end metrics are measured untraced;
with ``--trace 1`` the workload runs untraced for a quarter of the time and
then again, on the same inputs, with the per-layer wrappers of ``tracing.py``
installed.  Every metric is printed with its unit; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
See ``NOTES.md`` for what each workload is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from time import perf_counter

from common import median
from speed import BARE, at_reference_start

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("long-history", "faulty-ring", "agent-loopback")

# Gated by BENCHMARK.json on every workload.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "msgs_per_op": "count",
}
PER_LAYER = {
    "core.compose.calls": "count",
    "core.compose.self_ms": "ms",
    "core.compose.ops_scanned": "count",
    "protocol.local_update.self_ms": "ms",
    "protocol.handle_message.self_ms": "ms",
    "protocol.op_us.h1k": "us",
    "protocol.op_us.hmax": "us",
    "protocol.op_us.growth": "ratio",
    "core.transform_patch.calls": "count",
    "core.transform_patch.self_ms": "ms",
    "core.transform_patch.pairs": "count",
    "replicas.transform_prim.calls": "count",
    "replicas.transform_prim.self_ms": "ms",
    "replicas.apply.calls": "count",
    "replicas.apply.self_ms": "ms",
    "replicas.apply.in_sweep_calls": "count",
    "core.apply_patch.ops": "count",
    "core.apply_patch.self_ms": "ms",
    "replicas.gen_effective.self_ms": "ms",
    "protocol.ops_received": "count",
    "protocol.ops_committed": "count",
    "protocol.useful_ratio": "ratio",
    "protocol.identity_increments": "count",
    "protocol.resync_reqs": "count",
    "protocol.fulls": "count",
    "protocol.full_ops": "count",
    "wire.encode.calls": "count",
    "wire.encode.self_ms": "ms",
    "wire.encode.bytes": "bytes",
    "wire.decode.calls": "count",
    "wire.decode.self_ms": "ms",
    "wire.decode.bytes": "bytes",
    "wire.frame_bytes.max": "bytes",
    "agent.cpu_ms": "ms",
    "agent.cpu_us_per_op": "us",
    "agent.self_ms": "ms",
    "agent.frames_in": "count",
    "agent.frames_out": "count",
    "sim.run_trial.self_ms": "ms",
    "sim.events": "count",
    "sim.messages": "count",
    "sim.max_inflight": "count",
    "sim.outcome.ok": "count",
    "sim.outcome.divergence": "count",
    "sim.outcome.fault": "count",
    "sim.outcome.nonterminating": "count",
    "bench.late_ms.max": "ms",
    "bench.trace_overhead": "ratio",
}

# Set-up of the in-process workloads, timed in a fresh interpreter each time
# (imports, then the sites or simulator the workload starts from).
SETUP_CODE = {
    "long-history": "from ccr.protocol import SiteState\n"
                    "from ccr.replicas import replica_type\n"
                    "rt = replica_type('text')\n"
                    "a, b = SiteState(0, rt), SiteState(1, rt)\n"
                    "a.connect_peer(1); b.connect_peer(0)\n",
    "faulty-ring": "from ccr.sim import SimConfig, run_trial\n"
                   "from ccr.replicas import replica_type\n"
                   "[replica_type(k) for k in ('counter', 'addmult', 'lww', 'eset', "
                   "'queue', 'text', 'socialmedia')]\n",
}
SETUP_REPEATS = 21
TRACE_BASELINE_SHARE = 0.25


def _import_program():
    """Put this checkout's ``src`` first on the path and check that ``ccr``
    really comes from it; exit 2 without a result otherwise."""
    if not os.path.isfile(os.path.join(SRC, "ccr", "__init__.py")):
        print(f"no ccr source tree at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import ccr

    if os.path.dirname(os.path.dirname(os.path.abspath(ccr.__file__))) != SRC:
        print(f"ccr imported from {ccr.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def _setup_seconds(workload):
    """Set-up times at the reference start speed and as timed."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times, wall = [], []
    for _ in range(SETUP_REPEATS):
        t = perf_counter()
        subprocess.run(BARE, env=env, check=True)
        bare = perf_counter() - t
        t = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE[workload]], env=env, check=True)
        wall.append(perf_counter() - t)
        times.append(at_reference_start(wall[-1], bare))
    return times, wall


def _workload_fn(name):
    if name == "agent-loopback":
        from loopback import agent_loopback
        return agent_loopback
    from inproc import faulty_ring, long_history
    return {"long-history": long_history, "faulty-ring": faulty_ring}[name]


def _git_commit():
    # The ceiling keeps git from reading a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def metadata(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "host": platform.node(),
        "git_commit": _git_commit(),
    }


def run_untraced(args, fn):
    out = fn(args.seed, seconds=args.seconds)
    if args.workload in SETUP_CODE:
        setups, wall = _setup_seconds(args.workload)
        out.e2e["setup_s"] = (median(setups), "s")
        out.extra["setup_s.wall"] = (median(wall), "s")
        out.samples["setup_s"] = len(setups)
    out.extra["failed_share"] = (out.failed / out.attempted, "ratio")
    return out


def run_traced(args, fn):
    """Untraced baseline, then the same units traced; returns the traced
    outcome with its per-layer metrics."""
    import tracing

    base = fn(args.seed, seconds=args.seconds * TRACE_BASELINE_SHARE)
    tracer = tracing.Tracer()
    if args.workload != "agent-loopback":
        tracer.install()
    try:
        out = fn(args.seed, units=base.units, tracer=tracer)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    if out.trace is not None:
        tracing.merge(totals, out.trace)
    else:
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write_spans(os.path.join(OUT_DIR, f"{args.workload}-{args.seed}.spans.jsonl"))
    layer = tracing.layer_metrics(totals)
    layer.update(out.layer)
    layer["bench.trace_overhead"] = (out.work_s / base.work_s, "ratio")
    out.layer = layer
    # Both runs cover the same inputs, so they count the same ops.
    out.failed = max(out.failed, base.failed)
    out.correct = out.correct and base.correct
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_program()
    fn = _workload_fn(args.workload)

    if args.trace:
        out = run_traced(args, fn)
        names = PER_LAYER
        values = out.layer
    else:
        out = run_untraced(args, fn)
        names = END_TO_END
        values = out.e2e
    metrics = {}
    for name, unit in names.items():
        value, _ = values.get(name, (0, unit))
        metrics[name] = {"value": value, "unit": unit}

    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    table = {name: (m["value"], m["unit"]) for name, m in metrics.items()}
    if not args.trace:
        table.update(out.extra)
    for name, (value, unit) in table.items():
        n = out.samples.get(name.split(".p")[0])
        note = f"  (n={n})" if isinstance(n, int) else ""
        print(f"{name:34s} {value:>16.6g} {unit}{note}")
    print(json.dumps({"meta": metadata(args), "samples": out.samples,
                      "extra": {k: {"value": v, "unit": u} for k, (v, u) in out.extra.items()}}))
    print(json.dumps({"correct": out.correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

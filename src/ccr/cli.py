"""Console entry points: ccr-agent, ccr-sim, ccr-props.

Each entry point imports the modules it runs inside its own function, so a
process pays the start-up of only what it uses: ``ccr-agent`` never loads
the simulator or the property checker, and ``ccr-sim`` and ``ccr-props``
never load ``asyncio``.  The same holds for kinds: a process loads a kind's
module only when its ``--replica`` string names it (see ``ccr.replicas``).
"""

from __future__ import annotations

import argparse
import json
import time
from typing import List, Optional


def agent_main(argv: Optional[List[str]] = None) -> int:
    from .agent import AgentConfig, run_agent
    from .repl import parse_addr

    ap = argparse.ArgumentParser(prog="ccr-agent",
                                 description="Run one replication site with a REPL.")
    ap.add_argument("--site", type=int, required=True, help="numeric site id, unique per deployment")
    ap.add_argument("--replica", required=True, metavar="KIND",
                    help="replica kind (counter, addmult, lww, eset, queue, text, "
                         "socialmedia, or a structural tuple<...>/map<...> form)")
    ap.add_argument("--listen", required=True, metavar="ADDR", help="host:port to listen on")
    ap.add_argument("--connect", action="append", default=[], metavar="ADDR",
                    help="peer to dial at startup (repeatable)")
    ap.add_argument("--script", default=None, metavar="FILE",
                    help="run commands from FILE instead of stdin")
    args = _parse(ap, argv)
    try:
        listen = parse_addr(args.listen)
        connect = tuple(parse_addr(a) for a in args.connect)
    except ValueError as e:
        ap.error(f"bad address: {e}")
    cfg = AgentConfig(site=args.site, kind=args.replica, listen=listen,
                      connect=connect, script=args.script)
    return run_agent(cfg)


def _parse(ap: argparse.ArgumentParser, argv: Optional[List[str]], **least: int):
    """Parse ``argv``: a count below its least or an unknown kind is a usage error."""
    from .core import IntentError
    from .replicas import replica_type
    args = ap.parse_args(argv)
    for flag, low in least.items():
        if getattr(args, flag) < low:
            ap.error(f"--{flag} must be at least {low}, got {getattr(args, flag)}")
    try:
        replica_type(args.replica)
    except IntentError as e:
        ap.error(str(e))
    return args


def sim_main(argv: Optional[List[str]] = None) -> int:
    from .sim import SimConfig, run_trial

    ap = argparse.ArgumentParser(prog="ccr-sim",
                                 description="Deterministic multi-site convergence trials.")
    ap.add_argument("--replica", required=True, metavar="KIND")
    ap.add_argument("--sites", type=int, default=3)
    ap.add_argument("--ops", type=int, default=20, help="local updates per site")
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0, help="first seed; trial i runs seed+i")
    ap.add_argument("--topology", choices=("full", "ring", "chain"), default="full")
    ap.add_argument("--reorder", action="store_true", help="allow out-of-order delivery")
    ap.add_argument("--duplicate", action="store_true", help="redeliver some messages")
    args = _parse(ap, argv, sites=1, ops=0, trials=1)

    t0 = time.monotonic()
    failed: List[dict] = []
    reasons: dict = {}
    messages = ops = 0
    max_inflight = 0
    stats: dict = {}
    for i in range(args.trials):
        cfg = SimConfig(kind=args.replica, sites=args.sites, ops_per_site=args.ops,
                        seed=args.seed + i, topology=args.topology,
                        reorder=args.reorder, duplicate=args.duplicate)
        rep = run_trial(cfg)
        reasons[rep.reason] = reasons.get(rep.reason, 0) + 1
        messages += rep.messages_sent
        ops += len(rep.script)
        max_inflight = max(max_inflight, rep.max_inflight)
        for name, n in rep.stats.items():
            stats[name] = stats.get(name, 0) + n
        if not rep.converged:
            failed.append({"seed": rep.seed, "reason": rep.reason, "digests": rep.digests})
    elapsed = time.monotonic() - t0

    ok = args.trials - len(failed)
    flags = "".join(f" {name}" for name, on in
                    (("reorder", args.reorder), ("duplicate", args.duplicate)) if on)
    print(f"{args.replica}: {ok}/{args.trials} converged "
          f"(sites={args.sites} ops={args.ops} topology={args.topology}{flags}) "
          f"seeds {args.seed}..{args.seed + args.trials - 1} in {elapsed:.1f}s")
    for f in failed[:5]:
        print(f"  seed {f['seed']}: {f['reason']}")
    if len(failed) > 5:
        print(f"  ... and {len(failed) - 5} more")
    print(json.dumps({
        "kind": args.replica, "sites": args.sites, "ops_per_site": args.ops,
        "topology": args.topology, "reorder": args.reorder, "duplicate": args.duplicate,
        "seed": args.seed, "trials": args.trials, "converged": ok,
        "failed": failed, "reasons": reasons,
        "ops": ops, "messages_sent": messages, "max_inflight": max_inflight, "stats": stats,
        "elapsed_s": round(elapsed, 3),
    }))
    return 0 if not failed else 1


def props_main(argv: Optional[List[str]] = None) -> int:
    from .props import PROPERTIES, check_properties

    ap = argparse.ArgumentParser(prog="ccr-props",
                                 description="Randomized transform-property checks.")
    ap.add_argument("--replica", required=True, metavar="KIND")
    ap.add_argument("--trials", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--check", choices=(*PROPERTIES, "all"), default="all")
    args = _parse(ap, argv, trials=1)

    checks = PROPERTIES if args.check == "all" else (args.check,)
    report = check_properties(args.replica, args.trials, args.seed, checks=checks)
    print(report.summary())
    print(json.dumps(report.to_json()))
    return 0 if report.ok() else 1

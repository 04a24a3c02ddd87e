"""Randomized checks of the algebra the replication layer leans on.

Each trial draws a reachable base state and up to three concurrent patches
authored by distinct sites, then asserts the facts that make coordination-free
merging sound:

  tp1   the two pairwise merge routes land on the same state
  sym   swapping transform's arguments swaps its results
  idem  a patch transformed against itself cancels to identity
  comm  the composed representative is the same state either way around
  tp2   all six two-step orders of folding in a third patch agree

Failures are data, not exceptions: the report carries pass counts and the
first counterexample, shrunk by dropping trailing ops while it still fails.
"""

from __future__ import annotations

import random
from itertools import permutations
from typing import Any, Dict, NamedTuple, Optional, Tuple

from .core import CcrError, IntentError, OpId, Patch, apply_patch, confluent_rep, transform_patch
from .replicas import replica_type
from .replicas.base import DRAWS

PROPERTIES = ("tp1", "sym", "idem", "comm", "tp2")


class Counterexample(NamedTuple):
    prop: str
    trial: int
    kind: str
    base: Any
    patches: Tuple[Patch, ...]
    detail: str

    def replay(self) -> Optional[str]:
        """Re-run the failed check; non-None means it still fails."""
        return check_one(replica_type(self.kind), self.prop, self.base, *self.patches)

    def trace(self) -> str:
        rt = replica_type(self.kind)
        lines = [
            f"property {self.prop} failed at trial {self.trial} ({self.kind})",
            f"  base: {rt.digest(self.base)}",
        ]
        for name, patch in zip("pqr", self.patches):
            lines.append(f"  {name}: " + (", ".join(map(repr, patch)) or "(empty)"))
        lines.append(f"  {self.detail}")
        return "\n".join(lines)


class PropertyReport:
    """Pass and fail counts per property, filled in as the trials run."""

    __slots__ = ("kind", "trials", "seed", "checks", "passes", "failures", "first_failure")

    def __init__(self, kind: str, trials: int, seed: int, checks: Tuple[str, ...]):
        self.kind = kind
        self.trials = trials
        self.seed = seed
        self.checks = checks
        self.passes: Dict[str, int] = dict.fromkeys(checks, 0)
        self.failures: Dict[str, int] = dict.fromkeys(checks, 0)
        self.first_failure: Optional[Counterexample] = None

    def ok(self) -> bool:
        return not any(self.failures.values())

    def summary(self) -> str:
        lines = [f"{self.kind}: {self.trials} trials, seed {self.seed}"]
        for prop in self.checks:
            lines.append(f"  {prop:4s} {self.passes[prop]}/{self.trials} pass"
                         + (f", {self.failures[prop]} fail" if self.failures[prop] else ""))
        if self.first_failure is not None:
            lines.append(self.first_failure.trace())
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "kind": self.kind,
            "trials": self.trials,
            "seed": self.seed,
            "ok": self.ok(),
            "passes": dict(self.passes),
            "failures": dict(self.failures),
        }
        if self.first_failure is not None:
            out["first_failure"] = {
                "prop": self.first_failure.prop,
                "trial": self.first_failure.trial,
                "detail": self.first_failure.detail,
                "trace": self.first_failure.trace(),
            }
        return out


def check_one(rt, prop: str, base: Any, p: Patch, q: Patch, r: Patch = ()) -> Optional[str]:
    """Evaluate one property on concrete inputs.

    Returns None when it holds, otherwise a one-line description of how it
    broke.  Errors raised by a faulty transform count as failures too.
    """
    try:
        if prop == "tp1":
            res = transform_patch(rt, base, p, q)
            via_p = rt.digest(apply_patch(rt, apply_patch(rt, base, p), res.right))
            via_q = rt.digest(apply_patch(rt, apply_patch(rt, base, q), res.left))
            if via_p != via_q:
                return f"merge routes disagree: {via_p} vs {via_q}"
        elif prop == "sym":
            ab = transform_patch(rt, base, p, q)
            ba = transform_patch(rt, base, q, p)
            if ab.left != ba.right or ab.right != ba.left:
                return f"swapped arguments gave {ba} instead of mirrored {ab}"
        elif prop == "idem":
            res = transform_patch(rt, base, p, p)
            if res.left or res.right:
                return f"self-transform left residue {res}"
        elif prop == "comm":
            one = rt.digest(apply_patch(rt, base, confluent_rep(rt, base, p, q)))
            two = rt.digest(apply_patch(rt, base, confluent_rep(rt, base, q, p)))
            if one != two:
                return f"composition order changes the state: {one} vs {two}"
        elif prop == "tp2":
            outcomes = {}
            for (na, a), (nb, b), (nc, c) in permutations((("p", p), ("q", q), ("r", r))):
                pair = confluent_rep(rt, base, a, b)
                full = confluent_rep(rt, base, pair, c)
                outcomes[na + nb + nc] = rt.digest(apply_patch(rt, base, full))
            if len(set(outcomes.values())) > 1:
                return "merge orders disagree: " + ", ".join(
                    f"{k}={v}" for k, v in sorted(outcomes.items()))
        else:
            raise ValueError(f"unknown property {prop!r}")
    except CcrError as e:
        return f"{type(e).__name__} during check: {e}"
    return None


def shrink_counterexample(rt, prop: str, base: Any, patches: Tuple[Patch, ...]) -> Tuple[Patch, ...]:
    """Drop trailing ops from each patch while the failure reproduces."""
    pats = [tuple(x) for x in patches]
    changed = True
    while changed:
        changed = False
        for i in range(len(pats)):
            while pats[i]:
                cand = list(pats)
                cand[i] = pats[i][:-1]
                if check_one(rt, prop, base, *cand) is None:
                    break
                pats[i] = cand[i]
                changed = True
    return tuple(pats)


def random_ops(rt, rng: random.Random, state: Any, site: int, n: int) -> Tuple[Patch, Any]:
    """Up to ``n`` ops by ``site`` from ``state``, each effective where the
    ones before it leave off, and the state after them.  The ops stop early
    when ``DRAWS`` draws in a row find no effective intent."""
    ops = []
    for seq in range(1, n + 1):
        for _ in range(DRAWS):
            intent = rt.draw_intent(rng, state)
            try:
                op = rt.gen_effective(state, intent, OpId(site, seq))
            except IntentError:
                continue
            if op is not None:
                break
        else:
            break
        ops.append(op)
        state = rt.apply(state, op)
    return tuple(ops), state


def check_properties(kind: str, trials: int, seed: int,
                     checks: Tuple[str, ...] = PROPERTIES) -> PropertyReport:
    """Run `trials` randomized draws and report per-property pass counts.

    Pure in (kind, trials, seed, checks): the generator stream does not
    depend on pass/fail outcomes, so any trial can be replayed.
    """
    for prop in checks:
        if prop not in PROPERTIES:
            raise ValueError(f"unknown property {prop!r}")
    rt = replica_type(kind)
    rng = random.Random(f"{kind}:{seed}:props")
    report = PropertyReport(kind, trials, seed, tuple(checks))
    for trial in range(trials):
        _, base = random_ops(rt, rng, rt.initial(), 9, rng.randint(0, 5))
        p, q, r = (random_ops(rt, rng, base, site, rng.randint(1, 4))[0] for site in range(3))
        for prop in checks:
            detail = check_one(rt, prop, base, p, q, r)
            if detail is None:
                report.passes[prop] += 1
                continue
            report.failures[prop] += 1
            if report.first_failure is None:
                shrunk = shrink_counterexample(rt, prop, base, (p, q, r))
                report.first_failure = Counterexample(
                    prop=prop, trial=trial, kind=kind, base=base, patches=shrunk,
                    detail=check_one(rt, prop, base, *shrunk) or detail)
    return report

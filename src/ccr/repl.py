"""Line-oriented command surface shared by the live agent and scripts.

The grammar is total: every line parses to a ReplCommand or raises ReplError
naming the offending token.  Control commands (connect, disconnect, sync,
quit) need a running transport and are dispatched by the agent; everything
else evaluates against a bare SiteState via repl_eval.
"""

from __future__ import annotations

import json
import shlex
from dataclasses import asdict, dataclass
from typing import Any, List, Optional, Tuple

from .core import CcrError, IntentError
from .protocol import Message, SiteState
from .replicas import state_digest

POST_SLOTS = {"write": (0, "write"), "comment": (1, "add"),
              "like": (2, "incr"), "dislike": (3, "incr")}


Addr = Tuple[str, int]


class ReplError(CcrError):
    pass


@dataclass(frozen=True)
class ReplCommand:
    verb: str
    args: Tuple[Any, ...] = ()
    # set only for verb == "update"
    intent: Optional[Tuple[Any, ...]] = None


def parse_addr(text: str) -> Addr:
    """``host:port`` as a pair; ValueError if the text is not one."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected host:port, got {text!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"bad port in {text!r}") from None


def _int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ReplError(f"{what} must be an integer, got {token!r}") from None


def _arity(verb: str, args: List[str], n: int) -> None:
    if len(args) != n:
        raise ReplError(f"{verb} takes {n} argument{'s' if n != 1 else ''}, got {len(args)}")


def parse_line(kind: str, line: str) -> ReplCommand:
    """Parse one input line for a site of the given kind."""
    try:
        tokens = shlex.split(line, comments=True)
    except ValueError as e:
        raise ReplError(f"unbalanced quoting: {e}") from None
    if not tokens:
        return ReplCommand("noop")
    verb, args = tokens[0], tokens[1:]

    if verb in ("connect", "disconnect"):
        _arity(verb, args, 1)
        try:
            return ReplCommand(verb, parse_addr(args[0]))
        except ValueError as e:
            raise ReplError(str(e)) from None
    if verb in ("peers", "show", "history", "stats", "quit"):
        _arity(verb, args, 0)
        return ReplCommand(verb)
    if verb == "sync":
        if len(args) > 1:
            raise ReplError(f"sync takes at most 1 argument, got {len(args)}")
        return ReplCommand("sync", (_int(args[0], "sync timeout") if args else None,))

    intent = _parse_intent(kind, verb, args)
    if intent is None:
        raise ReplError(f"unknown command {verb!r} for kind {kind!r}")
    return ReplCommand("update", intent=intent)


def _parse_intent(kind: str, verb: str, args: List[str]) -> Optional[Tuple[Any, ...]]:
    if kind.startswith("map<tuple<lww,eset"):
        # structural name of the post map; same grammar either way
        kind = "socialmedia"
    if kind in ("counter", "addmult"):
        verbs = ("incr", "decr") if kind == "counter" else ("add", "mult")
        if verb not in verbs:
            return None
        _arity(verb, args, 1)
        return (verb, _int(args[0], "amount"))
    if kind == "lww":
        if verb != "write":
            return None
        _arity(verb, args, 1)
        return ("write", args[0])
    if kind == "eset":
        if verb not in ("add", "rem"):
            return None
        _arity(verb, args, 1)
        return (verb, args[0])
    if kind == "queue":
        if verb == "enq":
            _arity(verb, args, 1)
            return ("enq", args[0])
        if verb == "deq":
            _arity(verb, args, 0)
            return ("deq",)
        return None
    if kind == "text":
        if verb == "ins":
            _arity(verb, args, 2)
            return ("ins", _int(args[0], "position"), args[1])
        if verb == "del":
            _arity(verb, args, 2)
            return ("del", _int(args[0], "position"), _int(args[1], "length"))
        return None
    if kind == "socialmedia":
        if verb != "post":
            return None
        if len(args) < 2:
            raise ReplError("post takes KEY and an action")
        key, action, rest = args[0], args[1], args[2:]
        slot = POST_SLOTS.get(action)
        if slot is None:
            raise ReplError(f"unknown post action {action!r}")
        i, inner_verb = slot
        if inner_verb == "incr":
            _arity(f"post {action}", rest, 0)
            return ("upd", key, ("at", i, ("incr", 1)))
        _arity(f"post {action}", rest, 1)
        return ("upd", key, ("at", i, (inner_verb, rest[0])))
    return None


def repl_eval(state: SiteState, line: str) -> Tuple[SiteState, str, List[Tuple[int, Message]]]:
    """Evaluate one line against a site; returns (state, output, messages).

    Control verbs that need a live transport come back with a hint instead
    of acting; the agent intercepts them before calling here.
    """
    try:
        cmd = parse_line(state.rt.name, line)
    except ReplError as e:
        return state, f"parse error: {e}", []

    if cmd.verb == "noop":
        return state, "", []
    if cmd.verb == "show":
        return state, state_digest(state.rt, state.current), []
    if cmd.verb == "history":
        if not state.history:
            return state, "(empty)", []
        return state, "\n".join(repr(op) for op in state.history), []
    if cmd.verb == "stats":
        return state, json.dumps(asdict(state.stats), separators=(",", ":")), []
    if cmd.verb == "peers":
        if not state.peers:
            return state, "(none)", []
        lines = [
            f"site {peer}: sent {cur.sent_len}/{len(state.history)}, received {cur.recv_len}"
            for peer, cur in sorted(state.peers.items())
        ]
        return state, "\n".join(lines), []
    if cmd.verb == "update":
        before = len(state.history)
        try:
            msgs = state.local_update(cmd.intent)
        except IntentError as e:
            return state, str(e), []
        if len(state.history) == before:
            return state, "no effect", []
        return state, "", msgs
    if cmd.verb == "quit":
        return state, "bye", []
    return state, f"{cmd.verb}: requires a running agent", []

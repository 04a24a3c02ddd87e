"""Line-oriented command surface shared by the live agent and scripts.

The grammar is total: every line parses to a ReplCommand or raises ReplError
naming the offending token.  Control commands (connect, disconnect, sync,
quit) need a running transport and are dispatched by the agent; every
other parsed command evaluates against a bare SiteState via repl_eval.
Update commands are the kind's own grammar (``ReplicaType.parse_intent``).
"""

from __future__ import annotations

import json
import shlex
from typing import Any, List, NamedTuple, Optional, Tuple

from .core import CcrError, IntentError
from .protocol import Message, SiteState
from .replicas.base import ReplicaType, arity, int_arg

Addr = Tuple[str, int]


class ReplError(CcrError):
    pass


class ReplCommand(NamedTuple):
    verb: str
    args: Tuple[Any, ...] = ()
    # set only for verb == "update"
    intent: Optional[Tuple[Any, ...]] = None


def parse_addr(text: str) -> Addr:
    """``host:port`` as a pair, port in 0..65535; ValueError if the text is not one."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected host:port, got {text!r}")
    if port.isascii() and port.isdigit() and int(port) <= 65535:
        return host, int(port)
    raise ValueError(f"bad port in {text!r}")


def parse_line(rt: ReplicaType, line: str) -> ReplCommand:
    """Parse one input line for a site of kind ``rt``."""
    try:
        tokens = shlex.split(line, comments=True)
    except ValueError as e:
        raise ReplError(f"unbalanced quoting: {e}") from None
    if not tokens:
        return ReplCommand("noop")
    verb, args = tokens[0], tokens[1:]
    try:
        if verb in ("connect", "disconnect"):
            arity(verb, args, 1)
            return ReplCommand(verb, parse_addr(args[0]))
        if verb in ("peers", "show", "history", "stats", "quit"):
            arity(verb, args, 0)
            return ReplCommand(verb)
        if verb == "sync":
            if len(args) > 1:
                raise ReplError(f"sync takes at most 1 argument, got {len(args)}")
            timeout = int_arg(args[0], "sync timeout") if args else None
            if timeout is not None and timeout < 0:
                raise ReplError(f"sync timeout must not be negative, got {timeout}")
            return ReplCommand("sync", (timeout,))
        intent = rt.parse_intent(verb, args)
    except (IntentError, ValueError) as e:  # ValueError: a bad address
        raise ReplError(str(e)) from None
    if intent is None:
        raise ReplError(f"unknown command {verb!r} for kind {rt.name!r}")
    return ReplCommand("update", intent=intent)


def repl_eval(state: SiteState, cmd: ReplCommand) -> Tuple[str, List[Tuple[int, Message]]]:
    """Evaluate one parsed command against a site; returns (output,
    messages).

    Control verbs that need a live transport come back with a hint instead
    of acting; the agent intercepts them before calling here.
    """
    if cmd.verb == "noop":
        return "", []
    if cmd.verb == "show":
        return state.rt.digest(state.current), []
    if cmd.verb == "history":
        if not state.history:
            return "(empty)", []
        return "\n".join(repr(op) for op in state.history), []
    if cmd.verb == "stats":
        return json.dumps(vars(state.stats), separators=(",", ":")), []
    if cmd.verb == "peers":
        if not state.peers:
            return "(none)", []
        lines = [
            f"site {peer}: sent {cur.sent_len}/{len(state.history)}, received {cur.recv_len}"
            for peer, cur in sorted(state.peers.items())
        ]
        return "\n".join(lines), []
    if cmd.verb == "update":
        before = len(state.history)
        try:
            msgs = state.local_update(cmd.intent)
        except IntentError as e:
            return str(e), []
        if len(state.history) == before:
            return "no effect", []
        return "", msgs
    if cmd.verb == "quit":
        return "bye", []
    return f"{cmd.verb}: requires a running agent", []

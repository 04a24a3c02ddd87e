"""Replica type interface.

A replica type bundles everything kind-specific: the initial state, operation
application, the primitive transform used by the sweep in ``ccr.core``,
intent-to-operation generation, the command grammar and the random intents
that name those intents, canonical digests, and wire codecs for operation
bodies.  Instances are stateless singletons.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core import IntentError, Operation, OpId, Patch

ALPHABET = "abcdefghijklmnopqrstuvwxyz"
DRAWS = 40  # intents drawn at most in search of one that takes effect
# Command arguments read as integers; every other argument is a string.
_INT_ARGS = frozenset({"amount", "position", "length"})


def arity(verb: str, args: Sequence[str], n: int) -> None:
    if len(args) != n:
        raise IntentError(f"{verb} takes {n} argument{'s' if n != 1 else ''}, got {len(args)}")


def int_arg(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise IntentError(f"{what} must be an integer, got {token!r}") from None


def random_word(rng: random.Random) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 3)))


class ReplicaType:
    name: str = "?"
    # The command grammar: verb -> the names of its arguments.  Each command
    # ``verb ARG...`` is the intent ``(verb, ARG...)``.
    verbs: Dict[str, Tuple[str, ...]] = {}
    # A second name that a map of this kind takes for ``upd KEY <cmd>``.
    map_verb = "upd"

    def initial(self) -> Any:
        raise NotImplementedError

    def apply(self, state: Any, op: Operation) -> Any:
        """Apply one operation.  Raises ApplyError on ill-formed input."""
        raise NotImplementedError

    def transform_prim(self, a: Operation, b: Operation) -> Tuple[Patch, Patch]:
        """Rewrite two concurrent single operations across each other.

        Both apply to one state and carry distinct uids (equal uids cancel one
        level up).  The rewrite reads the two bodies only, never a state.
        Returns patches: a fragment may split, a subsumed op comes back empty.
        """
        raise NotImplementedError

    def gen_effective(self, state: Any, intent: Tuple[Any, ...], uid: OpId) -> Optional[Operation]:
        """Turn a user intent into an operation, or None when the intent has
        no effect on ``state``.  Malformed intents raise IntentError."""
        raise NotImplementedError

    def parse_intent(self, verb: str, args: List[str]) -> Optional[Tuple[Any, ...]]:
        """The intent a command names, or None when ``verb`` is not one of
        this kind's.  Raises IntentError on bad arguments."""
        names = self.verbs.get(verb)
        if names is None:
            return None
        arity(verb, args, len(names))
        return (verb, *(int_arg(a, n) if n in _INT_ARGS else a for n, a in zip(names, args)))

    def draw_intent(self, rng: random.Random, state: Any) -> Tuple[Any, ...]:
        """A random intent for ``state``, which may turn out ineffective or
        malformed; the caller then draws again, ``DRAWS`` times at most."""
        raise NotImplementedError

    def digest_value(self, state: Any) -> Any:
        """Canonical plain-data rendering: sets sorted, map keys sorted."""
        raise NotImplementedError

    def digest(self, state: Any) -> str:
        import json  # loaded at a process's first digest, not at its start
        return json.dumps(self.digest_value(state), sort_keys=True, separators=(",", ":"))

    def encode_body(self, body: Tuple[Any, ...]) -> dict:
        raise NotImplementedError

    def decode_body(self, obj: dict) -> Tuple[Any, ...]:
        """Inverse of encode_body.  Raises WireError on malformed input."""
        raise NotImplementedError

    def op(self, uid: OpId, *body: Any) -> Operation:
        return Operation(uid, tuple(body))

    def __repr__(self) -> str:
        return f"<replica {self.name}>"

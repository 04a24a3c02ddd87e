"""Replica type interface.

A replica type bundles everything kind-specific: the initial state, operation
application, the primitive transform used by the sweep in ``ccr.core``,
intent-to-operation generation, canonical digests, and wire codecs for
operation bodies.  Instances are stateless singletons.
"""

from __future__ import annotations

import json
from typing import Any, Optional, Tuple

from ..core import Operation, OpId, Patch


class ReplicaType:
    name: str = "?"

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

    def digest_value(self, state: Any) -> Any:
        """Canonical plain-data rendering: sets sorted, map keys sorted."""
        raise NotImplementedError

    def digest(self, state: Any) -> str:
        return json.dumps(self.digest_value(state), sort_keys=True, separators=(",", ":"))

    def encode_body(self, body: Tuple[Any, ...]) -> dict:
        raise NotImplementedError

    def decode_body(self, obj: dict) -> Tuple[Any, ...]:
        """Inverse of encode_body.  Raises WireError on malformed input."""
        raise NotImplementedError

    def op(self, uid: OpId, *body: Any) -> Operation:
        return Operation(uid, self.name, tuple(body))

    def __repr__(self) -> str:
        return f"<replica {self.name}>"

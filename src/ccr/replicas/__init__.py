"""Replica kind registry.

Kinds are named structurally: the six scalars by bare name, composites as
``tuple<a,b,...>`` and ``map<a>``.  ``socialpost`` and ``socialmedia`` are
accepted as shorthand and normalize to their structural forms, so two agents
configured either way agree on the canonical kind string.  The post shape
resolves to ``SocialPostType``, which only adds the post vocabulary.
"""

from __future__ import annotations

from ..core import IntentError
from .addmult import AddMultType
from .base import ReplicaType
from .composite import POST_SHAPE, MapType, SocialPostType, TupleType
from .counter import CounterType
from .eset import ESetType
from .lww import LwwType
from .queue import QueueType
from .text import TextType

COUNTER = CounterType()
ADDMULT = AddMultType()
LWW = LwwType()
ESET = ESetType()
QUEUE = QueueType()
TEXT = TextType()

_SCALARS = {t.name: t for t in (COUNTER, ADDMULT, LWW, ESET, QUEUE, TEXT)}

_ALIASES = {
    "socialpost": POST_SHAPE,
    "socialmedia": f"map<{POST_SHAPE}>",
}


def replica_type(kind: str) -> ReplicaType:
    """Resolve a kind string (structural or alias) to a replica type.

    Raises IntentError on names that parse to nothing.
    """
    rt, rest = _parse(_ALIASES.get(kind.strip(), kind.strip()))
    if rest:
        raise IntentError(f"trailing input in kind: {rest!r}")
    return rt


def _parse(s: str):
    s = s.lstrip()
    if s.startswith("tuple<"):
        rest = s[len("tuple<"):]
        comps = []
        while True:
            if rest.startswith(">"):
                if not comps:
                    raise IntentError("empty tuple kind")
                rt = TupleType(tuple(comps))
                if rt.name == POST_SHAPE:
                    rt = SocialPostType(rt.components)
                return rt, rest[1:]
            if comps:
                if not rest.startswith(","):
                    raise IntentError(f"bad kind syntax near {rest!r}")
                rest = rest[1:]
            comp, rest = _parse(rest)
            comps.append(comp)
    if s.startswith("map<"):
        comp, rest = _parse(s[len("map<"):])
        if not rest.startswith(">"):
            raise IntentError(f"bad kind syntax near {rest!r}")
        return MapType(comp), rest[1:]
    for name in sorted(_SCALARS, key=len, reverse=True):
        if s.startswith(name):
            return _SCALARS[name], s[len(name):]
    for alias, expansion in _ALIASES.items():
        if s.startswith(alias):
            rt, _ = _parse(expansion)
            return rt, s[len(alias):]
    raise IntentError(f"unknown replica kind near {s!r}")

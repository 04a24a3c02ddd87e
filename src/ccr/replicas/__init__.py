"""Replica kind registry.

Kinds are named structurally: the six scalars by bare name, composites as
``tuple<a,b,...>`` and ``map<a>``.  ``socialpost`` and ``socialmedia`` are
accepted as shorthand and normalize to their structural forms, so two agents
configured either way agree on the canonical kind string.  The post shape
resolves to ``SocialPostType``, which only adds the post vocabulary.

A process loads a kind's module only when a kind string names it: a scalar
the first time its name is parsed, ``composite`` the first time a string
holds a tuple, a map or an alias.  A text site loads no other kind.
"""

from __future__ import annotations

from importlib import import_module
from typing import Dict

from ..core import IntentError
from .base import ReplicaType

POST_SHAPE = "tuple<lww,eset,counter,counter>"

# Each scalar kind's name -> its class, in the module of the same name.
_SCALAR_CLASSES = {
    "counter": "CounterType",
    "addmult": "AddMultType",
    "lww": "LwwType",
    "eset": "ESetType",
    "queue": "QueueType",
    "text": "TextType",
}
# The scalar instances made so far, one per kind: each stays a singleton.
_SCALARS: Dict[str, ReplicaType] = {}

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
        from .composite import SocialPostType, TupleType
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
        from .composite import MapType
        comp, rest = _parse(s[len("map<"):])
        if not rest.startswith(">"):
            raise IntentError(f"bad kind syntax near {rest!r}")
        return MapType(comp), rest[1:]
    for name in sorted(_SCALAR_CLASSES, key=len, reverse=True):
        if s.startswith(name):
            if name not in _SCALARS:
                module = import_module(f".{name}", __name__)
                _SCALARS[name] = getattr(module, _SCALAR_CLASSES[name])()
            return _SCALARS[name], s[len(name):]
    for alias, expansion in _ALIASES.items():
        if s.startswith(alias):
            rt, _ = _parse(expansion)
            return rt, s[len(alias):]
    raise IntentError(f"unknown replica kind near {s!r}")

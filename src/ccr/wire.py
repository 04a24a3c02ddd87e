"""Wire codec: one JSON object per line, UTF-8.

Key order is part of the format (golden tests pin exact bytes), so message
dicts are built in schema order and serialized without key sorting.  Decoding
is strict about structure and types; anything off raises WireError so a bad
frame drops the connection instead of corrupting a replica.
"""

from __future__ import annotations

import json
from typing import Any, Union

from .core import Operation, WireError, decode_uid
from .protocol import Full, Hello, Increment, Message, ResyncReq
from .replicas.base import ReplicaType


def encode_op(rt: ReplicaType, op: Operation) -> dict:
    return {"uid": {"site": op.uid.site, "seq": op.uid.seq}, **rt.encode_body(op.body)}


def decode_op(rt: ReplicaType, obj: Any) -> Operation:
    if not isinstance(obj, dict):
        raise WireError(f"operation must be an object: {obj!r}")
    return Operation(decode_uid(obj.get("uid")), rt.name, rt.decode_body(obj))


def encode_message(rt: ReplicaType, msg: Message) -> bytes:
    if isinstance(msg, Hello):
        d: dict = {"v": 1, "hello": msg.site, "kind": msg.kind, "known_len": msg.known_len}
    elif isinstance(msg, Increment):
        d = {
            "v": 1,
            "kind": msg.kind,
            "sender": msg.sender,
            "prefix_len": msg.prefix_len,
            "ops": [encode_op(rt, op) for op in msg.ops],
        }
    elif isinstance(msg, ResyncReq):
        d = {"v": 1, "resync": True}
    elif isinstance(msg, Full):
        d = {"v": 1, "full": [encode_op(rt, op) for op in msg.ops], "sender": msg.sender}
    else:
        raise WireError(f"cannot encode {msg!r}")
    return (json.dumps(d, separators=(",", ":"), ensure_ascii=False) + "\n").encode("utf-8")


def _int_field(obj: dict, key: str) -> int:
    v = obj.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise WireError(f"field {key!r} must be an integer: {obj!r}")
    return v


def decode_message(rt: ReplicaType, line: Union[bytes, str]) -> Message:
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as e:
            raise WireError(f"frame is not UTF-8: {e}") from None
    try:
        obj = json.loads(line)
    except ValueError as e:
        raise WireError(f"frame is not JSON: {e}") from None
    if not isinstance(obj, dict) or obj.get("v") != 1:
        raise WireError(f"unsupported frame: {obj!r}")

    if "hello" in obj:
        kind = obj.get("kind")
        if not isinstance(kind, str):
            raise WireError(f"hello without kind: {obj!r}")
        return Hello(site=_int_field(obj, "hello"), kind=kind, known_len=_int_field(obj, "known_len"))
    if "resync" in obj:
        if obj["resync"] is not True:
            raise WireError(f"bad resync frame: {obj!r}")
        return ResyncReq()
    if "full" in obj:
        ops = obj["full"]
        if not isinstance(ops, list):
            raise WireError(f"full ops must be a list: {obj!r}")
        return Full(sender=_int_field(obj, "sender"), ops=tuple(decode_op(rt, o) for o in ops))
    if "ops" in obj:
        kind = obj.get("kind")
        if not isinstance(kind, str):
            raise WireError(f"increment without kind: {obj!r}")
        ops = obj["ops"]
        if not isinstance(ops, list):
            raise WireError(f"ops must be a list: {obj!r}")
        return Increment(
            kind=kind,
            sender=_int_field(obj, "sender"),
            prefix_len=_int_field(obj, "prefix_len"),
            ops=tuple(decode_op(rt, o) for o in ops),
        )
    raise WireError(f"unrecognized frame: {obj!r}")

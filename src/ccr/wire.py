"""Wire codec: one JSON object per line, UTF-8.

Key order is part of the format (golden tests pin exact bytes), so message
dicts are built in schema order and serialized without key sorting, by one
encoder shared by every frame.  Every frame is a fresh tree of dicts and
lists, so the encoder skips the circular-reference check.  Decoding is strict about structure and
types; anything off raises WireError so a bad frame drops the connection
instead of corrupting a replica.  An integer field, the version included,
holds an int that is not a boolean (``core.is_int``), and a stream
position (``prefix_len``, ``known_len``) is never negative.

A frame is parsed by the C scanner that ``json.loads`` runs, called once at
position 0.  Its result stands when the rest of the line is empty or JSON
whitespace, so a line ending (``\\n`` or ``\\r\\n``) costs nothing.  Every
other line (leading whitespace, a BOM, trailing data, malformed JSON) goes
through ``json.loads`` itself, so the lines accepted and the errors raised
are exactly those of ``json.loads``.  A frame nested past the scanner's
recursion limit is refused like malformed JSON.  The header is then checked in a fixed
precedence (hello, resync, full, ops) and the ops in one loop, with no
helper call per field.
"""

from __future__ import annotations

import json
from json.decoder import WHITESPACE
from json.scanner import make_scanner
from typing import Any, Iterable, List, Union

from .core import Operation, Patch, WireError, decode_uid, is_int
from .protocol import Full, Hello, Increment, Message, ResyncReq
from .replicas.base import ReplicaType

_encode = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False,
                           check_circular=False).encode
_scan = make_scanner(json.JSONDecoder())
_skip_space = WHITESPACE.match


def _encode_ops(rt: ReplicaType, ops: Iterable[Operation]) -> List[dict]:
    body = rt.encode_body
    # ``core.encode_uid`` written out: a call per op would cost the encoder
    # one more Python frame per op.
    return [{"uid": {"site": op.uid.site, "seq": op.uid.seq}, **body(op.body)} for op in ops]


def _decode_ops(rt: ReplicaType, objs: list) -> Patch:
    body = rt.decode_body
    ops = []
    for obj in objs:
        if type(obj) is not dict:
            raise WireError(f"operation must be an object: {obj!r}")
        ops.append(Operation(decode_uid(obj.get("uid")), body(obj)))
    return tuple(ops)


def encode_op(rt: ReplicaType, op: Operation) -> dict:
    return _encode_ops(rt, (op,))[0]


def decode_op(rt: ReplicaType, obj: Any) -> Operation:
    return _decode_ops(rt, [obj])[0]


def encode_message(rt: ReplicaType, msg: Message) -> bytes:
    if isinstance(msg, Increment):
        d: dict = {
            "v": 1,
            "kind": msg.kind,
            "sender": msg.sender,
            "prefix_len": msg.prefix_len,
            "ops": _encode_ops(rt, msg.ops),
        }
    elif isinstance(msg, Hello):
        d = {"v": 1, "hello": msg.site, "kind": msg.kind, "known_len": msg.known_len}
        if msg.incarnation is not None:
            d["incarnation"] = msg.incarnation
    elif isinstance(msg, ResyncReq):
        d = {"v": 1, "resync": True}
    elif isinstance(msg, Full):
        d = {"v": 1, "full": _encode_ops(rt, msg.ops), "sender": msg.sender}
    else:
        raise WireError(f"cannot encode {msg!r}")
    return (_encode(d) + "\n").encode("utf-8")


def _not_int(obj: dict, *keys: str) -> WireError:
    key = next(k for k in keys if not is_int(obj.get(k)))
    return WireError(f"field {key!r} must be an integer: {obj!r}")


def _parse(line: str) -> Any:
    try:
        obj, end = _scan(line, 0)
    except (StopIteration, ValueError):
        pass
    else:
        if _skip_space(line, end).end() == len(line):
            return obj
    return json.loads(line)


def decode_message(rt: ReplicaType, line: Union[bytes, str]) -> Message:
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as e:
            raise WireError(f"frame is not UTF-8: {e}") from None
    try:
        obj = _parse(line)
    except (ValueError, RecursionError) as e:  # RecursionError: nested too deep
        raise WireError(f"frame is not JSON: {e}") from None
    if type(obj) is not dict or obj.get("v") != 1 or type(obj["v"]) is not int:
        raise WireError(f"unsupported frame: {obj!r}")

    if "hello" in obj:
        site, kind, known_len = obj["hello"], obj.get("kind"), obj.get("known_len")
        if type(kind) is not str:
            raise WireError(f"hello without kind: {obj!r}")
        incarnation = obj.get("incarnation", 0)
        if type(site) is not int or type(known_len) is not int or type(incarnation) is not int:
            raise _not_int(obj, "hello", "known_len", "incarnation")
        if known_len < 0:
            raise WireError(f"negative known_len: {obj!r}")
        return Hello(site, kind, known_len, obj.get("incarnation"))
    if "resync" in obj:
        if obj["resync"] is not True:
            raise WireError(f"bad resync frame: {obj!r}")
        return ResyncReq()
    if "full" in obj:
        ops, sender = obj["full"], obj.get("sender")
        if type(ops) is not list:
            raise WireError(f"full ops must be a list: {obj!r}")
        if type(sender) is not int:
            raise _not_int(obj, "sender")
        return Full(sender, _decode_ops(rt, ops))
    if "ops" in obj:
        kind, ops = obj.get("kind"), obj["ops"]
        if type(kind) is not str:
            raise WireError(f"increment without kind: {obj!r}")
        if type(ops) is not list:
            raise WireError(f"ops must be a list: {obj!r}")
        sender, prefix_len = obj.get("sender"), obj.get("prefix_len")
        if type(sender) is not int or type(prefix_len) is not int:
            raise _not_int(obj, "sender", "prefix_len")
        if prefix_len < 0:
            raise WireError(f"negative prefix_len: {obj!r}")
        return Increment(kind, sender, prefix_len, _decode_ops(rt, ops))
    raise WireError(f"unrecognized frame: {obj!r}")

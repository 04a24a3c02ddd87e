import json
import random
import sys

import pytest

import ccr.sim
from ccr.core import OpId, WireError, decode_uid, encode_uid
from ccr.protocol import Full, Hello, Increment, ResyncReq, SiteState
from ccr.replicas import replica_type
from ccr.sim import SimConfig, random_update, run_trial
from ccr.wire import decode_message, decode_op, encode_message, encode_op

TEXT = replica_type("text")
COUNTER = replica_type("counter")


def op_bytes(rt, op):
    return json.dumps(encode_op(rt, op), separators=(",", ":"))


class TestGoldenFrames:
    # Exact bytes, not just structure: peers written in other languages
    # must be able to pin these.

    def test_increment(self):
        msg = Increment(kind="text", sender=0, prefix_len=3,
                        ops=(TEXT.op(OpId(0, 3), "Ins", 2, "ab"),))
        assert encode_message(TEXT, msg) == (
            b'{"v":1,"kind":"text","sender":0,"prefix_len":3,'
            b'"ops":[{"uid":{"site":0,"seq":3},"type":"Ins","k":2,"s":"ab"}]}\n'
        )

    def test_hello(self):
        msg = Hello(site=0, kind="text", known_len=0)
        assert encode_message(TEXT, msg) == b'{"v":1,"hello":0,"kind":"text","known_len":0}\n'

    def test_hello_with_incarnation(self):
        # Present only when named, after the pinned fields.
        msg = Hello(site=0, kind="text", known_len=0, incarnation=2**64 - 1)
        assert encode_message(TEXT, msg) == (
            b'{"v":1,"hello":0,"kind":"text","known_len":0,'
            b'"incarnation":18446744073709551615}\n'
        )

    def test_resync(self):
        assert encode_message(TEXT, ResyncReq()) == b'{"v":1,"resync":true}\n'

    def test_full(self):
        msg = Full(sender=1, ops=(COUNTER.op(OpId(1, 2), "Incr", 3),))
        assert encode_message(COUNTER, msg) == (
            b'{"v":1,"full":[{"uid":{"site":1,"seq":2},"type":"Incr","n":3}],"sender":1}\n'
        )

    def test_empty_increment(self):
        msg = Increment(kind="counter", sender=2, prefix_len=5, ops=())
        assert encode_message(COUNTER, msg) == (
            b'{"v":1,"kind":"counter","sender":2,"prefix_len":5,"ops":[]}\n'
        )


class TestGoldenOps:
    def test_counter(self):
        assert op_bytes(COUNTER, COUNTER.op(OpId(2, 7), "Decr", 4)) == (
            '{"uid":{"site":2,"seq":7},"type":"Decr","n":4}'
        )

    def test_addmult(self):
        rt = replica_type("addmult")
        assert op_bytes(rt, rt.op(OpId(0, 1), "Mult", 3)) == (
            '{"uid":{"site":0,"seq":1},"type":"Mult","n":3}'
        )

    def test_eset(self):
        rt = replica_type("eset")
        assert op_bytes(rt, rt.op(OpId(1, 5), "Rem", "a")) == (
            '{"uid":{"site":1,"seq":5},"type":"Rem","x":"a"}'
        )

    def test_lww_drop_sorted(self):
        rt = replica_type("lww")
        op = rt.op(OpId(0, 2), "WriteExcept", "hi", frozenset({OpId(1, 1), OpId(0, 1)}))
        assert op_bytes(rt, op) == (
            '{"uid":{"site":0,"seq":2},"type":"WriteExcept","s":"hi",'
            '"drop":[{"site":0,"seq":1},{"site":1,"seq":1}]}'
        )

    def test_queue(self):
        rt = replica_type("queue")
        assert op_bytes(rt, rt.op(OpId(0, 1), "EnqAt", 0, "job")) == (
            '{"uid":{"site":0,"seq":1},"type":"EnqAt","k":0,"x":"job"}'
        )
        assert op_bytes(rt, rt.op(OpId(1, 2), "Deq", OpId(0, 1))) == (
            '{"uid":{"site":1,"seq":2},"type":"Deq","target":{"site":0,"seq":1}}'
        )

    def test_text_del(self):
        assert op_bytes(TEXT, TEXT.op(OpId(3, 9), "Del", 1, 2)) == (
            '{"uid":{"site":3,"seq":9},"type":"Del","k":1,"n":2}'
        )

    def test_tuple_slot(self):
        rt = replica_type("socialpost")
        op = rt.op(OpId(0, 1), "At", 2, ("Incr", 1))
        assert op_bytes(rt, op) == (
            '{"uid":{"site":0,"seq":1},"type":"At","i":2,"op":{"type":"Incr","n":1}}'
        )

    def test_map_update(self):
        rt = replica_type("socialmedia")
        op = rt.op(OpId(0, 1), "Upd", "p1", (("At", 3, ("Incr", 1)),))
        assert op_bytes(rt, op) == (
            '{"uid":{"site":0,"seq":1},"type":"Upd","key":"p1",'
            '"patch":[{"type":"At","i":3,"op":{"type":"Incr","n":1}}]}'
        )


class TestRoundTrips:
    def round(self, rt, msg):
        assert decode_message(rt, encode_message(rt, msg)) == msg

    def test_all_variants(self):
        self.round(TEXT, Hello(site=4, kind="text", known_len=17))
        self.round(TEXT, Hello(site=4, kind="text", known_len=17, incarnation=0))
        self.round(TEXT, Hello(site=4, kind="text", known_len=17, incarnation=2**64 - 1))
        self.round(TEXT, ResyncReq())
        self.round(TEXT, Increment(kind="text", sender=1, prefix_len=0,
                                   ops=(TEXT.op(OpId(1, 1), "Ins", 0, "héllo"),
                                        TEXT.op(OpId(1, 2), "Del", 0, 1))))
        self.round(TEXT, Full(sender=0, ops=(TEXT.op(OpId(0, 1), "Ins", 0, "x"),)))

    def test_every_kind_ops(self):
        cases = {
            # A negative amount is legal: the REPL's "incr -5" makes one.
            "counter": [("Incr", 3), ("Decr", 1), ("Incr", -5), ("Decr", 2**64 - 1)],
            "addmult": [("Add", -6), ("Mult", 0)],
            "eset": [("Add", "k"), ("Rem", "k")],
            "lww": [("WriteExcept", "v", frozenset({OpId(2, 9)}))],
            "queue": [("EnqAt", 1, "x"), ("Deq", OpId(0, 3))],
            "text": [("Ins", 0, "ab"), ("Del", 2, 2)],
            "socialpost": [("At", 0, ("WriteExcept", "t", frozenset())),
                           ("At", 1, ("Add", "c"))],
            "socialmedia": [("Upd", "k1", (("At", 2, ("Incr", 1)),
                                           ("At", 0, ("WriteExcept", "s", frozenset()))))],
        }
        for kind, bodies in cases.items():
            rt = replica_type(kind)
            ops = tuple(rt.op(OpId(0, i + 1), *b) for i, b in enumerate(bodies))
            self.round(rt, Increment(kind=rt.name, sender=0, prefix_len=0, ops=ops))

    def test_add_zero_is_relayed(self):
        # Site 1's Add 3, swept past site 0's concurrent Mult 0, is Add 0 in
        # site 0's history; the codec carries it on to a third site.
        rt = replica_type("addmult")
        a, b, c = (SiteState(i, rt) for i in range(3))
        a.connect_peer(1)
        b.connect_peer(0)
        a.local_update(("mult", 0))
        [(_, inc)] = b.local_update(("add", 3))
        a.handle_message(1, decode_message(rt, encode_message(rt, inc)))
        assert a.history == (rt.op(OpId(0, 1), "Mult", 0), rt.op(OpId(1, 1), "Add", 0))
        a.connect_peer(2)
        c.connect_peer(0)
        relay = decode_message(rt, encode_message(rt, a.make_increment(2)))
        assert relay.ops == a.history
        c.handle_message(0, relay)
        assert c.history == a.history and c.current == a.current == 0

    def test_decode_accepts_str_and_bytes(self):
        raw = encode_message(COUNTER, ResyncReq())
        assert decode_message(COUNTER, raw) == decode_message(COUNTER, raw.decode())

    @pytest.mark.parametrize("kind", ["counter", "addmult", "lww", "eset", "queue", "text",
                                      "socialmedia", "map<text>", "tuple<counter,text>"])
    def test_random_ops(self, kind):
        rt = replica_type(kind)
        rng = random.Random(kind)
        s = SiteState(0, rt)
        for _ in range(40):
            random_update(s, rng)
        assert len(s.history) > 20
        self.round(rt, Increment(rt.name, 0, 0, s.history[:]))
        self.round(rt, Full(0, s.history))

    @pytest.mark.parametrize("kind", ["counter", "addmult", "lww", "eset", "queue", "text",
                                      "socialmedia", "map<text>", "tuple<queue,eset>"])
    def test_trial_histories(self, kind, monkeypatch):
        # Every op a site integrates, transformed ones included, is one the
        # codec accepts as it is: the checks on decoding refuse only ops
        # that no site makes.
        sites = []

        def site(i, rt):
            sites.append(SiteState(i, rt))
            return sites[-1]

        monkeypatch.setattr(ccr.sim, "SiteState", site)
        for seed in range(3):
            cfg = SimConfig(kind=kind, sites=4, seed=seed, topology="ring",
                            reorder=True, duplicate=True)
            assert run_trial(cfg).converged
        rt = sites[0].rt
        ops = [op for s in sites for op in s.history]
        assert len(ops) > 3 * 4 * 20
        for op in ops:
            assert decode_op(rt, json.loads(op_bytes(rt, op))) == op


def _loads_decoder(rt, line):
    """A decoder built on ``json.loads``: the codec's structural checks,
    applied to what ``json.loads`` makes of the line."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as e:
            raise WireError(f"frame is not UTF-8: {e}") from None
    try:
        obj = json.loads(line)
    except ValueError as e:
        raise WireError(f"frame is not JSON: {e}") from None
    return decode_message(rt, json.dumps(obj, separators=(",", ":"), ensure_ascii=False))


def _outcome(decode, line):
    try:
        return decode(COUNTER, line)
    except WireError as e:
        return f"WireError: {e}"


_INC = '{"v":1,"kind":"counter","sender":0,"prefix_len":0,"ops":[{"uid":{"site":0,"seq":1},"type":"Incr","n":2}]}'
_INC_MSG = Increment("counter", 0, 0, (COUNTER.op(OpId(0, 1), "Incr", 2),))
_RESYNC = '{"v":1,"resync":true}'


class TestAcceptance:
    """The lines the codec accepts, and its errors, are those of
    ``json.loads``; only the route there differs."""

    @pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
    @pytest.mark.parametrize("line,expected", [
        (_INC, _INC_MSG),
        ("  " + _INC, _INC_MSG),
        (_INC + "  ", _INC_MSG),
        (_INC + "\r", _INC_MSG),
        (_INC + "\r\n", _INC_MSG),
        (" \t" + _INC + " \n", _INC_MSG),
        ("\ufeff" + _INC, None),
        (_INC + "x", None),
        (_INC + _INC, None),
        (_INC + " " + _RESYNC, None),
        (_INC[:-1], None),
        ("", None),
        (" \n", None),
        ('{"v":1,"resync":true,"x":NaN}', ResyncReq()),
        ('{"v":NaN,"resync":true}', None),
        ('{"v":1,"hello":0,"kind":"counter","known_len":NaN}', None),
        ('{"v":2,"v":1,"resync":true}', ResyncReq()),
        ('{"v":1,"v":2,"resync":true}', None),
        ('{"v":1,"hello":1,"kind":"counter","known_len":0,"sender":0,"prefix_len":0,"ops":[]}',
         Hello(1, "counter", 0)),
        ('{"v":1,"full":[],"sender":1,"resync":true}', ResyncReq()),
    ])
    def test_edge_frames(self, line, expected, as_bytes):
        raw = line.encode("utf-8") if as_bytes else line
        got = _outcome(decode_message, raw)
        assert got == _outcome(_loads_decoder, raw)
        if expected is None:
            assert isinstance(got, str)
        else:
            assert type(got) is type(expected) and got == expected


class TestRejects:
    def bad(self, line, rt=COUNTER):
        with pytest.raises(WireError):
            decode_message(rt, line)

    def bad_op(self, kind, body):
        rt = replica_type(kind)
        self.bad('{"v":1,"kind":"%s","sender":0,"prefix_len":0,'
                 '"ops":[{"uid":{"site":0,"seq":1},%s}]}' % (rt.name, body), rt)

    def test_not_json(self):
        self.bad(b"pffft")

    def test_not_utf8(self):
        self.bad(b'\xff\xfe{"v":1}')

    def test_not_object(self):
        self.bad(b"[1,2]")

    def test_wrong_version(self):
        self.bad(b'{"v":2,"resync":true}')

    def test_missing_version(self):
        self.bad(b'{"resync":true}')

    def test_resync_false(self):
        self.bad(b'{"v":1,"resync":false}')

    def test_unknown_frame(self):
        self.bad(b'{"v":1,"goodbye":0}')

    def test_nested_too_deep(self):
        self.bad(b'{"v":1,"x":' + b"[" * 100000)

    def test_bool_is_not_int(self):
        self.bad(b'{"v":1,"hello":true,"kind":"counter","known_len":0}')

    @pytest.mark.parametrize("inc", ["true", "1.0", '"7"', "null"])
    def test_incarnation_must_be_an_integer(self, inc):
        self.bad('{"v":1,"hello":0,"kind":"counter","known_len":0,"incarnation":%s}' % inc)

    @pytest.mark.parametrize("v", ["true", "1.0"])
    def test_version_must_be_integer_1(self, v):
        self.bad('{"v":%s,"resync":true}' % v)

    @pytest.mark.parametrize("kind,body", [
        ("counter", '"type":"Incr","n":true'),
        ("addmult", '"type":"Add","n":true'),
        ("text", '"type":"Ins","k":true,"s":"a"'),
        ("text", '"type":"Del","k":true,"n":1'),
        ("text", '"type":"Del","k":0,"n":true'),
        ("queue", '"type":"EnqAt","k":false,"x":"job"'),
        ("socialpost", '"type":"At","i":true,"op":{"type":"Add","x":"c"}'),
    ], ids=["counter-n", "addmult-n", "text-ins-k", "text-del-k", "text-del-n",
            "queue-k", "tuple-i"])
    def test_bool_is_not_int_in_op(self, kind, body):
        self.bad_op(kind, body)

    @pytest.mark.parametrize("kind,body", [
        ("counter", '"type":"Incr","n":0'),
        ("counter", '"type":"Decr","n":18446744073709551616'),
        ("counter", '"type":"Incr","n":-18446744073709551616'),
        ("text", '"type":"Ins","k":-1,"s":"a"'),
        ("text", '"type":"Ins","k":0,"s":""'),
        ("text", '"type":"Del","k":-1,"n":1'),
        ("text", '"type":"Del","k":0,"n":0'),
        ("queue", '"type":"EnqAt","k":-3,"x":"job"'),
        ("map<text>", '"type":"Upd","key":"a","patch":[{"type":"Del","k":2,"n":-1}]'),
        ("addmult", '"type":"Mult","n":1'),
        ("socialmedia", '"type":"Upd","key":"p1","patch":[]'),
    ], ids=["counter-zero", "counter-over", "counter-under", "text-ins-k", "text-ins-empty",
            "text-del-k", "text-del-n", "queue-k", "map-inner", "addmult-mult-one",
            "map-empty-patch"])
    def test_op_no_site_makes(self, kind, body):
        # No site makes any of these ops, so the codec refuses them: a peer
        # that sends one loses its link, and the receiver stays up.
        self.bad_op(kind, body)

    def test_bad_uid(self):
        self.bad(b'{"v":1,"kind":"counter","sender":0,"prefix_len":0,'
                 b'"ops":[{"uid":{"site":"x","seq":1},"type":"Incr","n":1}]}')

    def test_bool_uid(self):
        self.bad(b'{"v":1,"kind":"counter","sender":0,"prefix_len":0,'
                 b'"ops":[{"uid":{"site":true,"seq":1},"type":"Incr","n":1}]}')

    def test_bool_uid_in_lww_drop_set(self):
        self.bad(b'{"v":1,"kind":"lww","sender":0,"prefix_len":0,'
                 b'"ops":[{"uid":{"site":0,"seq":1},"type":"WriteExcept","s":"a",'
                 b'"drop":[{"site":true,"seq":1}]}]}', replica_type("lww"))

    def test_lww_keep_set_from_before_the_drop_set(self):
        self.bad(b'{"v":1,"kind":"lww","sender":0,"prefix_len":0,'
                 b'"ops":[{"uid":{"site":0,"seq":1},"type":"WriteExcept","s":"a",'
                 b'"keep":[]}]}', replica_type("lww"))

    def test_negative_prefix_len(self):
        self.bad(b'{"v":1,"kind":"counter","sender":0,"prefix_len":-2,"ops":['
                 b'{"uid":{"site":0,"seq":1},"type":"Incr","n":1},'
                 b'{"uid":{"site":0,"seq":2},"type":"Incr","n":1},'
                 b'{"uid":{"site":0,"seq":3},"type":"Incr","n":1}]}')

    def test_negative_known_len(self):
        self.bad(b'{"v":1,"hello":0,"kind":"counter","known_len":-2}')

    def test_bool_uid_as_deq_target(self):
        self.bad(b'{"v":1,"kind":"queue","sender":0,"prefix_len":0,'
                 b'"ops":[{"uid":{"site":0,"seq":1},"type":"Deq",'
                 b'"target":{"site":1,"seq":false}}]}', replica_type("queue"))

    def test_bad_body(self):
        self.bad(b'{"v":1,"kind":"counter","sender":0,"prefix_len":0,'
                 b'"ops":[{"uid":{"site":0,"seq":1},"type":"Frob","n":1}]}')

    def test_ops_not_list(self):
        self.bad(b'{"v":1,"kind":"counter","sender":0,"prefix_len":0,"ops":3}')

    def test_encode_unknown_message(self):
        with pytest.raises(WireError):
            encode_message(COUNTER, object())


def test_every_uid_has_one_wire_form():
    # The op codec writes ``encode_uid`` out; the lww and queue bodies call it.
    uid = OpId(3, 2**63 + 5)
    assert encode_uid(uid) == {"site": 3, "seq": 2**63 + 5}
    assert decode_uid(encode_uid(uid)) == uid
    assert encode_op(COUNTER, COUNTER.op(uid, "Incr", 1))["uid"] == encode_uid(uid)
    assert replica_type("lww").encode_body(("WriteExcept", "v", {uid}))["drop"] == [encode_uid(uid)]
    assert replica_type("queue").encode_body(("Deq", uid))["target"] == encode_uid(uid)


def test_decode_op_requires_object():
    with pytest.raises(WireError):
        decode_op(COUNTER, "nope")


def _python_calls(fn, *args):
    """``fn(*args)`` and the names of the Python functions it called."""
    calls = []

    def count(f, event, arg):
        if event == "call":
            calls.append(f.f_code.co_name)

    sys.setprofile(count)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, calls


def test_codec_makes_few_python_calls():
    """One 1-op counter Increment decodes and encodes in a fixed handful of
    Python-level calls: no encoder built per frame, no helper per field."""
    msg = Increment("counter", 0, 5, (COUNTER.op(OpId(0, 6), "Incr", 1),))
    frame = encode_message(COUNTER, msg)
    decoded, decode_calls = _python_calls(decode_message, COUNTER, frame)
    encoded, encode_calls = _python_calls(encode_message, COUNTER, msg)
    assert decoded == msg and encoded == frame
    assert len(decode_calls) <= 9, decode_calls
    assert len(encode_calls) <= 6, encode_calls

import asyncio
import json

import pytest

from ccr.agent import Agent, AgentConfig
from ccr.protocol import SiteState
from ccr.repl import ReplCommand, ReplError, parse_line, repl_eval
from ccr.replicas import replica_type

COUNTER = replica_type("counter")


def evl(state, line):
    return repl_eval(state, parse_line(state.rt, line))


class TestParseControl:
    def test_bare_verbs(self):
        for verb in ("peers", "show", "history", "quit"):
            assert parse_line(COUNTER, verb) == ReplCommand(verb)

    def test_connect_addr(self):
        cmd = parse_line(COUNTER, "connect 10.0.0.7:9001")
        assert cmd == ReplCommand("connect", ("10.0.0.7", 9001))

    def test_disconnect_addr(self):
        assert parse_line(replica_type("text"), "disconnect localhost:80").args == ("localhost", 80)

    def test_sync_forms(self):
        assert parse_line(COUNTER, "sync").args == (None,)
        assert parse_line(COUNTER, "sync 30").args == (30,)
        assert parse_line(COUNTER, "sync 0").args == (0,)

    def test_blank_and_comment(self):
        assert parse_line(COUNTER, "").verb == "noop"
        assert parse_line(COUNTER, "   # just a note").verb == "noop"

    @pytest.mark.parametrize("line", [
        "connect nocolon",
        "connect a:b:notaport",
        "show me",
        "sync 1 2",
        "sync -1",
        "quit now",
    ])
    def test_rejects(self, line):
        with pytest.raises(ReplError):
            parse_line(COUNTER, line)


class TestParseIntents:
    @pytest.mark.parametrize("kind,line,intent", [
        ("counter", "incr 2", ("incr", 2)),
        ("counter", "decr 1", ("decr", 1)),
        ("addmult", "add -3", ("add", -3)),
        ("addmult", "mult 4", ("mult", 4)),
        ("lww", 'write "two words"', ("write", "two words")),
        ("eset", "add x", ("add", "x")),
        ("eset", 'rem "x"', ("rem", "x")),
        ("queue", "enq job1", ("enq", "job1")),
        ("queue", "deq", ("deq",)),
        ("text", 'ins 0 "hi"', ("ins", 0, "hi")),
        ("text", "del 2 3", ("del", 2, 3)),
        ("socialmedia", 'post p1 write "Title"', ("upd", "p1", ("at", 0, ("write", "Title")))),
        ("socialmedia", "post p1 comment nice", ("upd", "p1", ("at", 1, ("add", "nice")))),
        ("socialmedia", "post p2 like", ("upd", "p2", ("at", 2, ("incr", 1)))),
        ("socialmedia", "post p2 dislike", ("upd", "p2", ("at", 3, ("incr", 1)))),
        ("socialmedia", "upd p2 like", ("upd", "p2", ("at", 2, ("incr", 1)))),
        ("socialpost", "comment nice", ("at", 1, ("add", "nice"))),
        ("tuple<counter,text>", "at 0 incr 1", ("at", 0, ("incr", 1))),
        ("tuple<counter,text>", 'at 1 ins 0 "hi"', ("at", 1, ("ins", 0, "hi"))),
        ("tuple<queue,eset>", "at 0 deq", ("at", 0, ("deq",))),
        ("map<text>", 'upd k ins 0 "a b"', ("upd", "k", ("ins", 0, "a b"))),
        ("map<map<counter>>", "upd a upd b decr 3", ("upd", "a", ("upd", "b", ("decr", 3)))),
    ])
    def test_intent(self, kind, line, intent):
        cmd = parse_line(replica_type(kind), line)
        assert cmd.verb == "update" and cmd.intent == intent

    def test_structural_map_name_same_grammar(self):
        rt = replica_type(replica_type("socialmedia").name)
        assert parse_line(rt, "post p1 like").intent == ("upd", "p1", ("at", 2, ("incr", 1)))

    @pytest.mark.parametrize("kind,line", [
        ("counter", "add 1"),        # addmult verb on a counter
        ("text", "incr 1"),
        ("counter", "incr x"),
        ("text", "ins zero hi"),
        ("queue", "enq"),
        ("socialmedia", "post p1"),
        ("socialmedia", "post p1 frob"),
        ("socialmedia", "post p1 like extra"),
        ("eset", 'add "unterminated'),
        ("tuple<counter,text>", "at 2 incr 1"),   # index out of range
        ("tuple<counter,text>", "at x incr 1"),   # index not an integer
        ("tuple<counter,text>", "at 0"),          # no inner command
        ("tuple<counter,text>", "at"),
        ("tuple<counter,text>", "at 0 frob"),     # unknown inner verb
        ("tuple<counter,text>", "at 1 ins 0"),    # inner arity
        ("map<text>", "upd k"),
        ("map<text>", "upd"),
        ("map<text>", "upd k frob"),
        ("map<text>", "post k ins 0 a"),          # post names posts only
    ])
    def test_rejects(self, kind, line):
        with pytest.raises(ReplError):
            parse_line(replica_type(kind), line)


class TestEval:
    def test_text_session(self):
        s = SiteState(0, replica_type("text"))
        assert evl(s, 'ins 0 "hi"') == ("", [])
        assert evl(s, "show")[0] == '"hi"'
        assert evl(s, "history")[0] == "(0,1) Ins 0 'hi'"

    def test_second_add_has_no_effect(self):
        s = SiteState(0, replica_type("eset"))
        assert evl(s, 'add "x"')[0] == ""
        assert evl(s, 'add "x"')[0] == "no effect"
        assert len(s.history) == 1

    def test_fresh_post_autovivifies(self):
        s = SiteState(0, replica_type("socialmedia"))
        assert evl(s, "post p1 like")[0] == ""
        assert evl(s, "show")[0] == '{"p1":[[],[],1,0]}'

    def test_intent_rejection_surfaced(self):
        s = SiteState(0, replica_type("text"))
        out, msgs = evl(s, "del 5 1")
        assert out and "5" in out and msgs == []
        assert s.history == ()

    def test_parse_error_surfaced(self, capsys):
        a = Agent(AgentConfig(site=0, kind="counter", listen=("127.0.0.1", 0)))
        assert asyncio.run(a._exec("frobnicate")) is False
        assert capsys.readouterr().out.startswith("parse error:")

    def test_peers_listing(self):
        s = SiteState(0, replica_type("counter"))
        assert evl(s, "peers")[0] == "(none)"
        s.connect_peer(2)
        s.local_update(("incr", 1))
        out, _ = evl(s, "peers")
        assert "site 2" in out and "received 0" in out

    def test_stats_one_json_line(self):
        s = SiteState(0, replica_type("counter"))
        assert parse_line(COUNTER, "stats") == ReplCommand("stats")
        with pytest.raises(ReplError):
            parse_line(COUNTER, "stats now")
        s.connect_peer(1)
        s.request_resync(1)
        out, msgs = evl(s, "stats")
        assert json.loads(out) == {"resync_reqs": 1, "fulls_served": 0, "stale_dropped": 0}
        # Byte-exact: the counters keep their order.
        assert out == '{"resync_reqs":1,"fulls_served":0,"stale_dropped":0}'
        assert "\n" not in out and msgs == []

    def test_history_empty(self):
        s = SiteState(0, replica_type("counter"))
        assert evl(s, "history")[0] == "(empty)"

    def test_update_broadcasts_to_peers(self):
        s = SiteState(0, replica_type("counter"))
        s.connect_peer(1)
        out, msgs = evl(s, "incr 2")
        assert out == ""
        assert [peer for peer, _ in msgs] == [1]

    def test_transport_verbs_need_agent(self):
        s = SiteState(0, replica_type("counter"))
        assert "requires a running agent" in evl(s, "connect h:1")[0]
        assert "requires a running agent" in evl(s, "sync")[0]

    def test_quit(self):
        s = SiteState(0, replica_type("counter"))
        assert evl(s, "quit")[0] == "bye"

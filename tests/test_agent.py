import asyncio
import logging
import socket
import subprocess
import sys
import textwrap
from collections import deque

import pytest

import ccr.agent as agent_mod
import ccr.repl as repl_mod
from ccr.agent import Agent, AgentConfig
from ccr.core import OpId
from ccr.protocol import Full, Hello, Increment, ResyncReq, SiteState
from ccr.repl import parse_addr
from ccr.replicas import replica_type
from ccr.wire import decode_message, encode_message
from support import AGENT, AGENT_ENV, count_calls


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def wait_port(port, timeout=10.0):
    import time
    deadline = time.monotonic() + timeout
    while True:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=0.25).close()
            return
        except OSError:
            if time.monotonic() > deadline:
                raise AssertionError(f"port {port} never came up")
            time.sleep(0.02)


def addr(port):
    return ("127.0.0.1", port)


async def wait_for(predicate, timeout=5.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(0.02)


class RawPeer:
    """A site played by the test over a bare TCP connection."""

    def __init__(self, kind, site):
        self.rt = replica_type(kind)
        self.site = site
        self.seen = []  # uids of the ops in every frame read, in order
        self.frames = 0

    async def connect(self, port, rcvbuf=None):
        """Connect and exchange Hellos; ``rcvbuf`` shrinks the socket's
        receive buffer, so a peer that never reads fills it soon."""
        sock = socket.socket()
        if rcvbuf is not None:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        sock.connect(("127.0.0.1", port))
        self.reader, self.writer = await asyncio.open_connection(sock=sock)
        self.writer.write(encode_message(self.rt, Hello(self.site, self.rt.name, 0)))
        assert isinstance(decode_message(self.rt, await self.reader.readline()), Hello)
        return self

    def frames_of(self, bodies, start=0):
        """One single-op Increment frame per body, in stream order from
        position ``start``."""
        return b"".join(
            encode_message(self.rt, Increment(self.rt.name, self.site, i,
                                              (self.rt.op(OpId(self.site, i + 1), *body),)))
            for i, body in enumerate(bodies, start))

    async def read_until(self, n, timeout=5.0):
        """Read frames until ``n`` op uids have come back."""
        async def loop():
            while len(self.seen) < n:
                msg = decode_message(self.rt, await self.reader.readline())
                self.frames += 1
                self.seen.extend(op.uid for op in msg.ops)
        await asyncio.wait_for(loop(), timeout)


def test_parse_addr():
    assert parse_addr("0.0.0.0:80") == ("0.0.0.0", 80)
    with pytest.raises(ValueError):
        parse_addr("80")
    with pytest.raises(ValueError):
        parse_addr("host:pt")
    assert parse_addr("h:0") == ("h", 0) and parse_addr("h:65535") == ("h", 65535)
    for port in ("65536", "99999", "-1", "+80", "²"):
        with pytest.raises(ValueError, match="bad port"):
            parse_addr(f"h:{port}")


def test_exec_parses_each_line_once(monkeypatch):
    lines = []
    real = repl_mod.parse_line

    def counting(rt, line):
        lines.append(line)
        return real(rt, line)

    monkeypatch.setattr(repl_mod, "parse_line", counting)
    monkeypatch.setattr(agent_mod, "parse_line", counting)
    a = Agent(AgentConfig(site=0, kind="counter", listen=addr(0)))
    assert asyncio.run(a._exec("incr 2")) is False
    assert lines == ["incr 2"] and a.state.current == 2


def test_reused_uid_is_fatal():
    a = Agent(AgentConfig(site=0, kind="counter", listen=addr(0)))
    assert asyncio.run(a._exec("incr 1")) is False
    a.state.next_seq -= 1
    assert asyncio.run(a._exec("incr 1")) is True
    assert a.exit_code == 3 and a.state.faulted is not None


def test_restarted_site_that_edits_before_connecting_converges():
    """Site 1 makes ``incr 3`` and syncs; the site a new process for site 1
    builds makes ``incr 4`` before it connects.  Its op is numbered from a
    fresh base, so neither side cancels the other's by uid."""
    def site(n):  # the site of a new agent process, which is never started
        return Agent(AgentConfig(site=n, kind="counter", listen=addr(0))).state

    def deliver(src, out):
        pending = deque((src, dst, msg) for dst, msg in out)
        while pending:
            src, dst, msg = pending.popleft()
            pending.extend((dst, nxt, m) for nxt, m in sites[dst].handle_message(src, msg))

    sites = {0: site(0), 1: site(1)}
    sites[0].connect_peer(1)
    sites[1].connect_peer(0)
    deliver(1, sites[1].local_update(("incr", 3)))
    assert sites[0].current == 3
    sites[1] = site(1)
    assert sites[1].local_update(("incr", 4)) == []  # no peer yet
    # It dials site 0: Hellos both ways, its request, then its backlog.
    sites[0].handle_message(1, Hello(1, "counter", 0))
    sites[1].handle_message(0, Hello(0, "counter", 0))
    deliver(1, sites[1].request_resync(0) + [(0, sites[1].make_increment(0))])
    assert sites[0].digest() == sites[1].digest() == "7"
    for s in sites.values():
        s.check_invariants()


class TestInProcess:
    def test_pair_converges_and_resyncs(self):
        async def flow():
            pa, pb = free_port(), free_port()
            a = Agent(AgentConfig(site=0, kind="eset", listen=addr(pa)))
            b = Agent(AgentConfig(site=1, kind="eset", listen=addr(pb),
                                  connect=(addr(pa),)))
            assert await a.start() is None
            assert await b.start() is None
            try:
                await a._exec("add x")
                await b._exec("add y")
                assert await a._sync(5) and await b._sync(5)
                assert a.state.digest() == b.state.digest() == '["x","y"]'
            finally:
                await a._shutdown()
                await b._shutdown()

        asyncio.run(flow())

    def test_restart_pulls_history(self):
        async def flow():
            pa = free_port()
            a = Agent(AgentConfig(site=0, kind="text", listen=addr(pa)))
            assert await a.start() is None
            b = Agent(AgentConfig(site=1, kind="text", listen=addr(free_port()),
                                  connect=(addr(pa),)))
            assert await b.start() is None
            try:
                await a._exec('ins 0 "ab"')
                await b._exec('ins 0 "Z"')
                assert await b._sync(5) and await a._sync(5)
                before = a.state.digest()

                # hard stop B, keep editing at A, then a fresh incarnation
                # of site 1 dials in with nothing and must catch up
                await b._shutdown()
                await a._exec('ins 3 "!"')
                b2 = Agent(AgentConfig(site=1, kind="text", listen=addr(free_port()),
                                       connect=(addr(pa),)))
                assert await b2.start() is None
                try:
                    assert await b2._sync(5) and await a._sync(5)
                    assert b2.state.digest() == a.state.digest() != before
                    # site 1's sequence numbers must not restart
                    await b2._exec('ins 0 "q"')
                    assert await b2._sync(5)
                    assert a.state.digest() == b2.state.digest()
                finally:
                    await b2._shutdown()
            finally:
                await a._shutdown()

        asyncio.run(flow())

    def test_dialer_sends_its_backlog(self):
        async def flow():
            a = Agent(AgentConfig(site=0, kind="counter", listen=addr(free_port())))
            pb = free_port()
            b = Agent(AgentConfig(site=1, kind="counter", listen=addr(pb)))
            assert await a.start() is None
            assert await b.start() is None
            try:
                await a._exec("incr 5")
                await a._exec(f"connect 127.0.0.1:{pb}")
                # No local change follows the dial: the dial itself sends
                # what the peer lacks.
                assert await a._sync(2) and await b._sync(2)
                assert b.state.digest() == a.state.digest() == "5"
                assert a.state.peers[1].sent_len == len(a.state.history) == 1
            finally:
                await a._shutdown()
                await b._shutdown()

        asyncio.run(flow())

    def test_redial_keeps_the_cursor_and_restart_resets_it(self):
        async def flow():
            pa = free_port()
            a = Agent(AgentConfig(site=0, kind="counter", listen=addr(pa)))
            b = Agent(AgentConfig(site=1, kind="counter", listen=addr(free_port()),
                                  connect=(addr(pa),)))
            assert await a.start() is None
            assert await b.start() is None
            try:
                await b._exec("incr 2")
                assert await b._sync(5) and await a._sync(5)
                assert a.state.peers[1].incarnation == b.incarnation
                # The same process dials again: a keeps reading its stream
                # where it was.
                await b._exec(f"disconnect 127.0.0.1:{pa}")
                await wait_for(lambda: 1 not in a.links)
                await b._exec(f"connect 127.0.0.1:{pa}")
                await wait_for(lambda: 1 in a.links)
                assert a.state.peers[1].recv_len == 1
                await b._shutdown()
                # A new process for site 1 is a new incarnation: its stream
                # starts over.
                b2 = Agent(AgentConfig(site=1, kind="counter", listen=addr(free_port())))
                assert b2.incarnation != b.incarnation
                assert await b2.start() is None
                try:
                    await b2._exec(f"connect 127.0.0.1:{pa}")
                    await wait_for(lambda: a.state.peers[1].incarnation == b2.incarnation)
                    assert await b2._sync(5) and await a._sync(5)
                    assert b2.state.digest() == a.state.digest() == "2"
                    assert a.state.peers[1].recv_len == len(b2.state.history) == 1
                finally:
                    await b2._shutdown()
            finally:
                await a._shutdown()
                await b._shutdown()

        asyncio.run(flow())

    def test_restarted_agent_edits_during_its_catch_up(self):
        async def flow():
            pa = free_port()
            a = Agent(AgentConfig(site=0, kind="counter", listen=addr(pa)))
            b = Agent(AgentConfig(site=1, kind="counter", listen=addr(free_port()),
                                  connect=(addr(pa),)))
            assert await a.start() is None
            assert await b.start() is None
            try:
                await b._exec("incr 3")
                assert await b._sync(5) and await a._sync(5)
                await b._shutdown()
                # A new process for site 1 edits before its dial's Full has
                # landed; its ops are numbered from a fresh base, so the
                # edit reuses no uid of the old incarnation's ops.
                b2 = Agent(AgentConfig(site=1, kind="counter", listen=addr(free_port()),
                                       connect=(addr(pa),)))
                assert await b2.start() is None
                try:
                    assert b2.state.peers[0].resync_pending
                    await b2._exec("incr 4")
                    assert await b2._sync(5) and await a._sync(5)
                    assert a.state.digest() == b2.state.digest() == "7"
                finally:
                    await b2._shutdown()
            finally:
                await a._shutdown()
                await b._shutdown()

        asyncio.run(flow())

    @pytest.mark.parametrize("dialer", ["restarted", "survivor"])
    def test_restarted_agent_that_edits_before_any_link_converges(self, dialer):
        """A new process for site 1 edits before it has a link, then dials
        the survivor or is dialed by it (an acceptor asks for nothing).
        Either way its op keeps a uid of its own, and both reach 7."""
        async def flow():
            pa, pb = free_port(), free_port()
            a = Agent(AgentConfig(site=0, kind="counter", listen=addr(pa)))
            b = Agent(AgentConfig(site=1, kind="counter", listen=addr(free_port()),
                                  connect=(addr(pa),)))
            b2 = Agent(AgentConfig(site=1, kind="counter", listen=addr(pb)))
            assert await a.start() is None
            assert await b.start() is None
            try:
                await b._exec("incr 3")
                assert await b._sync(5) and await a._sync(5)
                await b._shutdown()
                assert await b2.start() is None
                await b2._exec("incr 4")
                if dialer == "restarted":
                    await b2._exec(f"connect 127.0.0.1:{pa}")
                else:
                    await a._exec(f"connect 127.0.0.1:{pb}")
                await wait_for(lambda: 0 in b2.links and
                               a.state.peers[1].incarnation == b2.incarnation)
                assert await b2._sync(5) and await a._sync(5)
                assert a.state.digest() == b2.state.digest() == "7"
            finally:
                await a._shutdown()
                await b._shutdown()
                await b2._shutdown()

        asyncio.run(flow())

    def test_kind_mismatch_refused(self):
        async def flow():
            pa = free_port()
            a = Agent(AgentConfig(site=0, kind="counter", listen=addr(pa)))
            assert await a.start() is None
            b = Agent(AgentConfig(site=1, kind="text", listen=addr(free_port())))
            assert await b.start() is None
            try:
                with pytest.raises(Exception):
                    await b._dial(addr(pa))
                assert not b.links and not a.links
                assert a.exit_code == 0  # refusal is not a fault
            finally:
                await a._shutdown()
                await b._shutdown()

        asyncio.run(flow())

    def test_site_collision_refused(self):
        async def flow():
            pa = free_port()
            a = Agent(AgentConfig(site=0, kind="counter", listen=addr(pa)))
            assert await a.start() is None
            b = Agent(AgentConfig(site=0, kind="counter", listen=addr(free_port())))
            assert await b.start() is None
            try:
                with pytest.raises(Exception):
                    await b._dial(addr(pa))
                assert not a.links
            finally:
                await a._shutdown()
                await b._shutdown()

        asyncio.run(flow())

    def test_disconnect_command(self):
        async def flow():
            pa, pb = free_port(), free_port()
            a = Agent(AgentConfig(site=0, kind="counter", listen=addr(pa)))
            b = Agent(AgentConfig(site=1, kind="counter", listen=addr(pb),
                                  connect=(addr(pa),)))
            assert await a.start() is None
            assert await b.start() is None
            try:
                await wait_for(lambda: 0 in b.links)
                await b._exec(f"disconnect 127.0.0.1:{pa}")
                assert 0 not in b.links
                await wait_for(lambda: 1 not in a.links)
                # edits while disconnected flow after reconnecting
                await a._exec("incr 7")
                await b._exec(f"connect 127.0.0.1:{pa}")
                assert await b._sync(5)
                assert b.state.digest() == "7"
            finally:
                await a._shutdown()
                await b._shutdown()

        asyncio.run(flow())

    def test_three_sites_chain(self):
        async def flow():
            ports = [free_port() for _ in range(3)]
            # 0 <- 1 -> 2: middle site dials both ends
            a = Agent(AgentConfig(site=0, kind="counter", listen=addr(ports[0])))
            c = Agent(AgentConfig(site=2, kind="counter", listen=addr(ports[2])))
            assert await a.start() is None
            assert await c.start() is None
            b = Agent(AgentConfig(site=1, kind="counter", listen=addr(ports[1]),
                                  connect=(addr(ports[0]), addr(ports[2]))))
            assert await b.start() is None
            try:
                await a._exec("incr 1")
                await c._exec("incr 10")
                for site in (a, b, c):
                    assert await site._sync(5)
                digests = {s.state.digest() for s in (a, b, c)}
                assert digests == {"11"}
            finally:
                await a._shutdown()
                await b._shutdown()
                await c._shutdown()

        asyncio.run(flow())

    def test_long_history_catches_up_in_one_frame(self):
        async def flow():
            pa = free_port()
            a = Agent(AgentConfig(site=0, kind="counter", listen=addr(pa)))
            for _ in range(5000):
                a.state.local_update(("incr", 1))
            assert await a.start() is None
            # The Full that answers the dialer's resync carries all 5,000 ops
            # in one line of about 250 KB.
            b = Agent(AgentConfig(site=1, kind="counter", listen=addr(free_port()),
                                  connect=(addr(pa),)))
            assert await b.start() is None
            try:
                await wait_for(lambda: len(b.state.history) == 5000, timeout=20)
                assert await b._sync(10) and await a._sync(10)
                assert a.state.digest() == b.state.digest() == "5000"
                assert 1 in a.links and 0 in b.links
            finally:
                await a._shutdown()
                await b._shutdown()

        asyncio.run(flow())

    def test_long_catch_up_keeps_the_survivor_serving(self):
        # The survivor integrates the joiner's echo of its 40,000-op Full
        # in time linear in it, so the whole catch-up ends within 5 s.  The
        # agents share one event loop: while the survivor integrates, the
        # joiner's barrier cannot run either.
        async def flow():
            loop = asyncio.get_running_loop()
            pa = free_port()
            a = Agent(AgentConfig(site=0, kind="counter", listen=addr(pa)))
            for _ in range(40_000):
                a.state.local_update(("incr", 1))
            assert await a.start() is None
            start = loop.time()
            b = Agent(AgentConfig(site=1, kind="counter", listen=addr(free_port()),
                                  connect=(addr(pa),)))
            assert await b.start() is None
            try:
                assert await b._sync(5) and await a._sync(5)
                assert loop.time() - start < 5
                assert a.state.digest() == b.state.digest() == "40000"
            finally:
                await a._shutdown()
                await b._shutdown()

        asyncio.run(flow())

    def test_overlong_frame_drops_only_that_link(self, monkeypatch, caplog):
        monkeypatch.setattr(agent_mod, "FRAME_LIMIT", 4096)

        async def flow():
            pa = free_port()
            a = Agent(AgentConfig(site=0, kind="counter", listen=addr(pa)))
            b = Agent(AgentConfig(site=1, kind="counter", listen=addr(free_port()),
                                  connect=(addr(pa),)))
            assert await a.start() is None
            assert await b.start() is None
            try:
                await wait_for(lambda: 1 in a.links)
                b.links[0].writer.write(b"x" * 5000 + b"\n")
                await wait_for(lambda: 1 not in a.links)
                assert a.exit_code == 0 and not a._stopping.is_set()
                # The site keeps serving: a new link works.
                await wait_for(lambda: 0 not in b.links)
                await b._exec(f"connect 127.0.0.1:{pa}")
                await b._exec("incr 2")
                assert await b._sync(5) and await a._sync(5)
                assert a.state.digest() == "2"
            finally:
                await a._shutdown()
                await b._shutdown()

        with caplog.at_level(logging.WARNING, logger="ccr.agent"):
            asyncio.run(flow())
        assert any("dropping site 1" in r.getMessage() for r in caplog.records)

    def test_overlong_reply_to_a_dial_fails_the_dial(self, monkeypatch, capsys):
        monkeypatch.setattr(agent_mod, "FRAME_LIMIT", 4096)

        async def flow():
            a = Agent(AgentConfig(site=0, kind="counter", listen=addr(free_port())))
            assert await a.start() is None
            rest = asyncio.get_running_loop().create_future()

            async def listener(reader, writer):
                await reader.readline()  # the dialer's Hello
                writer.write(b"x" * 5000 + b"\n")
                rest.set_result(await reader.read())
                writer.close()

            server = await asyncio.start_server(listener, "127.0.0.1", 0)
            try:
                port = server.sockets[0].getsockname()[1]
                assert await a._exec(f"connect 127.0.0.1:{port}") is False
                assert "connect failed: frame longer than 4096 bytes" in capsys.readouterr().out
                assert await asyncio.wait_for(rest, 1.0) == b""  # the dialer closed
                assert not a.links and a.exit_code == 0 and not a._stopping.is_set()
            finally:
                await a._shutdown()
                server.close()

        asyncio.run(flow())

    def test_overlong_first_line_refuses_the_connection(self, monkeypatch, caplog):
        monkeypatch.setattr(agent_mod, "FRAME_LIMIT", 4096)

        async def flow():
            pa = free_port()
            a = Agent(AgentConfig(site=0, kind="counter", listen=addr(pa)))
            assert await a.start() is None
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", pa)
                writer.write(b"x" * 5000 + b"\n")
                assert await asyncio.wait_for(reader.read(), 1.0) == b""  # refused
                writer.close()
                # The site keeps serving: a new link works.
                x = await RawPeer("counter", 1).connect(pa)
                x.writer.write(x.frames_of([("Incr", 3)]))
                await wait_for(lambda: a.state.digest() == "3")
                assert a.exit_code == 0 and not a._stopping.is_set()
                x.writer.close()
            finally:
                await a._shutdown()

        with caplog.at_level(logging.WARNING):
            asyncio.run(flow())
        refused = [r for r in caplog.records if "refused connection" in r.getMessage()]
        assert len(refused) == 1 and "frame longer than 4096 bytes" in refused[0].getMessage()
        assert not any(r.exc_info for r in caplog.records)

    @pytest.mark.parametrize("backlog", [0, 2])
    def test_dialer_opening_frames(self, backlog):
        """A dialer sends its Hello, its resync request, then its backlog as
        one increment from position 0, and nothing more."""
        async def flow():
            a = Agent(AgentConfig(site=0, kind="counter", listen=addr(free_port())))
            assert await a.start() is None
            for _ in range(backlog):
                await a._exec("incr 1")
            got = asyncio.Queue()

            async def listener(reader, writer):
                await got.put(decode_message(a.rt, await reader.readline()))
                writer.write(encode_message(a.rt, Hello(1, "counter", 0)))
                while line := await reader.readline():
                    await got.put(decode_message(a.rt, line))

            server = await asyncio.start_server(listener, "127.0.0.1", 0)
            try:
                await a._exec(f"connect 127.0.0.1:{server.sockets[0].getsockname()[1]}")
                assert await got.get() == Hello(0, "counter", 0, a.incarnation)
                assert type(await got.get()) is ResyncReq
                if backlog:
                    assert await got.get() == Increment("counter", 0, 0, tuple(a.state.history))
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(got.get(), 0.3)
            finally:
                await a._shutdown()
                server.close()

        asyncio.run(flow())

    @pytest.mark.parametrize("reply", [b"not json\n", b'{"v":1,"resync":true}\n'],
                             ids=["not-json", "not-hello"])
    def test_failed_dial_closes_its_socket(self, reply, capsys, monkeypatch):
        # The test holds the dialer's streams, so the collector cannot close
        # the socket in the dialer's place.
        opened = []
        real = asyncio.open_connection

        async def holding(*args, **kwargs):
            opened.append(await real(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(asyncio, "open_connection", holding)

        async def flow():
            a = Agent(AgentConfig(site=0, kind="counter", listen=addr(free_port())))
            assert await a.start() is None
            rest = asyncio.get_running_loop().create_future()

            async def listener(reader, writer):
                await reader.readline()  # the dialer's Hello
                writer.write(reply)
                rest.set_result(await reader.read())
                writer.close()

            server = await asyncio.start_server(listener, "127.0.0.1", 0)
            try:
                await a._exec(f"connect 127.0.0.1:{server.sockets[0].getsockname()[1]}")
                assert "connect failed" in capsys.readouterr().out
                assert await asyncio.wait_for(rest, 1.0) == b""  # the dialer closed
                assert opened[0][1].is_closing() and not a.links
            finally:
                await a._shutdown()
                server.close()

        asyncio.run(flow())

    def test_dial_resync_is_counted_and_cleared(self, capsys):
        async def flow():
            pa = free_port()
            a = Agent(AgentConfig(site=0, kind="counter", listen=addr(pa)))
            for _ in range(3):
                a.state.local_update(("incr", 1))
            assert await a.start() is None
            b = Agent(AgentConfig(site=1, kind="counter", listen=addr(free_port()),
                                  connect=(addr(pa),)))
            assert await b.start() is None
            try:
                assert b.state.stats.resync_reqs == 1
                assert b.state.peers[0].resync_pending
                await wait_for(lambda: b.state.digest() == "3")
                assert not b.state.peers[0].resync_pending
                assert a.state.stats.fulls_served == 1
                capsys.readouterr()
                await b._exec("stats")
                assert capsys.readouterr().out == \
                    '{"resync_reqs":1,"fulls_served":0,"stale_dropped":0}\n'
            finally:
                await a._shutdown()
                await b._shutdown()

        asyncio.run(flow())


class TestBatchedFrames:
    """Frames are read in batches, and a batch sends each peer one
    increment at most."""

    def test_flood_in_one_write_echoes_in_fewer_frames(self):
        n = 200

        async def flow():
            pa = free_port()
            a = Agent(AgentConfig(site=0, kind="counter", listen=addr(pa)))
            assert await a.start() is None
            try:
                x = await RawPeer("counter", 1).connect(pa)
                x.writer.write(x.frames_of([("Incr", 1)] * n))
                await x.read_until(n)
                assert x.seen == [OpId(1, i + 1) for i in range(n)]
                assert x.frames < n
                assert a.state.digest() == str(n)
                x.writer.close()
            finally:
                await a._shutdown()

        asyncio.run(flow())

    def test_flood_in_one_write_is_integrated_per_read(self, monkeypatch):
        n = 200

        async def flow():
            pa = free_port()
            a = Agent(AgentConfig(site=0, kind="counter", listen=addr(pa)))
            assert await a.start() is None
            try:
                x = await RawPeer("counter", 1).connect(pa)
                calls = count_calls(monkeypatch, SiteState, "handle_message")
                x.writer.write(x.frames_of([("Incr", 1)] * n))
                await x.read_until(n)
                assert calls[0] <= 5
                assert x.seen == [OpId(1, i + 1) for i in range(n)]
                assert a.state.digest() == str(n)
                x.writer.close()
            finally:
                await a._shutdown()

        asyncio.run(flow())

    def test_one_read_of_resync_requests_gets_one_full(self):
        async def flow():
            pa = free_port()
            a = Agent(AgentConfig(site=0, kind="counter", listen=addr(pa)))
            assert await a.start() is None
            try:
                for _ in range(50):
                    a.state.local_update(("incr", 1))
                x = await RawPeer("counter", 1).connect(pa)
                # Many requests at once, then an op that marks their end;
                # x never reads the Fulls.
                reqs = encode_message(x.rt, ResyncReq()) * 2000
                x.writer.write(reqs + x.frames_of([("Incr", 1)]))
                await wait_for(lambda: a.state.digest() == "51")
                assert 1 <= a.state.stats.fulls_served <= 10
                x.writer.close()
            finally:
                await a._shutdown()

        asyncio.run(flow())

    def test_gap_inside_a_read_resyncs_once(self):
        async def flow():
            pa = free_port()
            a = Agent(AgentConfig(site=0, kind="counter", listen=addr(pa)))
            assert await a.start() is None
            try:
                x = await RawPeer("counter", 1).connect(pa)
                # ops 1-3, then ops 6-7 with 4-5 missing, in one write
                x.writer.write(x.frames_of([("Incr", 1)] * 3)
                               + x.frames_of([("Incr", 1)] * 2, start=5))
                echo = decode_message(x.rt, await x.reader.readline())
                assert [op.uid for op in echo.ops] == [OpId(1, i) for i in (1, 2, 3)]
                assert isinstance(decode_message(x.rt, await x.reader.readline()), ResyncReq)
                assert a.state.digest() == "3" and a.state.stats.resync_reqs == 1
                history = tuple(x.rt.op(OpId(1, i), "Incr", 1) for i in range(1, 8))
                x.writer.write(encode_message(x.rt, Full(sender=1, ops=history)))
                await x.read_until(4)
                assert x.seen == [OpId(1, i) for i in (4, 5, 6, 7)]
                assert a.state.digest() == "7"
                assert a.state.stats.resync_reqs == 1
                assert not a.state.peers[1].resync_pending
                x.writer.close()
            finally:
                await a._shutdown()

        asyncio.run(flow())

    def test_kind_change_inside_a_read_drops_the_link(self, caplog):
        async def flow():
            pa = free_port()
            a = Agent(AgentConfig(site=0, kind="counter", listen=addr(pa)))
            assert await a.start() is None
            try:
                x = await RawPeer("counter", 1).connect(pa)
                y = await RawPeer("counter", 2).connect(pa)
                await wait_for(lambda: 2 in a.links)
                op = x.rt.op(OpId(1, 2), "Incr", 1)
                other = encode_message(x.rt, Increment("text", 1, 1, (op,)))
                x.writer.write(x.frames_of([("Incr", 1)]) + other)
                await x.read_until(1)
                assert x.seen == [OpId(1, 1)]
                # The op committed before the bad frame reaches the other link.
                await y.read_until(1)
                assert y.seen == [OpId(1, 1)]
                await wait_for(lambda: 1 not in a.links)
                assert a.state.digest() == "1"
                assert a.exit_code == 0 and 2 in a.links
                x.writer.close()
                y.writer.close()
            finally:
                await a._shutdown()

        with caplog.at_level(logging.WARNING, logger="ccr.agent"):
            asyncio.run(flow())
        assert any("dropping site 1" in r.getMessage() and "kind mismatch" in r.getMessage()
                   for r in caplog.records)

    def test_hello_for_another_site_drops_the_link(self, caplog):
        # Peer x names site 2 in a second Hello: the agent drops x and
        # keeps reading y's stream where it stood.
        async def flow():
            pa = free_port()
            a = Agent(AgentConfig(site=0, kind="counter", listen=addr(pa)))
            assert await a.start() is None
            try:
                x = await RawPeer("counter", 1).connect(pa)
                y = await RawPeer("counter", 2).connect(pa)
                await wait_for(lambda: 2 in a.links)
                y.writer.write(y.frames_of([("Incr", 1)] * 3))
                await y.read_until(3)
                x.writer.write(encode_message(x.rt, Hello(2, "counter", 0, 999)))
                await wait_for(lambda: 1 not in a.links)
                assert a.state.peers[2].recv_len == 3
                y.writer.write(y.frames_of([("Incr", 1)], start=3))
                await y.read_until(4)
                assert y.seen == [OpId(2, i) for i in (1, 2, 3, 4)]
                assert a.state.digest() == "4" and a.state.stats.resync_reqs == 0
                assert a.exit_code == 0 and 2 in a.links
                x.writer.close()
                y.writer.close()
            finally:
                await a._shutdown()

        with caplog.at_level(logging.WARNING, logger="ccr.agent"):
            asyncio.run(flow())
        assert any("dropping site 1" in r.getMessage() and "Hello for site 2" in r.getMessage()
                   for r in caplog.records)

    def test_split_frames_decode(self):
        async def flow():
            pa = free_port()
            a = Agent(AgentConfig(site=0, kind="counter", listen=addr(pa)))
            assert await a.start() is None
            try:
                x = await RawPeer("counter", 1).connect(pa)
                data = x.frames_of([("Incr", 2), ("Incr", 3)])
                first = data.index(b"\n") + 1
                # the first frame across two writes, the second a byte at a time
                x.writer.write(data[:first // 2])
                await x.writer.drain()
                await asyncio.sleep(0.05)
                x.writer.write(data[first // 2:first])
                for i in range(first, len(data)):
                    x.writer.write(data[i:i + 1])
                    await x.writer.drain()
                    await asyncio.sleep(0)
                await x.read_until(2)
                assert a.state.digest() == "5"
                x.writer.close()
            finally:
                await a._shutdown()

        asyncio.run(flow())

    @pytest.mark.parametrize("bad", [b"not json\n", b'{"v":1,"x":' + b"[" * 100000 + b"\n"],
                             ids=["not-json", "nested-too-deep"])
    def test_bad_frame_after_good_ones(self, caplog, bad):
        async def flow():
            pa = free_port()
            a = Agent(AgentConfig(site=0, kind="counter", listen=addr(pa)))
            assert await a.start() is None
            try:
                x = await RawPeer("counter", 1).connect(pa)
                y = await RawPeer("counter", 2).connect(pa)
                await wait_for(lambda: 2 in a.links)
                x.writer.write(x.frames_of([("Incr", 1)] * 3) + bad)
                await wait_for(lambda: 1 not in a.links)
                await y.read_until(3)
                assert y.seen == [OpId(1, 1), OpId(1, 2), OpId(1, 3)]
                assert a.state.digest() == "3"
                assert a.exit_code == 0 and 2 in a.links
                x.writer.close()
                y.writer.close()
            finally:
                await a._shutdown()

        with caplog.at_level(logging.WARNING, logger="ccr.agent"):
            asyncio.run(flow())
        assert any("dropping site 1" in r.getMessage() for r in caplog.records)
        assert not any(r.exc_info for r in caplog.records)  # a warning, not a traceback

    def test_impossible_op_drops_only_its_link(self, caplog):
        # An op no site can make is a bad frame, not a fault of this site.
        async def flow():
            pa = free_port()
            a = Agent(AgentConfig(site=0, kind="text", listen=addr(pa)))
            assert await a.start() is None
            try:
                x = await RawPeer("text", 1).connect(pa)
                y = await RawPeer("text", 2).connect(pa)
                await wait_for(lambda: 2 in a.links)
                x.writer.write(x.frames_of([("Ins", 0, "ab"), ("Ins", -1, "c")]))
                await wait_for(lambda: 1 not in a.links)
                await y.read_until(1)
                assert y.seen == [OpId(1, 1)]
                y.writer.write(y.frames_of([("Ins", 0, "d")]))  # concurrent with "ab"
                await wait_for(lambda: len(a.state.history) == 2)
                assert a.state.current == "abd"
                assert a.exit_code == 0 and 2 in a.links
                x.writer.close()
                y.writer.close()
            finally:
                await a._shutdown()

        with caplog.at_level(logging.WARNING, logger="ccr.agent"):
            asyncio.run(flow())
        assert any("dropping site 1" in r.getMessage() for r in caplog.records)

    def test_overlong_partial_line_drops_link(self, monkeypatch):
        monkeypatch.setattr(agent_mod, "FRAME_LIMIT", 4096)

        async def flow():
            pa = free_port()
            a = Agent(AgentConfig(site=0, kind="counter", listen=addr(pa)))
            assert await a.start() is None
            try:
                x = await RawPeer("counter", 1).connect(pa)
                # a good frame, then a line that never ends
                x.writer.write(x.frames_of([("Incr", 4)]) + b"x" * 3000)
                await x.read_until(1)
                assert 1 in a.links
                x.writer.write(b"x" * 2000)
                await wait_for(lambda: 1 not in a.links)
                assert a.state.digest() == "4" and a.exit_code == 0
                x.writer.close()
            finally:
                await a._shutdown()

        asyncio.run(flow())

    def test_fault_sends_nothing_from_its_batch(self, capsys):
        async def flow():
            pa = free_port()
            a = Agent(AgentConfig(site=0, kind="text", listen=addr(pa)))
            assert await a.start() is None
            try:
                x = await RawPeer("text", 1).connect(pa)
                y = await RawPeer("text", 2).connect(pa)
                await wait_for(lambda: 2 in a.links)
                # the second op is out of range of the first one's text
                x.writer.write(x.frames_of([("Ins", 0, "abc"), ("Ins", 9, "x")]))
                await wait_for(lambda: a.exit_code == 3)
                assert a._stopping.is_set()
                with pytest.raises(asyncio.TimeoutError):
                    await y.read_until(1, timeout=0.3)
                x.writer.close()
                y.writer.close()
            finally:
                await a._shutdown()

        asyncio.run(flow())
        assert "fatal:" in capsys.readouterr().err


class TestStalledPeer:
    """A peer that holds its link and never reads slows only that link.
    The flood is lww writes of 2 KiB, 8 MB in all: more than the kernel
    buffers between the agent and the stalled peer hold."""
    n = 4000

    def flood(self, check):
        """Agent A with peer C, which never reads, and peer B, which floods
        A and reads A's echo; ``check(a, c)`` runs once B has it all."""
        # each write drops the one before it, as a site writing alone does
        writes = [("WriteExcept", f"{i:06}".ljust(2048, "x"),
                   frozenset({OpId(1, i)} if i else ())) for i in range(self.n)]

        async def flow():
            pa = free_port()
            a = Agent(AgentConfig(site=0, kind="lww", listen=addr(pa)))
            assert await a.start() is None
            try:
                c = await RawPeer("lww", 2).connect(pa, rcvbuf=4096)
                await wait_for(lambda: 2 in a.links)
                b = await RawPeer("lww", 1).connect(pa)
                b.writer.write(b.frames_of(writes))
                await b.read_until(self.n, timeout=10)
                await check(a, c)
                b.writer.close()
                c.writer.close()
            finally:
                await a._shutdown()

        asyncio.run(flow())

    def test_stalled_peer_slows_only_its_own_link(self):
        async def check(a, c):
            assert len(a.state.history) == self.n
            await asyncio.wait_for(a._exec("write done"), 2)
            assert a.state.digest() == '["done"]'
            # what C has not taken waits in its own link's transport
            assert a.links[2].writer.transport.get_write_buffer_size() > 0

        self.flood(check)

    def test_sync_counts_what_a_live_link_still_holds(self):
        async def check(a, c):
            assert not await a._sync(0.5)

            async def read_all():
                while await c.reader.read(1 << 16):
                    pass

            reading = asyncio.create_task(read_all())
            assert await a._sync(10)
            assert a.links[2].writer.transport.get_write_buffer_size() == 0
            reading.cancel()

        self.flood(check)


class TestSubprocess:
    def run_agent(self, *args, stdin_text=None, timeout=20):
        proc = subprocess.run([*AGENT, *args], input=stdin_text, text=True,
                              capture_output=True, timeout=timeout, env=AGENT_ENV)
        return proc

    def test_scripted_solo(self, tmp_path):
        script = tmp_path / "solo.ccr"
        script.write_text(textwrap.dedent("""\
            ins 0 "hello"
            show
            quit
        """))
        proc = self.run_agent("--site", "0", "--replica", "text",
                              "--listen", f"127.0.0.1:{free_port()}",
                              "--script", str(script))
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ['"hello"', "bye"]

    def test_counter_overflow_is_refused_and_the_repl_goes_on(self, tmp_path):
        script = tmp_path / "overflow.ccr"
        script.write_text("incr 9223372036854775807\nincr 1\nshow\nquit\n")
        proc = self.run_agent("--site", "0", "--replica", "counter",
                              "--listen", f"127.0.0.1:{free_port()}",
                              "--script", str(script))
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ["counter would overflow",
                                            "9223372036854775807", "bye"]
        assert "Traceback" not in proc.stderr

    def test_stdin_repl_eof_quits(self):
        proc = self.run_agent("--site", "0", "--replica", "counter",
                              "--listen", f"127.0.0.1:{free_port()}",
                              stdin_text="incr 3\nshow\n")
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ["3"]

    def test_missing_script_is_config_error(self):
        proc = self.run_agent("--site", "0", "--replica", "counter",
                              "--listen", f"127.0.0.1:{free_port()}",
                              "--script", "/does/not/exist")
        assert proc.returncode == 2

    def test_bind_failure_is_config_error(self):
        port = free_port()
        with socket.socket() as blocker:
            blocker.bind(("127.0.0.1", port))
            blocker.listen(1)
            proc = self.run_agent("--site", "0", "--replica", "counter",
                                  "--listen", f"127.0.0.1:{port}")
        assert proc.returncode == 2

    def test_two_processes_converge(self, tmp_path):
        pa = free_port()
        listener = subprocess.Popen(
            [*AGENT, "--site", "0", "--replica", "counter",
             "--listen", f"127.0.0.1:{pa}"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=AGENT_ENV)
        try:
            wait_port(pa)
            script = tmp_path / "dialer.ccr"
            script.write_text("incr 5\nsync 10\nshow\nquit\n")
            dialer = self.run_agent("--site", "1", "--replica", "counter",
                                    "--listen", f"127.0.0.1:{free_port()}",
                                    "--connect", f"127.0.0.1:{pa}",
                                    "--script", str(script))
            assert dialer.returncode == 0, dialer.stderr
            assert dialer.stdout.splitlines() == ["5", "bye"]
            out, err = listener.communicate(input="sync 10\nshow\nquit\n", timeout=20)
            assert listener.returncode == 0, err
            assert out.splitlines() == ["5", "bye"]
        finally:
            if listener.poll() is None:
                listener.kill()
                listener.communicate()

"""Live peer process: one site, a TCP transport, and the line REPL.

Framing is newline-delimited JSON (see wire).  Each connection starts with a
Hello exchange; a Hello names its sender's incarnation, a nonce drawn at
start-up, so a restarted process is known by its new stream.  The dialer
follows up with a resync request, so a freshly (re)started process pulls the
survivor's history immediately, and then with what the peer lacks of its
own.  A process numbers its own ops from a random base drawn with its
incarnation, so a restarted process does not reuse the uid of an op its
old incarnation made: it may edit at once, before or without any catch-up.
Both ends read the peer's Hello with ``_read_hello``, which closes the
connection if that fails, and register the link with the task that reads
it under the site the Hello names; however a link ends, ``_close`` cancels
that task, closes the writer and forgets the link.
After the Hello a connection's frames are read in batches:
one read takes whatever the socket holds, and every complete line in it is
decoded and handed to the site as one batch (``SiteState.handle_batch``,
which integrates each run of increments that continue each other as one).
The batch leaves its echo to the peer unsent, and the agent sends it at once
(``SiteState.flush``): a read's echo goes out as the one frame it always
was, and a peer waiting on an answer is not kept waiting.  TCP delivers in
order, so a piece held past a gap after a read waits on something that will
never come: the site is told the link has drained
(``SiteState.link_drained``) and asks for the peer's history.  Only then
do the replies go out.  All site mutations happen on the event loop, between
awaits, so the engine needs no locks.  Exit codes: 0 clean quit, 2
configuration error, 3 protocol fault or a scripted ``sync`` that timed out.
"""

from __future__ import annotations

import asyncio
import logging
import os
import sys
import threading
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .core import CcrError, IntentError, WireError
from .protocol import Hello, Message, ProtocolError, SiteFaulted, SiteState
from .repl import Addr, ReplError, parse_line, repl_eval
from .replicas import replica_type
from .wire import decode_message, encode_message

log = logging.getLogger("ccr.agent")

# Longest line a connection reads.  A Full carries a whole history in one
# line, so this bounds what a restarted peer can catch up on: about 250k
# counter ops made by agents (65 bytes each, with their long seqs).  A
# longer line drops the link.
FRAME_LIMIT = 16 * 1024 * 1024
# Most bytes taken from a socket in one read; a batch is whatever it held.
READ_CHUNK = 64 * 1024
# Seconds a bare ``sync`` waits for its barrier.
SYNC_TIMEOUT = 10.0
QUIET_WINDOW = 0.2  # seconds without traffic after which ``sync`` sees quiet


class AgentConfig(NamedTuple):
    site: int
    kind: str
    listen: Addr
    connect: Tuple[Addr, ...] = ()
    script: Optional[str] = None


class _Link(NamedTuple):
    """One live connection to a peer and the task that reads it."""
    writer: asyncio.StreamWriter
    addr: Addr
    task: asyncio.Task


class Agent:
    def __init__(self, cfg: AgentConfig):
        self.cfg = cfg
        self.rt = replica_type(cfg.kind)
        self.state = SiteState(cfg.site, self.rt)
        self.incarnation = int.from_bytes(os.urandom(8), "big")
        # A fresh 63-bit base for this process's seqs: no earlier incarnation
        # of the site is likely to have numbered an op in its range.
        self.state.next_seq = self.incarnation >> 1
        self.links: Dict[int, _Link] = {}
        self.exit_code = 0
        self._stopping = asyncio.Event()
        self._last_traffic = 0.0
        self._server: Optional[asyncio.base_events.Server] = None

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> Optional[int]:
        """Bind the listener and dial configured peers.

        Returns an exit code on configuration failure, None when up.
        """
        if self.cfg.script is not None and not Path(self.cfg.script).is_file():
            print(f"script not found: {self.cfg.script}", file=sys.stderr)
            return 2
        host, port = self.cfg.listen
        try:
            self._server = await asyncio.start_server(self._accepted, host, port,
                                                      limit=FRAME_LIMIT)
        except OSError as e:
            print(f"cannot listen on {host}:{port}: {e}", file=sys.stderr)
            return 2
        log.info("site %d (%s) listening on %s:%d", self.state.site, self.rt.name, host, port)
        for addr in self.cfg.connect:
            try:
                await self._dial(addr)
            except (OSError, CcrError) as e:
                print(f"connect {addr[0]}:{addr[1]} failed: {e}", file=sys.stderr)
        return None

    async def run(self) -> int:
        rc = await self.start()
        if rc is not None:
            return rc
        repl = asyncio.create_task(self._repl())
        stop = asyncio.create_task(self._stopping.wait())
        _, pending = await asyncio.wait({repl, stop}, return_when=asyncio.FIRST_COMPLETED)
        for t in pending:
            t.cancel()
        await self._shutdown()
        return self.exit_code

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for peer, link in list(self.links.items()):
            self._close(peer, link)

    def _fatal(self, e: BaseException) -> None:
        print(f"fatal: {e}", file=sys.stderr)
        self.exit_code = 3
        self._stopping.set()

    # -- transport ------------------------------------------------------------

    async def _dial(self, addr: Addr) -> int:
        reader, writer = await asyncio.open_connection(*addr, limit=FRAME_LIMIT)
        hello = Hello(site=self.state.site, kind=self.rt.name, known_len=0,
                      incarnation=self.incarnation)
        writer.write(encode_message(self.rt, hello))
        peer = (await self._read_hello(reader, writer)).site
        self._register(peer, reader, writer, addr)
        # The request first (a peer may insist on it right after the Hello),
        # then the backlog: nothing else sends it before the next local change.
        await self._send(self.state.request_resync(peer) + self.state.flush(peer))
        log.info("dialed site %d at %s:%d", peer, *addr)
        return peer

    async def _accepted(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        peername = writer.get_extra_info("peername") or ("?", 0)
        try:
            hello = await self._read_hello(reader, writer)
        except SiteFaulted as e:
            self._fatal(e)
            return
        except (WireError, ProtocolError) as e:
            # refuse the connection; this site keeps serving others
            log.warning("refused connection from %s: %s", peername, e)
            return
        except ConnectionError:
            return  # gone before its Hello, as a port probe is
        reply = Hello(site=self.state.site, kind=self.rt.name,
                      known_len=self.state.peers[hello.site].recv_len,
                      incarnation=self.incarnation)
        writer.write(encode_message(self.rt, reply))
        # Replace an old link before any await, so that none of its frames
        # is integrated after the Hello has reset the cursor.
        self._register(hello.site, reader, writer, (peername[0], peername[1]))
        log.info("accepted site %d from %s", hello.site, peername)

    async def _read_hello(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> Hello:
        """Read a connection's first line, which must be the peer's Hello,
        and hand it to the site.  On any failure the connection is closed;
        a peer gone before its Hello is a ``ConnectionError``."""
        try:
            try:
                line = await reader.readline()
            except ValueError:  # the line overran the stream's limit
                raise ProtocolError(f"frame longer than {FRAME_LIMIT} bytes") from None
            if not line:
                raise ConnectionResetError("peer closed connection during handshake")
            msg = decode_message(self.rt, line)
            if not isinstance(msg, Hello):
                raise ProtocolError(f"expected Hello, got {msg!r}")
            self.state.handle_message(msg.site, msg)
        except BaseException:
            writer.close()
            raise
        return msg

    def _register(self, peer: int, reader: asyncio.StreamReader,
                  writer: asyncio.StreamWriter, addr: Addr) -> None:
        old = self.links.get(peer)
        if old is not None:
            self._close(peer, old)
        self.links[peer] = _Link(writer, addr, asyncio.create_task(self._read_loop(peer, reader)))

    def _close(self, peer: int, link: _Link) -> None:
        """The one way a link ends: stop its read task unless that is the
        caller, close its writer, and forget it if it is still the peer's."""
        if link.task is not asyncio.current_task():
            link.task.cancel()
        link.writer.close()
        if self.links.get(peer) is link:
            del self.links[peer]

    async def _read_loop(self, peer: int, reader: asyncio.StreamReader) -> None:
        link = self.links[peer]  # _register stored it before this task runs
        loop = asyncio.get_running_loop()
        partial = bytearray()  # bytes of a line not yet complete
        try:
            while True:
                chunk = await reader.read(READ_CHUNK)
                if not chunk:
                    break
                self._last_traffic = loop.time()
                lines = chunk.split(b"\n")
                partial += lines[0]
                # The chunk's other lines fit in READ_CHUNK, below the limit.
                if len(partial) > FRAME_LIMIT:
                    raise ProtocolError(f"frame longer than {FRAME_LIMIT} bytes")
                if len(lines) > 1:
                    lines[0] = bytes(partial)
                    partial = bytearray(lines.pop())
                    await self._handle_batch(peer, lines)
        except asyncio.CancelledError:
            return  # whoever cancelled has closed the link
        except SiteFaulted as e:
            self._fatal(e)
        except (WireError, ProtocolError) as e:
            log.warning("dropping site %d: %s", peer, e)
        except ConnectionError:
            pass
        except Exception:
            # Anything else ends this link only; the site keeps serving.
            log.exception("dropping site %d", peer)
        self._close(peer, link)
        log.info("site %d disconnected", peer)

    async def _handle_batch(self, peer: int, frames: List[bytes]) -> None:
        """Decode complete frames up to the first bad one, integrate them as
        one batch, flush the echo the batch deferred, ask for a resync if a
        gap is left open, then send the replies.  A bad frame still lets the
        increments of the frames before it go out to every live link, echo
        included, before it drops the link; a ``Full`` or ``ResyncReq`` they
        owed that link is not sent, and a redial asks again.  A fault sends
        nothing."""
        msgs: List[Message] = []
        bad: Optional[CcrError] = None
        try:
            for frame in frames:
                msgs.append(decode_message(self.rt, frame))
        except WireError as e:
            bad = e
        try:
            out = self.state.handle_batch(peer, msgs)
            out += self.state.flush(peer)
            out += self.state.link_drained(peer)
        except ProtocolError as e:
            out, bad = [m for site in self.links for m in self.state.flush(site)], e
        await self._send(out)
        if bad is not None:
            raise bad

    async def _send(self, pairs: Sequence[Tuple[int, Message]]) -> None:
        """Write every message, then wait once for each link written to."""
        written: Dict[int, _Link] = {}
        for peer, msg in pairs:
            link = self.links.get(peer)
            if link is None or link.writer.is_closing():
                # not transport-connected right now; the resync path catches
                # the peer up when the link returns
                continue
            link.writer.write(encode_message(self.rt, msg))
            written[peer] = link
        if not written:
            return
        self._last_traffic = asyncio.get_running_loop().time()
        for peer, link in written.items():
            try:
                await link.writer.drain()
            except ConnectionError:
                self._close(peer, link)

    # -- command surface -------------------------------------------------------

    async def _repl(self) -> None:
        if self.cfg.script is not None:
            for line in Path(self.cfg.script).read_text().splitlines():
                if await self._exec(line):
                    return
            return  # script exhausted: implicit quit
        queue: asyncio.Queue = asyncio.Queue()
        loop = asyncio.get_running_loop()
        threading.Thread(target=_feed_stdin, args=(loop, queue), daemon=True).start()
        prompt = sys.stdin.isatty()
        while True:
            if prompt:
                print("ccr> ", end="", flush=True)
            line = await queue.get()
            if line is None:
                return
            if await self._exec(line.rstrip("\n")):
                return

    async def _exec(self, line: str) -> bool:
        """Run one command; True means quit."""
        try:
            cmd = parse_line(self.rt, line)
        except ReplError as e:
            print(f"parse error: {e}", flush=True)
            return False
        try:
            if cmd.verb == "quit":
                print("bye", flush=True)
                return True
            if cmd.verb == "connect":
                try:
                    peer = await self._dial(cmd.args)
                    print(f"connected to site {peer}", flush=True)
                except (OSError, CcrError) as e:
                    print(f"connect failed: {e}", flush=True)
                return False
            if cmd.verb == "disconnect":
                return self._disconnect(cmd.args)
            if cmd.verb == "sync":
                timeout = cmd.args[0] if cmd.args[0] is not None else SYNC_TIMEOUT
                if await self._sync(timeout):
                    return False
                # a script stops here, so it never reads an unsynced state
                print("sync timed out", flush=True)
                if self.cfg.script is None:
                    return False
                self.exit_code = 3
                return True
            out, msgs = repl_eval(self.state, cmd)
            if out:
                print(out, flush=True)
            await self._send(msgs)
        except SiteFaulted as e:
            self._fatal(e)
            return True
        except IntentError as e:
            print(str(e), flush=True)
        return False

    def _disconnect(self, addr: Addr) -> bool:
        for peer, link in list(self.links.items()):
            if link.addr == addr:
                self._close(peer, link)
                print(f"disconnected site {peer}", flush=True)
                return False
        print(f"not connected to {addr[0]}:{addr[1]}", flush=True)
        return False

    async def _sync(self, timeout: float) -> bool:
        """Barrier: wait until nothing is unsent and the wire has gone quiet."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while True:
            # only live links count: a departed peer's backlog is resync work
            # for later, not something this barrier can wait out
            unsent = any(map(self.state.deferred, self.links))
            quiet = loop.time() - self._last_traffic >= QUIET_WINDOW
            if not unsent and quiet:
                return True
            if loop.time() >= deadline:
                return False
            await asyncio.sleep(0.02)


def _feed_stdin(loop: asyncio.AbstractEventLoop, queue: asyncio.Queue) -> None:
    for line in sys.stdin:
        loop.call_soon_threadsafe(queue.put_nowait, line)
    loop.call_soon_threadsafe(queue.put_nowait, None)


def run_agent(cfg: AgentConfig) -> int:
    """Run one agent to completion; returns the process exit code."""
    level = os.environ.get("CCR_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        stream=sys.stderr,
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    agent = Agent(cfg)
    try:
        return asyncio.run(agent.run())
    except KeyboardInterrupt:
        return 0

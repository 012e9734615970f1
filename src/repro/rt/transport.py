"""TCP message fabric for live sites.

One :class:`LiveTransport` per hosted site: it owns the site's listening
socket and one outbound link per peer. The engines call ``send`` exactly
as they do on the simulated :class:`~repro.net.network.Network`; this
class reproduces the same observable contract with one
``asyncio.Protocol`` per link direction (:class:`_PeerLink` out,
:class:`_Inbound` in):

* per-link FIFO — each peer link is a single ordered TCP connection, so
  PREPARE never overtakes a decision. The messages sent to a peer in
  one event-loop iteration leave in one ``transport.write`` at its end
  (``after_tick``, after the fsync a force's completion waited for);
  trace events and counters stay per message;
* omission failures, not reliability — if a peer cannot be reached
  (killed site, closed port) within a small connect budget, the
  messages that waited on it are *dropped*, exactly as in the
  simulator's loss model;
* connection events as failure hints — an inbound connection that ends
  by EOF or reset, also mid-frame, reports its sender *down*. An
  outbound connection that ends is let go at once, so the next send
  reconnects instead of writing into a half-open socket, and the link
  probes the peer until it answers, then reports it *up*. The site
  fires the protocol timers waiting on that peer early
  (:meth:`~repro.mdbs.site.Site.peer_down`/``peer_up``); the timers
  stay the recovery mechanism for failures that close no socket (a
  partition, a hung process);
* the same trace events (``msg.send`` / ``msg.deliver`` /
  ``msg.dropped`` / ``msg.lost_receiver_down``) and counters
  (``sent_count`` / ``delivered_count`` / ``dropped_count``) as
  :class:`~repro.net.network.Network`, recorded into the shared
  :class:`~repro.rt.runtime.LiveRuntime` trace;
* self-delivery without the network — a message addressed to the local
  site is handed to the handler via ``loop.call_soon`` (the next tick's
  input, not this tick's ``after_tick`` output), preserving the
  simulator's invariant that delivery is never synchronous with send.

``register`` uses *replace* semantics, unlike the simulated network:
restarting a killed site builds a fresh :class:`~repro.mdbs.site.Site`
that re-registers its ``deliver`` and peer callbacks over the dead
one's.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Callable, Optional

from repro.errors import CodecError, NetworkError, UnknownNodeError
from repro.net.message import Message
from repro.rt.codec import FrameDecoder, JsonWireCodec, WireCodec
from repro.rt.runtime import LiveRuntime

#: Outbound connect attempts before the messages waiting on them are
#: dropped.
CONNECT_ATTEMPTS = 3

#: Wall-clock seconds between outbound connect attempts.
CONNECT_BACKOFF = 0.05


class _PeerLink(asyncio.Protocol):
    """One ordered outbound link, and the protocol of each connection
    it dials, one at a time. The peer never writes back, so a connection
    reports only its end."""

    def __init__(self, owner: "LiveTransport", peer_id: str) -> None:
        self._owner = owner
        self._peer_id = peer_id
        #: Accepted, not yet written: this tick's sends, or every send
        #: since a connect attempt began.
        self.pending: list[Message] = []
        self._conn: Optional[asyncio.Transport] = None
        self._dialling: Optional[asyncio.Task] = None
        self._probe: Optional[asyncio.Task] = None
        self._stopped = False

    def send(self, message: Message) -> None:
        self.pending.append(message)
        self._owner._rt.after_tick(self._flush)

    def _flush(self, preamble: bytes = b"") -> None:
        """Write everything pending in one ``transport.write``, or dial."""
        if self._conn is not None and self._conn.is_closing():
            # It ended and its connection_lost has not run yet: writing
            # would silently discard the frames.
            self._lost()
        if self._conn is None:
            if self.pending and self._dialling is None:
                self._dialling = asyncio.get_running_loop().create_task(
                    self._dial(), name=f"dial:{self._owner.node_id}->{self._peer_id}"
                )
            return
        batch, self.pending = self.pending, []
        encode = self._owner.codec.encode_frame
        self._conn.write(b"".join([preamble, *map(encode, batch)]))

    async def _dial(self) -> None:
        """Connect within the budget; ``connection_made`` then writes.

        Every message accepted while the attempts run rides on them. If
        all fail the peer is unreachable, an omission failure: those
        messages are dropped (the engines' timers resend or resolve by
        inquiry) and the next send starts a new attempt.
        """
        loop = asyncio.get_running_loop()
        host, port = self._owner.peer_address(self._peer_id)
        for attempt in range(CONNECT_ATTEMPTS):
            if attempt:
                await asyncio.sleep(CONNECT_BACKOFF)
            try:
                await loop.create_connection(lambda: self, host, port)
                return
            except OSError:
                pass
        self._dialling = None
        self._drop_pending()
        self._start_probe()

    def connection_made(self, transport: asyncio.Transport) -> None:  # type: ignore[override]
        self._dialling = None
        if self._stopped:
            transport.abort()
            return
        self._conn = transport
        # The codec preamble (the binary handshake announcing the
        # intern dictionary; empty for JSON) opens every connection, in
        # the same write as the first frames.
        self._flush(self._owner.codec.preamble)

    def eof_received(self) -> None:
        self._lost()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        # Only the connection in use: one this link ended itself was
        # let go already, and a newer one is not closing.
        if self._conn is not None and self._conn.is_closing():
            self._lost()

    def _lost(self) -> None:
        """The connection ended under us: let it go, so the next send
        reconnects, and probe the peer until it is back."""
        conn, self._conn = self._conn, None
        if conn is not None:
            conn.abort()
        self._start_probe()

    def _start_probe(self) -> None:
        if not self._stopped and (self._probe is None or self._probe.done()):
            self._probe = asyncio.get_running_loop().create_task(
                self._await_peer(),
                name=f"probe:{self._owner.node_id}->{self._peer_id}",
            )

    async def _await_peer(self) -> None:
        """Connect every ``CONNECT_BACKOFF`` until one succeeds, then
        report the peer up once. The probe connection carries nothing:
        the next send opens the link's own."""
        loop = asyncio.get_running_loop()
        address = self._owner.peer_address(self._peer_id)
        while True:
            await asyncio.sleep(CONNECT_BACKOFF)
            with socket.socket() as probe:
                probe.setblocking(False)
                try:
                    await loop.sock_connect(probe, address)
                except OSError:
                    continue
            self._owner._report(self._owner._peer_up, self._peer_id)
            return

    def _drop_pending(self) -> None:
        batch, self.pending = self.pending, []
        for message in batch:
            self._owner._count_dropped(message)

    @property
    def busy(self) -> bool:
        """Some accepted message has not been handed to the OS yet."""
        return bool(self.pending) or (
            self._conn is not None and self._conn.get_write_buffer_size() > 0
        )

    def close(self) -> None:
        """Drop what is pending and end the connection, the connect
        attempt and the probe: the link reports nothing after this."""
        self._stopped = True
        self._drop_pending()
        for task in (self._dialling, self._probe):
            if task is not None:
                task.cancel()
        if self._conn is not None:
            self._conn.abort()


class _Inbound(asyncio.Protocol):
    """One accepted connection: one peer link's frames in, messages
    delivered."""

    _transport: asyncio.Transport

    def __init__(self, owner: "LiveTransport") -> None:
        self._owner = owner
        self._decoder = FrameDecoder(decode=owner.codec.body_decoder())
        #: The sender of this connection's frames: one peer's link.
        self._peer: Optional[str] = None
        self._closed_here = False

    def connection_made(self, transport: asyncio.Transport) -> None:  # type: ignore[override]
        self._transport = transport
        self._owner._inbound.add(self)

    def data_received(self, data: bytes) -> None:
        try:
            messages = self._decoder.feed(data)
        except CodecError as exc:
            # Corrupt stream: drop the connection, with whatever else
            # this chunk completed. The peer's resend timers recover,
            # as for any omission.
            self._owner._rt.record(
                self._owner.node_id, "msg", "codec_error", error=str(exc)
            )
            self.close()
            return
        for message in messages:
            self._peer = message.sender
            self._owner._deliver(message)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        owner = self._owner
        owner._inbound.discard(self)
        if self._closed_here:
            return
        # The peer closed its link or died (EOF or reset). Frames arrive
        # in TCP order, so all it wrote whole is delivered by now; the
        # frame it was cut off in is lost, and it is still down.
        if self._decoder.pending_bytes:
            owner._rt.record(
                owner.node_id, "msg", "codec_error", error="connection closed mid-frame"
            )
        if self._peer is not None:
            owner._report(owner._peer_down, self._peer)

    def close(self) -> None:
        """End the connection from this side; it reports nothing."""
        self._closed_here = True
        self._transport.abort()


class LiveTransport:
    """Socket-backed stand-in for :class:`~repro.net.network.Network`,
    scoped to one hosted site.

    Args:
        rt: the shared live runtime (tracing + virtual clock).
        node_id: the site this transport serves.
        directory: shared ``{site_id: (host, port)}`` map; the cluster
            owns it and this transport publishes its bound port into it.
        host: interface to bind (loopback by default).
        port: fixed port, or 0 to bind an ephemeral one on first start.
            The chosen port is kept across stop/start so a restarted
            site comes back at the same address.
        codec: wire codec (:func:`repro.rt.codec.wire_codec`); defaults
            to the JSON codec. Every site of a cluster must run the
            same one — a mismatch fails loudly on the first frame.
    """

    def __init__(
        self,
        rt: LiveRuntime,
        node_id: str,
        directory: dict[str, tuple[str, int]],
        host: str = "127.0.0.1",
        port: int = 0,
        codec: Optional[WireCodec] = None,
    ) -> None:
        self._rt = rt
        self.node_id = node_id
        self.codec: WireCodec = codec if codec is not None else JsonWireCodec()
        self._directory = directory
        self._host = host
        self._port = port
        self._server: Optional[asyncio.Server] = None
        self._handler: Optional[Callable[[Message], None]] = None
        self._is_up: Callable[[], bool] = lambda: True
        self._peer_down: Optional[Callable[[str], None]] = None
        self._peer_up: Optional[Callable[[str], None]] = None
        self._links: dict[str, _PeerLink] = {}
        self._inbound: set[_Inbound] = set()
        self._pending_local = 0
        self.sent_count = 0
        self.delivered_count = 0
        self.dropped_count = 0

    # -- registration (Site.__init__ calls this) ---------------------------

    def register(
        self,
        node_id: str,
        handler: Callable[[Message], None],
        is_up: Callable[[], bool] = lambda: True,
        peer_down: Optional[Callable[[str], None]] = None,
        peer_up: Optional[Callable[[str], None]] = None,
    ) -> None:
        """Attach the local site's delivery handler and its peer-down /
        peer-up callbacks (replace semantics)."""
        if node_id != self.node_id:
            raise NetworkError(
                f"transport for {self.node_id!r} cannot host {node_id!r}"
            )
        self._handler = handler
        self._is_up = is_up
        self._peer_down = peer_down
        self._peer_up = peer_up

    def peer_address(self, peer_id: str) -> tuple[str, int]:
        try:
            return self._directory[peer_id]
        except KeyError:
            raise UnknownNodeError(f"unknown receiver {peer_id!r}")

    @property
    def port(self) -> int:
        return self._port

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and publish our address.

        ``reuse_port`` lets the socket bind beside the never-listening
        reservation a process cluster's supervisor holds on the port.
        """
        if self._server is not None:
            raise NetworkError(f"transport for {self.node_id!r} already started")
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Inbound(self), self._host, self._port, reuse_port=True
        )
        self._port = self._server.sockets[0].getsockname()[1]
        self._directory[self.node_id] = (self._host, self._port)

    async def stop(self) -> None:
        """Close the port, all inbound connections and outbound links.

        Models process death from the network's point of view: messages
        not yet written are dropped, bytes still in a socket's buffer
        are lost with it, and peers see their connections end.
        The address stays published — a restarted site rebinds it.
        """
        if self._server is not None:
            self._server.close()
        for connection in list(self._inbound):
            connection.close()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        for link in self._links.values():
            link.close()
        self._links.clear()
        # The cancelled tasks end, and the aborted connections close
        # their sockets in connection_lost, one loop iteration from now.
        await asyncio.sleep(0)

    @property
    def is_listening(self) -> bool:
        return self._server is not None

    # -- sending (engines call this) ----------------------------------------

    def send(self, message: Message) -> None:
        """Accept one message for ordered delivery (never synchronous)."""
        if message.receiver != self.node_id and message.receiver not in self._directory:
            raise UnknownNodeError(f"unknown receiver {message.receiver!r}")
        self.sent_count += 1
        self._rt.record(
            message.sender,
            "msg",
            "send",
            kind=message.kind,
            to=message.receiver,
            txn=message.txn_id,
            **message.payload,
        )
        if message.receiver == self.node_id:
            self._pending_local += 1
            asyncio.get_running_loop().call_soon(self._deliver_local, message)
            return
        link = self._links.get(message.receiver)
        if link is None:
            link = self._links[message.receiver] = _PeerLink(self, message.receiver)
        link.send(message)

    def _deliver_local(self, message: Message) -> None:
        self._pending_local -= 1
        self._deliver(message)

    def _count_dropped(self, message: Message) -> None:
        self.dropped_count += 1
        self._rt.record(
            message.sender,
            "msg",
            "dropped",
            kind=message.kind,
            to=message.receiver,
            txn=message.txn_id,
        )

    # -- receiving -----------------------------------------------------------

    def _deliver(self, message: Message) -> None:
        if self._handler is None or not self._is_up():
            # Site object crashed but the port is still draining: the
            # message is lost, matching the omission-failure model.
            self.dropped_count += 1
            self._rt.record(
                message.receiver,
                "msg",
                "lost_receiver_down",
                kind=message.kind,
                sender=message.sender,
                txn=message.txn_id,
            )
            return
        self.delivered_count += 1
        self._rt.record(
            message.receiver,
            "msg",
            "deliver",
            kind=message.kind,
            sender=message.sender,
            txn=message.txn_id,
            **message.payload,
        )
        self._handler(message)

    def _report(self, callback: Optional[Callable[[str], None]], peer: str) -> None:
        """Tell the local site a peer went down or came back up."""
        if callback is not None and self._is_up():
            callback(peer)

    async def drain_outbound(self, timeout: Optional[float] = None) -> bool:
        """Wait until every accepted message left this process.

        "Left" means handed to the OS: nothing pending on any link, every
        link's socket buffer written out, and no local self-delivery
        pending. Used by the ``SIGKILL`` crash injector
        (``repro.rt.proc``) right before dying, so a message the engines
        *sent* before the crash instant survives the sender's death —
        exactly the simulator's network model, where a scheduled
        delivery outlives the sender. Returns False when ``timeout``
        wall seconds elapsed first.
        """
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        while True:
            busy = self._pending_local > 0 or any(
                link.busy for link in self._links.values()
            )
            if not busy:
                return True
            if deadline is not None and loop.time() >= deadline:
                return False
            await asyncio.sleep(0)

    @property
    def backlog(self) -> int:
        """Messages accepted but not yet delivered or dropped (local
        pending self-deliveries plus outbound messages not yet written)."""
        return self._pending_local + sum(
            len(link.pending) for link in self._links.values()
        )

    def __repr__(self) -> str:
        state = "listening" if self.is_listening else "stopped"
        return (
            f"LiveTransport({self.node_id!r}, {self._host}:{self._port}, "
            f"{state}, sent={self.sent_count})"
        )

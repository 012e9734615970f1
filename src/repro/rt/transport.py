"""TCP message fabric for live sites.

One :class:`LiveTransport` per hosted site: it owns the site's listening
socket and one outbound link per peer. The engines call ``send`` exactly
as they do on the simulated :class:`~repro.net.network.Network`; this
class reproduces the same observable contract over asyncio streams:

* per-link FIFO — each peer link is a single ordered TCP connection
  drained by one writer task, so PREPARE never overtakes a decision;
* write batching — each writer wakeup drains the *whole* outbound
  queue: every pending frame is written back to back and flushed by a
  single ``drain()`` (cork/uncork), so a burst of N messages costs one
  syscall round trip instead of N. FIFO order and per-message trace
  events/counters are unchanged — batching moves bytes, not semantics;
* omission failures, not reliability — if a peer cannot be reached
  (killed site, closed port) the queued messages are *dropped* after a
  small reconnect budget, exactly as in the simulator's loss model;
* connection events as failure hints — an inbound connection that ends
  by EOF or reset reports its sender *down*, and an outbound link that
  lost its connection probes the peer until it answers again, then
  reports it *up*. The site fires the protocol timers waiting on that
  peer early (:meth:`~repro.mdbs.site.Site.peer_down`/``peer_up``);
  the timers stay the recovery mechanism for failures that close no
  socket (a partition, a hung process);
* the same trace events (``msg.send`` / ``msg.deliver`` /
  ``msg.dropped`` / ``msg.lost_receiver_down``) and counters
  (``sent_count`` / ``delivered_count`` / ``dropped_count``) as
  :class:`~repro.net.network.Network`, recorded into the shared
  :class:`~repro.rt.runtime.LiveRuntime` trace;
* self-delivery without the network — a message addressed to the local
  site is handed to the handler via ``loop.call_soon``, preserving the
  simulator's invariant that delivery is never synchronous with send.

``register`` uses *replace* semantics, unlike the simulated network:
restarting a killed site builds a fresh :class:`~repro.mdbs.site.Site`
that re-registers its ``deliver`` and peer callbacks over the dead
one's.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Optional

from repro.errors import CodecError, NetworkError, UnknownNodeError
from repro.net.message import Message
from repro.rt.codec import JsonWireCodec, WireCodec, read_frame
from repro.rt.runtime import LiveRuntime

#: Outbound connect attempts before a queued message is dropped.
CONNECT_ATTEMPTS = 3

#: Wall-clock seconds between outbound connect attempts.
CONNECT_BACKOFF = 0.05


class _PeerLink:
    """One ordered outbound link: a queue drained by a writer task."""

    def __init__(self, transport: "LiveTransport", peer_id: str) -> None:
        self._transport = transport
        self._peer_id = peer_id
        self.queue: asyncio.Queue[Message] = asyncio.Queue()
        self._writer: Optional[asyncio.StreamWriter] = None
        self._watcher: Optional[asyncio.Task] = None
        self._task: Optional[asyncio.Task] = None
        self._probe: Optional[asyncio.Task] = None
        #: True while a dequeued batch is being written — together with
        #: an empty queue, its negation means "everything handed to the
        #: OS", which is what :meth:`LiveTransport.drain_outbound` waits for.
        self.writing = False

    def ensure_running(self) -> None:
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(
                self._drain(), name=f"link:{self._transport.node_id}->{self._peer_id}"
            )

    async def _connect(self) -> Optional[asyncio.StreamWriter]:
        """Try to (re)connect within the budget; ``None`` means give up."""
        host, port = self._transport.peer_address(self._peer_id)
        for attempt in range(CONNECT_ATTEMPTS):
            try:
                reader, writer = await asyncio.open_connection(host, port)
            except OSError:
                if attempt + 1 < CONNECT_ATTEMPTS:
                    await asyncio.sleep(CONNECT_BACKOFF)
                continue
            # The codec preamble (the binary handshake announcing the
            # intern dictionary; empty for JSON) opens every fresh
            # connection. It rides with the first message batch's
            # flush, so it costs no extra round trip.
            preamble = self._transport.codec.preamble
            if preamble:
                writer.write(preamble)
            self._watch(reader, writer)
            return writer
        self._lost()
        return None

    def _lost(self) -> None:
        """The peer stopped answering: probe it until it is back."""
        if self._probe is None or self._probe.done():
            self._probe = asyncio.get_running_loop().create_task(
                self._await_peer(),
                name=f"probe:{self._transport.node_id}->{self._peer_id}",
            )

    async def _await_peer(self) -> None:
        """Connect every ``CONNECT_BACKOFF`` until one succeeds, then
        report the peer up once. The probe connection carries nothing:
        the next send opens the link's own."""
        host, port = self._transport.peer_address(self._peer_id)
        while True:
            await asyncio.sleep(CONNECT_BACKOFF)
            try:
                _, writer = await asyncio.open_connection(host, port)
            except OSError:
                continue
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError):
                pass
            self._transport._report(self._transport._peer_up, self._peer_id)
            return

    def _watch(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        # Outbound links are one-way — the peer never sends bytes back —
        # so the only thing a read can ever return is EOF or an error:
        # the peer closed or died.  Noticing that *eagerly* matters
        # across process boundaries: after a SIGKILL the first write to
        # the stale socket "succeeds" locally (the kernel buffers it
        # before the RST lands) and the frame silently vanishes, which
        # the simulator's semantics forbid once the peer is back up.
        # The watcher invalidates the cached writer the moment the peer
        # is gone, so the next send reconnects instead of writing into
        # the void.
        async def watch() -> None:
            try:
                while await reader.read(4096):
                    pass
            except (OSError, ConnectionError):
                pass
            if self._writer is writer:
                self._writer = None
                writer.close()
                self._lost()

        self._watcher = asyncio.get_running_loop().create_task(
            watch(), name=f"watch:{self._transport.node_id}->{self._peer_id}"
        )

    async def _drain(self) -> None:
        while True:
            batch = [await self.queue.get()]
            # Drain everything already queued: one wakeup, one write
            # burst, one flush — instead of one drain() per message.
            while True:
                try:
                    batch.append(self.queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            self.writing = True
            try:
                await self._write(batch)
            except asyncio.CancelledError:
                for message in batch:
                    self._transport._count_dropped(message)
                raise
            finally:
                self.writing = False

    async def _write(self, batch: list[Message]) -> None:
        # Encode exactly once; the reconnect-retry path below reuses
        # these bytes instead of re-encoding. The writer is threaded
        # through explicitly because the connection watcher may null
        # ``self._writer`` concurrently with a write in flight.
        frames = [self._transport.codec.encode_frame(message) for message in batch]
        writer = self._writer
        if writer is None:
            writer = self._writer = await self._connect()
            if writer is None:
                # Peer unreachable: an omission failure. The engines'
                # timers will resend or resolve via inquiry.
                for message in batch:
                    self._transport._count_dropped(message)
                return
        if await self._write_frames(writer, frames):
            return
        # The connection died under us (peer killed). One fresh
        # connect attempt for *this* batch, then drop it.
        self._lost()
        await self._close_writer()
        writer = self._writer = await self._connect()
        if writer is None or not await self._write_frames(writer, frames):
            await self._close_writer()
            for message in batch:
                self._transport._count_dropped(message)

    async def _write_frames(
        self, writer: asyncio.StreamWriter, frames: list[bytes]
    ) -> bool:
        """Write all frames, then flush once; False on a dead socket."""
        try:
            for frame in frames:
                writer.write(frame)
            await writer.drain()
            return True
        except (OSError, ConnectionError):
            return False

    async def _close_writer(self) -> None:
        if self._watcher is not None:
            watcher, self._watcher = self._watcher, None
            watcher.cancel()
            try:
                await watcher
            except asyncio.CancelledError:
                pass
        if self._writer is not None:
            writer, self._writer = self._writer, None
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError):
                pass

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        while not self.queue.empty():
            self._transport._count_dropped(self.queue.get_nowait())
        await self._close_writer()
        # Last, so nothing above can start a probe after this one.
        if self._probe is not None:
            self._probe.cancel()
            try:
                await self._probe
            except asyncio.CancelledError:
                pass
            self._probe = None


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
        self._inbound: set[asyncio.Task] = set()
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

    @property
    def address(self) -> tuple[str, int]:
        return (self._host, self._port)

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and publish our address.

        ``reuse_port`` lets the socket bind beside the never-listening
        reservation a process cluster's supervisor holds on the port.
        """
        if self._server is not None:
            raise NetworkError(f"transport for {self.node_id!r} already started")
        self._server = await asyncio.start_server(
            self._on_connection, self._host, self._port, reuse_port=True
        )
        self._port = self._server.sockets[0].getsockname()[1]
        self._directory[self.node_id] = (self._host, self._port)

    async def stop(self) -> None:
        """Close the port, all inbound connections and outbound links.

        Models process death from the network's point of view: queued
        outbound messages are lost (dropped), peers' connections reset.
        The address stays published — a restarted site rebinds it.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._inbound):
            task.cancel()
        for task in list(self._inbound):
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._inbound.clear()
        for link in self._links.values():
            await link.stop()
        self._links.clear()

    @property
    def is_listening(self) -> bool:
        return self._server is not None

    # -- sending (engines call this) ----------------------------------------

    def send(self, message: Message) -> None:
        """Queue one message for ordered delivery (never synchronous)."""
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
        link.queue.put_nowait(message)
        link.ensure_running()

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

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._inbound.add(task)
        decode = self.codec.body_decoder()
        # The sender of this connection's frames: one peer's link.
        peer: Optional[str] = None
        try:
            while True:
                try:
                    message = await read_frame(reader, decode)
                except CodecError as exc:
                    # Corrupt stream: drop the connection. The peer's
                    # resend timers recover, as for any omission.
                    self._rt.record(
                        self.node_id, "msg", "codec_error", error=str(exc)
                    )
                    break
                except ConnectionError:
                    message = None  # a reset ends it like an EOF
                if message is None:
                    # The peer closed its link or died. Frames arrive in
                    # TCP order, so all it wrote is delivered by now.
                    if peer is not None:
                        self._report(self._peer_down, peer)
                    break
                peer = message.sender
                self._deliver(message)
        except asyncio.CancelledError:
            # stop() tears the connection down; swallowing here keeps
            # the cancellation out of asyncio's stream callbacks. A
            # local stop reports no peer down.
            pass
        finally:
            self._inbound.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError):
                pass

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

        "Left" means handed to the OS: all per-peer queues empty, no
        batch mid-write, and no local self-delivery pending. Used by
        the ``SIGKILL`` crash injector (``repro.rt.proc``) right before
        dying, so a message the engines *sent* before the crash instant
        survives the sender's death — exactly the simulator's network
        model, where a scheduled delivery outlives the sender. Returns
        False when ``timeout`` wall seconds elapsed first.
        """
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        while True:
            busy = self._pending_local > 0 or any(
                link.queue.qsize() > 0 or link.writing
                for link in self._links.values()
            )
            if not busy:
                for link in self._links.values():
                    if link._writer is not None:
                        try:
                            await link._writer.drain()
                        except (OSError, ConnectionError):
                            pass
                return True
            if deadline is not None and loop.time() >= deadline:
                return False
            await asyncio.sleep(0)

    @property
    def backlog(self) -> int:
        """Messages accepted but not yet delivered or dropped (local
        pending self-deliveries plus queued outbound)."""
        return self._pending_local + sum(
            link.queue.qsize() for link in self._links.values()
        )

    def __repr__(self) -> str:
        state = "listening" if self.is_listening else "stopped"
        return (
            f"LiveTransport({self.node_id!r}, {self._host}:{self._port}, "
            f"{state}, sent={self.sent_count})"
        )

"""LiveTransport: the socket fabric's Network-compatible contract."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import NetworkError, UnknownNodeError
from repro.net.message import Message
from repro.rt.runtime import LiveRuntime
from repro.rt.transport import CONNECT_ATTEMPTS, LiveTransport


async def wait_for(predicate, timeout: float = 2.0) -> None:
    """Poll ``predicate`` until true or fail the test on timeout."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            pytest.fail("condition not reached within timeout")
        await asyncio.sleep(0.005)


class Pair:
    """Two started transports ('a' and 'b') recording deliveries."""

    def __init__(self) -> None:
        self.rt = LiveRuntime(time_scale=0.001)
        self.directory: dict[str, tuple[str, int]] = {}
        self.a = LiveTransport(self.rt, "a", self.directory)
        self.b = LiveTransport(self.rt, "b", self.directory)
        self.got: dict[str, list[Message]] = {"a": [], "b": []}
        self.a.register("a", self.got["a"].append)
        self.b.register("b", self.got["b"].append)

    async def __aenter__(self) -> "Pair":
        await self.a.start()
        await self.b.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.a.stop()
        await self.b.stop()


class TestDelivery:
    def test_ping_pong(self):
        async def go():
            async with Pair() as pair:
                pair.a.send(Message("PING", "a", "b", "t1", {"n": 1}))
                await wait_for(lambda: pair.got["b"])
                assert pair.got["b"][0].kind == "PING"
                pair.b.send(Message("PONG", "b", "a", "t1"))
                await wait_for(lambda: pair.got["a"])
                assert pair.got["a"][0].kind == "PONG"
                assert pair.a.sent_count == 1
                assert pair.a.delivered_count == 1
                assert pair.b.delivered_count == 1
                assert pair.a.backlog == 0

        asyncio.run(go())

    def test_per_link_fifo_order(self):
        async def go():
            async with Pair() as pair:
                for i in range(50):
                    pair.a.send(Message("SEQ", "a", "b", f"t{i}", {"i": i}))
                await wait_for(lambda: len(pair.got["b"]) == 50)
                assert [m.payload["i"] for m in pair.got["b"]] == list(range(50))

        asyncio.run(go())

    def test_self_delivery_is_asynchronous(self):
        async def go():
            async with Pair() as pair:
                pair.a.send(Message("LOCAL", "a", "a", "t1"))
                # Never synchronous with send: nothing delivered yet.
                assert pair.got["a"] == []
                assert pair.a.backlog == 1
                await wait_for(lambda: pair.got["a"])
                assert pair.got["a"][0].kind == "LOCAL"
                assert pair.a.backlog == 0

        asyncio.run(go())

    def test_trace_events_match_network_shape(self):
        async def go():
            async with Pair() as pair:
                pair.a.send(Message("VOTE", "a", "b", "t1", {"vote": "yes"}))
                await wait_for(lambda: pair.got["b"])
                send = pair.rt.trace.first("msg", "send")
                deliver = pair.rt.trace.first("msg", "deliver")
                assert send is not None and send.site == "a"
                assert send.details == {
                    "kind": "VOTE", "to": "b", "txn": "t1", "vote": "yes"
                }
                assert deliver is not None and deliver.site == "b"
                assert deliver.details == {
                    "kind": "VOTE", "sender": "a", "txn": "t1", "vote": "yes"
                }

        asyncio.run(go())


class TestWriteBatching:
    def test_sends_of_one_tick_reach_the_socket_in_one_write(self):
        async def go():
            async with Pair() as pair:
                pair.a.send(Message("SEQ", "a", "b", "t0", {"i": 0}))
                await wait_for(lambda: len(pair.got["b"]) == 1)
                connection = pair.a._links["b"]._conn
                writes: list[bytes] = []
                real_write = connection.write

                def spy(data):
                    writes.append(data)
                    real_write(data)

                connection.write = spy
                for i in range(1, 51):
                    pair.a.send(Message("SEQ", "a", "b", f"t{i}", {"i": i}))
                # Nothing is written inside the tick that sent them.
                assert writes == [] and pair.a.backlog == 50
                await wait_for(lambda: len(pair.got["b"]) == 51)
                assert len(writes) == 1
                # Batching moves bytes, not semantics: FIFO and the
                # per-message counters are unchanged.
                assert [m.payload["i"] for m in pair.got["b"]] == list(range(51))
                assert pair.a.sent_count == 51
                assert pair.b.delivered_count == 51
                assert pair.a.backlog == 0

        asyncio.run(go())

    def test_whole_batch_dropped_when_peer_unreachable(self):
        async def go():
            async with Pair() as pair:
                await pair.b.stop()
                del pair.directory["b"]
                pair.directory["b"] = ("127.0.0.1", 1)  # nothing listens here
                for i in range(3):
                    pair.a.send(Message("PING", "a", "b", f"t{i}"))
                await wait_for(lambda: pair.a.dropped_count == 3)
                assert pair.got["b"] == []
                await pair.b.start()  # let __aexit__ stop it cleanly

        asyncio.run(go())


class TestReconnectRetry:
    def test_link_closed_under_it_reconnects_and_delivers_once(self, monkeypatch):
        """The peer ends the link's connection: the link lets it go at
        once, and the next message travels over a fresh connection,
        encoded once and delivered once."""

        async def go():
            async with Pair() as pair:
                pair.a.send(Message("PING", "a", "b", "t0"))
                await wait_for(lambda: len(pair.got["b"]) == 1)
                link = pair.a._links["b"]
                first = link._conn
                (inbound,) = pair.b._inbound
                inbound.close()
                await wait_for(lambda: link._conn is None)

                encoded: list[str] = []
                real_encode = pair.a.codec.encode_frame

                def counting_encode(message):
                    encoded.append(message.txn_id)
                    return real_encode(message)

                monkeypatch.setattr(pair.a.codec, "encode_frame", counting_encode)
                pair.a.send(Message("DATA", "a", "b", "t1", {"n": 1}))
                await wait_for(lambda: len(pair.got["b"]) == 2)
                await asyncio.sleep(0.05)  # would surface any duplicate
                assert [m.txn_id for m in pair.got["b"]] == ["t0", "t1"]
                assert link._conn is not None and link._conn is not first
                assert encoded == ["t1"]
                assert pair.a.dropped_count == 0

        asyncio.run(go())

    def test_messages_sent_during_a_failed_connect_are_dropped_with_it(self):
        """A connect attempt carries every message accepted while it
        runs: when it fails they are all dropped together, and only a
        later send dials again."""

        async def go():
            async with Pair() as pair:
                await pair.b.stop()
                pair.directory["b"] = ("127.0.0.1", 1)  # nothing listens here
                loop = asyncio.get_running_loop()
                dials = 0
                real_connect = loop.create_connection

                async def counting_connect(*args, **kwargs):
                    nonlocal dials
                    dials += 1
                    return await real_connect(*args, **kwargs)

                loop.create_connection = counting_connect
                pair.a.send(Message("PING", "a", "b", "t0"))
                await wait_for(lambda: dials == 1)
                pair.a.send(Message("PING", "a", "b", "t1"))
                pair.a.send(Message("PING", "a", "b", "t2"))
                await wait_for(lambda: pair.a.dropped_count == 3)
                assert dials == CONNECT_ATTEMPTS
                assert pair.a.backlog == 0
                pair.a.send(Message("PING", "a", "b", "t3"))
                await wait_for(lambda: pair.a.dropped_count == 4)
                assert dials == 2 * CONNECT_ATTEMPTS
                dropped = [e.details["txn"] for e in pair.rt.trace.select("msg", "dropped")]
                assert dropped == ["t0", "t1", "t2", "t3"]
                del loop.create_connection
                await pair.b.start()  # let __aexit__ stop it cleanly

        asyncio.run(go())


class TestFailureModes:
    def test_unknown_receiver_raises(self):
        async def go():
            async with Pair() as pair:
                with pytest.raises(UnknownNodeError, match="ghost"):
                    pair.a.send(Message("PING", "a", "ghost", "t1"))

        asyncio.run(go())

    def test_messages_to_stopped_peer_are_dropped(self):
        async def go():
            async with Pair() as pair:
                await pair.b.stop()
                pair.a.send(Message("PING", "a", "b", "t1"))
                await wait_for(lambda: pair.a.dropped_count == 1)
                dropped = pair.rt.trace.first("msg", "dropped")
                assert dropped is not None
                assert dropped.details["to"] == "b"
                assert pair.got["b"] == []
                # Restart b so Pair.__aexit__ can stop it cleanly.
                await pair.b.start()

        asyncio.run(go())

    def test_receiver_down_loses_message(self):
        async def go():
            async with Pair() as pair:
                up = True
                pair.b.register("b", pair.got["b"].append, is_up=lambda: up)
                up = False
                pair.a.send(Message("PING", "a", "b", "t1"))
                await wait_for(lambda: pair.b.dropped_count == 1)
                lost = pair.rt.trace.first("msg", "lost_receiver_down")
                assert lost is not None and lost.site == "b"
                assert pair.got["b"] == []

        asyncio.run(go())

    def test_garbage_connection_recorded_and_dropped(self):
        async def go():
            async with Pair() as pair:
                host, port = pair.directory["b"]
                _, writer = await asyncio.open_connection(host, port)
                writer.write(b"\x00\x00\x00\x04junk")
                await writer.drain()
                await wait_for(
                    lambda: pair.rt.trace.first("msg", "codec_error") is not None
                )
                writer.close()
                assert pair.b.delivered_count == 0

        asyncio.run(go())


class TestRegistration:
    def test_register_replaces_handler(self):
        async def go():
            async with Pair() as pair:
                second: list[Message] = []
                pair.b.register("b", second.append)
                pair.a.send(Message("PING", "a", "b", "t1"))
                await wait_for(lambda: second)
                assert pair.got["b"] == []

        asyncio.run(go())

    def test_register_wrong_node_rejected(self):
        async def go():
            rt = LiveRuntime(time_scale=0.001)
            transport = LiveTransport(rt, "a", {})
            with pytest.raises(NetworkError, match="cannot host"):
                transport.register("z", lambda m: None)

        asyncio.run(go())

    def test_restart_keeps_port(self):
        async def go():
            rt = LiveRuntime(time_scale=0.001)
            directory: dict[str, tuple[str, int]] = {}
            transport = LiveTransport(rt, "a", directory)
            await transport.start()
            port = transport.port
            assert port != 0 and directory["a"] == ("127.0.0.1", port)
            await transport.stop()
            assert not transport.is_listening
            await transport.start()
            assert transport.port == port
            await transport.stop()

        asyncio.run(go())

    def test_double_start_rejected(self):
        async def go():
            rt = LiveRuntime(time_scale=0.001)
            transport = LiveTransport(rt, "a", {})
            await transport.start()
            try:
                with pytest.raises(NetworkError, match="already started"):
                    await transport.start()
            finally:
                await transport.stop()

        asyncio.run(go())

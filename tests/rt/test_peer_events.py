"""A lost connection fires the engines' timers early on real sockets.

When a site dies its TCP connections close. The transport reports the
peer of a closed inbound connection *down*, and a peer its outbound
link can reach again *up*; the sites then run the timer handlers that
wait on that peer at once (see ``tests/protocols/test_peer_events.py``
for the engine rules). Here the whole path runs live:

* transport: EOF, reset and a death mid-frame each report one peer
  down, a site's own ``stop()`` reports none, a peer that comes back
  is reported up once, and no probe outlives ``stop()``;
* a participant killed mid-wave: the wave is decided by the early vote
  timeout, not by the timer, and a Yes written before the kill still
  counts;
* a coordinator killed mid-protocol: its prepared PrA participant
  inquires the moment the coordinator is back, not when its inquiry
  timer fires;
* the same over a real ``SIGKILL`` of a site process.

Every check that no timer ran compares the runtime's fired timers with
the transactions started: a live run fires exactly one runtime timer
per transaction start, plus one per protocol timer that ended a wait.
"""

from __future__ import annotations

import asyncio
import socket
import struct

import pytest

from repro.mdbs.transaction import simple_transaction
from repro.net.message import Message
from repro.rt.cluster import LIVE_TIMEOUTS, LiveCluster
from repro.rt.proc import KillSpec, ProcessCluster
from repro.rt.runtime import LiveRuntime
from repro.rt.transport import LiveTransport
from repro.workloads.generator import COORDINATOR_ID
from repro.workloads.mixes import three_way

MIX = three_way(3)
PRN, PRA, PRC = sorted(MIX.site_protocols())
TIME_SCALE = 0.01
#: Units the victim stays down; well under every protocol timer.
DOWN_UNITS = 30.0


async def wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            pytest.fail("condition not reached within timeout")
        await asyncio.sleep(0.005)


def probes() -> list[asyncio.Task]:
    return [
        task
        for task in asyncio.all_tasks()
        if task.get_name().startswith("probe:") and not task.done()
    ]


def timers_beyond_starts(cluster) -> int:
    """Runtime timers fired for anything but a transaction start."""
    return cluster.sim.steps_executed - len(cluster.submitted)


def wave(prefix: str, n: int) -> list:
    return [
        simple_transaction(f"{prefix}{i}", COORDINATOR_ID, [PRN, PRA, PRC])
        for i in range(n)
    ]


# -- transport -----------------------------------------------------------------


class Reporting:
    """Two started transports recording deliveries and peer reports."""

    def __init__(self) -> None:
        self.rt = LiveRuntime(time_scale=0.001)
        self.directory: dict[str, tuple[str, int]] = {}
        self.got: dict[str, list[Message]] = {"a": [], "b": []}
        self.down: dict[str, list[str]] = {"a": [], "b": []}
        self.up: dict[str, list[str]] = {"a": [], "b": []}
        self.a = self._transport("a")
        self.b = self._transport("b")

    def _transport(self, node: str) -> LiveTransport:
        transport = LiveTransport(self.rt, node, self.directory)
        transport.register(
            node,
            self.got[node].append,
            peer_down=self.down[node].append,
            peer_up=self.up[node].append,
        )
        return transport

    async def __aenter__(self) -> "Reporting":
        await self.a.start()
        await self.b.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.a.stop()
        await self.b.stop()


class TestTransportReports:
    def test_eof_reports_the_sender_down_once_and_stop_reports_nothing(self):
        async def go():
            async with Reporting() as net:
                net.a.send(Message("PING", "a", "b", "t1"))
                net.b.send(Message("PING", "b", "a", "t1"))
                await wait_until(lambda: net.got["a"] and net.got["b"])
                await net.a.stop()
                await wait_until(lambda: net.down["b"])
                await asyncio.sleep(0.05)
                # a's own stop cancelled its inbound connection from b.
                assert net.down == {"a": [], "b": ["a"]}
                await net.a.start()

        asyncio.run(go())

    def test_reset_reports_the_sender_down_once(self):
        async def go():
            async with Reporting() as net:
                _, writer = await asyncio.open_connection(*net.directory["b"])
                writer.write(net.b.codec.encode_frame(Message("PING", "x", "b", "t1")))
                await writer.drain()
                await wait_until(lambda: net.got["b"])
                # Linger 0: close() sends RST instead of FIN.
                writer.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
                writer.transport.abort()
                await wait_until(lambda: net.down["b"])
                await asyncio.sleep(0.05)
                assert net.down == {"a": [], "b": ["x"]}

        asyncio.run(go())

    def test_a_peer_that_dies_mid_frame_is_reported_down(self):
        async def go():
            async with Reporting() as net:
                _, writer = await asyncio.open_connection(*net.directory["b"])
                frame = net.b.codec.encode_frame(Message("PING", "x", "b", "t1"))
                writer.write(frame + frame[: len(frame) // 2])
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                await wait_until(lambda: net.down["b"])
                await asyncio.sleep(0.05)
                # The whole frame is delivered, the cut one recorded.
                assert [m.txn_id for m in net.got["b"]] == ["t1"]
                error = net.rt.trace.first("msg", "codec_error")
                assert error is not None and error.site == "b"
                assert net.down == {"a": [], "b": ["x"]}

        asyncio.run(go())

    def test_a_connection_that_carried_nothing_reports_nothing(self):
        async def go():
            async with Reporting() as net:
                _, writer = await asyncio.open_connection(*net.directory["b"])
                writer.close()
                await asyncio.sleep(0.05)
                assert net.down == {"a": [], "b": []}

        asyncio.run(go())

    def test_a_peer_back_up_is_reported_once_and_stop_ends_the_probe(self):
        async def go():
            async with Reporting() as net:
                net.a.send(Message("PING", "a", "b", "t1"))
                await wait_until(lambda: net.got["b"])
                await net.b.stop()
                await wait_until(lambda: probes())
                await asyncio.sleep(0.2)  # refused probes report nothing
                assert net.up["a"] == []
                await net.b.start()
                await wait_until(lambda: net.up["a"])
                await asyncio.sleep(0.2)
                assert net.up == {"a": ["b"], "b": []}
                assert probes() == []
                # A probe still running when its transport stops is
                # cancelled with it. (The probe's connection carried
                # nothing; a send opens the link's own again.)
                net.a.send(Message("PING", "a", "b", "t2"))
                await wait_until(lambda: len(net.got["b"]) == 2)
                await net.b.stop()
                await wait_until(lambda: probes())
                await net.a.stop()
                assert probes() == []
                await net.b.start()
                await net.a.start()

        asyncio.run(go())


# -- in-process cluster ----------------------------------------------------------


async def started(tmp_path) -> LiveCluster:
    """A cluster in which every participant has voted once, so each
    holds a connection to the coordinator."""
    cluster = LiveCluster(
        MIX,
        tmp_path,
        coordinator="dynamic",
        timeouts=LIVE_TIMEOUTS,
        time_scale=TIME_SCALE,
        fsync=False,
    )
    await cluster.start()
    await cluster.run_pipelined(wave("warm", 2))
    await cluster.run(until=cluster.sim.now + 100.0)
    return cluster


async def settle(cluster) -> None:
    await cluster.run(until=cluster.sim.now + 200.0)
    await cluster.finalize()
    assert cluster.quiescent()
    assert cluster.check().all_hold


def test_participant_kill_decides_the_wave_without_the_vote_timer(tmp_path):
    txns = wave("w", 6)

    async def go():
        cluster = await started(tmp_path)
        killed: list[float] = []
        restarted = asyncio.Event()

        async def kill_and_restart():
            await cluster.kill(PRA)
            await asyncio.sleep(cluster.sim.to_seconds(DOWN_UNITS))
            await cluster.restart(PRA)
            restarted.set()

        def on_event(event):
            # Killed at its first log append for the wave: every wave
            # transaction has begun commit by then (they start in one
            # loop tick) and none has its vote.
            if not killed and event.site == PRA and event.matches(
                "log", "append"
            ) and event.details.get("txn", "").startswith("w"):
                killed.append(cluster.sim.now)
                asyncio.ensure_future(kill_and_restart())

        cluster.sim.trace.subscribe(on_event)
        try:
            for txn in txns:
                cluster.submit(txn, immediate=True)
            for txn in txns:
                await cluster.wait_decided(txn.txn_id, timeout=10.0)
            await restarted.wait()
            # The coordinator's probe finds PrA back within a backoff;
            # shutting down first would cancel it.
            await wait_until(
                lambda: cluster.sim.trace.first(
                    "site", "peer_up", site=COORDINATOR_ID, peer=PRA
                )
            )
            await settle(cluster)
        finally:
            await cluster.shutdown()
        assert probes() == []
        return cluster, killed[0]

    cluster, killed_at = asyncio.run(go())
    trace = cluster.sim.trace
    decided = [
        trace.first("protocol", "decide", txn=txn.txn_id).time for txn in txns
    ]
    assert max(decided) - killed_at < LIVE_TIMEOUTS.vote_timeout / 4
    timeouts = trace.select("protocol", "vote_timeout")
    assert timeouts and all(e.details.get("peer") == PRA for e in timeouts)
    assert trace.first("site", "peer_down", site=COORDINATOR_ID, peer=PRA)
    assert trace.first("site", "peer_up", site=COORDINATOR_ID, peer=PRA)
    assert timers_beyond_starts(cluster) == 0


def test_a_yes_written_before_the_kill_still_commits(tmp_path):
    (txn,) = wave("y", 1)

    async def go():
        cluster = await started(tmp_path)
        # Hold PrC's PREPARE so the coordinator is still voting when it
        # learns that PrA died.
        prc = cluster.sites[PRC].participant
        held: list[Message] = []
        on_prepare, prc.on_prepare = prc.on_prepare, held.append
        killed = asyncio.Event()

        async def flush_and_kill():
            # As the SIGKILL injector does: frames already sent reach
            # the OS, then the process dies.
            await cluster.hosts[PRA].transport.drain_outbound()
            await cluster.kill(PRA)
            killed.set()

        cluster.sim.trace.subscribe(
            lambda event: event.matches("db", "prepared", site=PRA, txn=txn.txn_id)
            and asyncio.ensure_future(flush_and_kill())
        )
        try:
            cluster.submit(txn, immediate=True)
            await killed.wait()
            await wait_until(
                lambda: cluster.sim.trace.first(
                    "site", "peer_down", site=COORDINATOR_ID, peer=PRA
                )
            )
            entry = cluster.sites[COORDINATOR_ID].coordinator.table.get(txn.txn_id)
            assert PRA in entry.yes_votes
            on_prepare(held.pop())
            await cluster.wait_decided(txn.txn_id, timeout=10.0)
            await cluster.restart(PRA)
            await settle(cluster)
        finally:
            await cluster.shutdown()
        return cluster

    cluster = asyncio.run(go())
    assert cluster.outcomes()[txn.txn_id] == "commit"
    assert cluster.sim.trace.select("protocol", "vote_timeout") == []
    assert timers_beyond_starts(cluster) == 0


def test_prepared_pra_participant_inquires_when_the_coordinator_is_back(tmp_path):
    (txn,) = wave("c", 1)

    async def go():
        cluster = await started(tmp_path)
        restarted: list[float] = []

        async def kill_and_restart():
            await cluster.kill(COORDINATOR_ID)
            await asyncio.sleep(cluster.sim.to_seconds(DOWN_UNITS))
            await cluster.restart(COORDINATOR_ID)
            restarted.append(cluster.sim.now)

        cluster.sim.trace.subscribe(
            lambda event: event.matches("db", "prepared", site=PRA, txn=txn.txn_id)
            and asyncio.ensure_future(kill_and_restart())
        )
        try:
            cluster.submit(txn, immediate=True)
            await wait_until(
                lambda: cluster.sim.trace.first(
                    "protocol", "forget", site=PRA, txn=txn.txn_id
                )
            )
            await settle(cluster)
        finally:
            await cluster.shutdown()
        return cluster, restarted[0]

    cluster, restarted_at = asyncio.run(go())
    trace = cluster.sim.trace
    prepared = trace.first("db", "prepared", site=PRA, txn=txn.txn_id)
    peer_up = trace.first("site", "peer_up", site=PRA, peer=COORDINATOR_ID)
    inquiry = trace.first("protocol", "inquiry", txn=txn.txn_id, inquirer=PRA)
    forget = trace.first("protocol", "forget", site=PRA, txn=txn.txn_id)
    assert prepared.seq < peer_up.seq < inquiry.seq < forget.seq
    # Its inquiry timer would have fired inquiry_timeout after its vote.
    assert forget.time - restarted_at < LIVE_TIMEOUTS.inquiry_timeout / 4
    assert forget.time - prepared.time < LIVE_TIMEOUTS.inquiry_timeout
    assert cluster.outcomes()[txn.txn_id] == "abort"
    assert timers_beyond_starts(cluster) == 0


# -- one process per site ----------------------------------------------------------


def test_sigkilled_participant_is_reported_down_then_up(tmp_path):
    """A real process death: the kernel closes the victim's sockets.
    The victim dies right after its Yes left (the ``part-after-prepared``
    crash point flushes sent frames first); the coordinator counts that
    Yes, commits, and sends the restarted victim the decision."""
    (txn,) = wave("k", 1)

    async def go():
        cluster = ProcessCluster(
            MIX,
            str(tmp_path),
            kills={PRA: KillSpec("part-after-prepared", txn.txn_id)},
            coordinator="dynamic",
            timeouts=LIVE_TIMEOUTS,
            time_scale=TIME_SCALE,
            fsync=False,
        )
        await cluster.start()
        try:
            cluster.submit(txn, immediate=True)
            await cluster.wait_decided(txn.txn_id, timeout=10.0)
            await cluster.wait_for_crash(PRA)
            await wait_until(
                lambda: cluster.sim.trace.first(
                    "site", "peer_down", site=COORDINATOR_ID, peer=PRA
                )
            )
            await cluster.restart(PRA)
            trace = cluster.sim.trace
            # The coordinator's probe finds the victim back...
            await wait_until(
                lambda: trace.first("site", "peer_up", site=COORDINATOR_ID, peer=PRA)
            )
            # ...and the victim, in doubt after its restart, commits.
            await wait_until(
                lambda: trace.first("protocol", "forget", site=PRA, txn=txn.txn_id)
            )
            await cluster.run(until=cluster.sim.now + 200.0)
            await cluster.finalize()
        finally:
            await cluster.shutdown()
        return cluster

    cluster = asyncio.run(go())
    trace = cluster.sim.trace
    assert cluster.outcomes()[txn.txn_id] == "commit"
    assert trace.select("protocol", "vote_timeout") == []
    assert cluster.check().all_hold

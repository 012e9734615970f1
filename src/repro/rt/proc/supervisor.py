"""Multi-process cluster supervisor: spawn, monitor, respawn, teardown.

:class:`ProcessCluster` is the multi-process counterpart of
:class:`~repro.rt.cluster.LiveCluster`: the same MDBS surface (submit /
run / finalize / kill / restart / check) with every site running as its
own OS process (``repro.rt.proc.site_process``) instead of a
:class:`~repro.rt.host.SiteHost` task in the caller's loop. Data-plane
traffic flows site-process to site-process over the ordinary
:class:`~repro.rt.transport.LiveTransport` sockets; the supervisor is
only on the *control* plane:

* it reserves every site's data port for the cluster's lifetime (a
  bound, never listening ``SO_REUSEPORT`` socket the site's own
  listener binds beside), writes each child a complete ``proc.json``
  world view, and spawns the children (stdout/stderr to
  ``<site>/child.log``; pids registered in :data:`SPAWNED_PROCESSES`
  for the test-suite's orphan reaper);
* each child holds one control connection back here, one small
  :class:`asyncio.Protocol` per connection (no task). Over it the child
  serves the command ops (begin work, begin commit, status, flush+GC,
  summary, shutdown) and notifies the trace events live readers wait
  on (not ``msg``, ``log`` or ``db``), recorded into the supervisor's
  :class:`~repro.rt.runtime.LiveRuntime` trace;
* each child's trace file, every event but ``msg``, is its whole
  record: :meth:`ProcessCluster.collect` rebuilds ``sim.trace`` from
  the files plus the supervisor's own events, the duck-typed surface
  the conformance suite's ``equivalence_summary`` consumes
  (``.sim.trace``, ``.sites``, ``.check()``). Mid-run, ``sim.trace``
  holds only the notified categories;
* liveness is the control connection plus a heartbeat: the
  connection's end is the death notification (a synthetic
  ``site/crash``, recorded after every frame before the end was read
  and merged after the last row of the process it ends), and a child
  that misses :data:`HEARTBEAT_MISSES` pings in a row is killed and
  treated the same way;
* :meth:`kill` is a real ``SIGKILL`` (nothing flushes, nothing exits
  cleanly), and :meth:`restart` respawns the child over the same data
  directory — the child's recovery-first boot does the rest. Config
  rewritten with the kill spec stripped, so a respawned victim cannot
  re-trigger its crash point while re-enforcing recovered decisions.

Transactions are driven exactly as the in-process cluster drives them,
split at the process boundary: local work runs inside each
participant's process (``begin_work``, the extracted
:func:`~repro.mdbs.system.begin_participant_work`) and only the doomed
bit crosses back; then the coordinator's process gets ``begin_commit``.
From there the commit protocol runs entirely between the site
processes' own sockets.
"""

from __future__ import annotations

import asyncio
import heapq
import json
import os
import socket
import subprocess
import sys
import time
from operator import attrgetter
from pathlib import Path
from typing import Any, Iterator, Optional

import repro
from repro.db.recovery import LocalRecoveryReport
from repro.errors import SiteDownError, WorkloadError
from repro.mdbs.system import RunReports
from repro.mdbs.transaction import GlobalTransaction
from repro.protocols.base import participant_spec
from repro.rt.cluster import ClusterDriver
from repro.rt.host import STORE_FILE, WAL_FILE
from repro.rt.proc.config import KillSpec, SiteProcessConfig
from repro.rt.proc.control import (
    ControlDecoder,
    ProcessControlError,
    encode_control,
    read_trace_rows,
    recovery_from_dict,
)
from repro.sim.tracing import TraceEvent
from repro.storage.file_log import load_wal_records, record_from_json
from repro.storage.log_records import LogRecord
from repro.workloads.mixes import ProtocolMix

#: Every child Popen ever spawned in this interpreter, newest last.
#: The test suite's conftest reaper walks this after each test and
#: SIGKILLs anything still running, so a failing test can never strand
#: orphan site processes that outlive the suite.
SPAWNED_PROCESSES: list[subprocess.Popen] = []

#: Wall seconds a child gets to boot (and recover) before hello.
HELLO_TIMEOUT = 30.0

#: Wall seconds between checks that a booting child is still running.
EXIT_POLL = 0.05

#: Wall seconds an exited child's hello may still take to be read.
EXIT_GRACE = 1.0

#: Lines of ``child.log`` quoted when a child dies before its hello.
LOG_TAIL_LINES = 12

#: Default wall-second budget for one control command round trip.
CALL_TIMEOUT = 60.0

#: Wall seconds an orderly shutdown waits before escalating to SIGKILL.
SHUTDOWN_GRACE = 5.0

#: Wall seconds between pings per child; also each ping's reply timeout.
HEARTBEAT_INTERVAL = 1.0

#: Consecutive unanswered pings before a child is declared hung.
HEARTBEAT_MISSES = 5


class _RemoteLog:
    """Stable-log view of a site process (``SiteView``-shaped)."""

    def __init__(self, records: list[LogRecord]) -> None:
        self._records = records

    def stable_records(self) -> list[LogRecord]:
        return list(self._records)

    def transactions(self) -> set[str]:
        return {record.txn_id for record in self._records}


class _RemoteStore:
    def __init__(self, snapshot: dict[str, Any]) -> None:
        self._snapshot = snapshot

    def snapshot(self) -> dict[str, Any]:
        return dict(self._snapshot)


class RemoteSite:
    """A site process's end-of-run footprint, shaped like the slice of
    :class:`~repro.mdbs.site.Site` the checkers and
    ``equivalence_summary`` consume: ``site_id``/``is_up``/``log``/
    ``store`` plus the two ``SiteView`` methods."""

    def __init__(
        self,
        site_id: str,
        protocol: str,
        is_up: bool,
        records: list[LogRecord],
        store: dict[str, Any],
        retained: set[str],
        uncollected: set[str],
        messages_sent: int = 0,
        messages_delivered: int = 0,
        messages_dropped: int = 0,
    ) -> None:
        self.site_id = site_id
        self.protocol = protocol
        self.is_up = is_up
        self.log = _RemoteLog(records)
        self.store = _RemoteStore(store)
        self._retained = retained
        self._uncollected = uncollected
        #: End-of-run transport counters shipped in the ``summary``
        #: reply; a dead child's counters died with it and read 0.
        self.messages_sent = messages_sent
        self.messages_delivered = messages_delivered
        self.messages_dropped = messages_dropped

    def retained_transactions(self) -> set[str]:
        return set(self._retained)

    def uncollected_log_transactions(self) -> set[str]:
        return set(self._uncollected)

    def __repr__(self) -> str:
        state = "up" if self.is_up else "down"
        return f"RemoteSite({self.site_id!r}, {self.protocol}, {state})"


class _Incarnation:
    """One spawned process of one site, as its trace sees it: the trace
    file its hello named, and the crash that ended it."""

    def __init__(self, site_id: str) -> None:
        self.site_id = sys.intern(site_id)
        self.trace_file: Optional[Path] = None
        self.crash: Optional[TraceEvent] = None

    def ordered_events(self) -> Iterator[TraceEvent]:
        """The trace file's rows in file order (the child's ``seq``
        order), read one line at a time; then the crash."""
        site = self.site_id
        if self.trace_file is not None:
            for seq, time, category, name, details in read_trace_rows(
                self.trace_file
            ):
                yield TraceEvent(
                    time, seq, site, sys.intern(category), sys.intern(name), details
                )
        if self.crash is not None:
            yield self.crash


class _ControlConnection(asyncio.Protocol):
    """One child's control connection, for the life of that process.

    Frames are routed by their ``site`` field until one binds the
    connection to its child, so a recovery-first boot may notify its
    recovery events *before* its hello. An ``event`` is recorded for
    live readers and kept nowhere else. ``connection_lost`` runs after
    the last ``data_received``: the crash follows every frame read.
    """

    transport: asyncio.Transport

    def __init__(self, cluster: "ProcessCluster") -> None:
        self._cluster = cluster
        self._decoder = ControlDecoder()
        self._handle: Optional[_ChildHandle] = None

    def connection_made(self, transport: asyncio.Transport) -> None:  # type: ignore[override]
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        try:
            for frame in self._decoder.feed(data):
                self._route(frame)
        except ProcessControlError:
            self.transport.abort()

    def _route(self, frame: dict[str, Any]) -> None:
        kind = frame.get("kind")
        handle = self._handle
        if handle is None:
            # Replies carry no site field; they can only arrive after
            # the hello bound this connection.
            handle = self._cluster._children.get(frame.get("site"))
            if handle is None or kind == "reply":
                raise ProcessControlError(f"control frame of no child: {frame!r}")
            self._handle = handle
            handle.control = self
        if kind == "event":
            sim = self._cluster.sim
            assert sim is not None
            sim.trace.record(
                frame["time"],
                frame["site"],
                frame["category"],
                frame["name"],
                frame["details"],
            )
        elif kind == "hello":
            # No respawn replaces the incarnation before this connection ends.
            handle.incarnation.trace_file = (
                self._cluster.data_dir / handle.site_id / frame["trace"]
            )
            handle.alive = True
            if handle.hello is not None and not handle.hello.done():
                handle.hello.set_result(frame)
        elif kind == "reply":
            future = handle.pending.pop(frame.get("id"), None)
            if future is not None and not future.done():
                future.set_result(frame)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        handle = self._handle
        if handle is not None and handle.control is self:
            self._cluster._on_child_gone(handle)


class _ChildHandle:
    """Supervisor-side state for one site process."""

    def __init__(self, config: SiteProcessConfig, config_path: Path) -> None:
        self.site_id = config.site.site_id
        self.protocol = config.site.protocol
        self.config = config
        self.config_path = config_path
        self.popen: Optional[subprocess.Popen] = None
        self.log_fh: Optional[Any] = None
        self.control: Optional[_ControlConnection] = None
        #: Between the hello and the control connection's end.
        self.alive = False
        self.pid: Optional[int] = None
        self.recovery: Optional[LocalRecoveryReport] = None
        self.hello: Optional[asyncio.Future] = None
        #: The running (or last) process's trace; replaced by each spawn.
        self.incarnation = _Incarnation(self.site_id)
        self.pending: dict[int, asyncio.Future] = {}
        #: Set when the control connection ends (process death seen,
        #: every frame read); reset by each (re)spawn.
        self.crashed = asyncio.Event()


class ProcessCluster(ClusterDriver):
    """A live MDBS where every site is a supervised OS process.

    Drop-in for :class:`~repro.rt.cluster.LiveCluster`'s surface
    (including its kill/restart failure interface); construction args
    are :class:`~repro.rt.cluster.ClusterDriver`'s, plus:

    Args:
        kills: per-site self-``SIGKILL`` specs
            (:class:`~repro.rt.proc.config.KillSpec`): the named crash
            point fires *inside* the victim's own process.
    """

    def __init__(
        self,
        mix: ProtocolMix,
        data_dir: Path | str,
        kills: Optional[dict[str, KillSpec]] = None,
        **options: Any,
    ) -> None:
        super().__init__(mix, data_dir, **options)
        self._kills = dict(kills) if kills else {}
        self._children: dict[str, _ChildHandle] = {}
        self._server: Optional[asyncio.Server] = None
        self._monitors: list[asyncio.Task] = []
        self._next_cmd_id = 0
        self._views: Optional[dict[str, RemoteSite]] = None
        self._shutting_down = False
        #: Every process this cluster spawned, oldest first.
        self._incarnations: list[_Incarnation] = []
        #: The supervisor's own trace events other than crashes
        #: (``txn_not_started``).
        self._own_events: list[TraceEvent] = []
        #: One bound, never listening socket per site's data port.
        self._reserved_ports: list[socket.socket] = []

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Spawn every site process and wait for all of them to report
        in (recovery-first boot included)."""
        self._wall_epoch = time.time()
        self._start_runtime(wall_epoch=self._wall_epoch)
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _ControlConnection(self), "127.0.0.1", 0
        )
        control_port = self._server.sockets[0].getsockname()[1]

        site_protocols, coordinator_sites = self._pcp_listing()
        layout = sorted(self._layout.values(), key=lambda site: site.site_id)
        # Reserve every data port up front so the complete address
        # directory goes into every child's config — addresses survive
        # any child's restart without renegotiation, and no other
        # socket can take a port while its site is down.
        directory = {}
        for site in layout:
            reservation = _reserve_port()
            self._reserved_ports.append(reservation)
            directory[site.site_id] = ["127.0.0.1", reservation.getsockname()[1]]
        for site in layout:
            site_id = site.site_id
            config = SiteProcessConfig(
                site=site,
                control_host="127.0.0.1",
                control_port=control_port,
                directory=directory,
                site_protocols=site_protocols,
                coordinator_sites=coordinator_sites,
                time_scale=self._time_scale,
                wall_epoch=self._wall_epoch,
                seed=self._seed,
                kill=self._kills.get(site_id),
            )
            config_path = Path(site.data_dir) / "proc.json"
            config.save(config_path)
            self._children[site_id] = _ChildHandle(config, config_path)
        for handle in self._children.values():
            self._spawn(handle)
        await asyncio.gather(
            *(self._await_hello(handle) for handle in self._children.values())
        )
        for handle in self._children.values():
            self._monitors.append(
                asyncio.ensure_future(self._monitor(handle))
            )

    def _spawn(self, handle: _ChildHandle) -> None:
        handle.hello = asyncio.get_running_loop().create_future()
        handle.crashed = asyncio.Event()
        handle.incarnation = _Incarnation(handle.site_id)
        self._incarnations.append(handle.incarnation)
        handle.log_fh = open(
            self.data_dir / handle.site_id / "child.log", "a", encoding="utf-8"
        )
        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing else src_root + os.pathsep + existing
        )
        handle.popen = subprocess.Popen(
            [sys.executable, "-m", "repro.rt.proc.site_process", str(handle.config_path)],
            stdout=handle.log_fh,
            stderr=subprocess.STDOUT,
            env=env,
        )
        SPAWNED_PROCESSES.append(handle.popen)

    async def _await_hello(self, handle: _ChildHandle) -> LocalRecoveryReport:
        try:
            frame = await asyncio.wait_for(self._hello_or_exit(handle), HELLO_TIMEOUT)
        except asyncio.TimeoutError:
            raise ProcessControlError(
                f"site process {handle.site_id!r} did not report in within "
                f"{HELLO_TIMEOUT}s (see {handle.site_id}/child.log)"
            )
        handle.pid = frame.get("pid")
        recovery = frame.get("recovery")
        handle.recovery = (
            recovery_from_dict(recovery) if recovery is not None
            else LocalRecoveryReport()
        )
        return handle.recovery

    async def _hello_or_exit(self, handle: _ChildHandle) -> dict[str, Any]:
        """The child's hello frame; :class:`ProcessControlError` as soon
        as the child has exited without one (a boot failure costs its
        own duration, not :data:`HELLO_TIMEOUT`)."""
        hello, popen = handle.hello, handle.popen
        assert hello is not None and popen is not None
        while not hello.done():
            code = popen.poll()
            if code is not None:
                # A hello written before the exit may still be unread.
                await asyncio.wait({hello}, timeout=EXIT_GRACE)
                if not hello.done() or hello.exception() is not None:
                    log = self.data_dir / handle.site_id / "child.log"
                    raise ProcessControlError(
                        f"site process {handle.site_id!r} exited with code "
                        f"{code} before reporting in; {handle.site_id}/child.log "
                        f"ends:\n{_tail(log)}"
                    )
                break
            await asyncio.wait({hello}, timeout=EXIT_POLL)
        return hello.result()

    async def shutdown(self) -> None:
        """Orderly teardown: collect end-of-run footprints (if not done
        already), ask every child to exit, escalate to SIGKILL after a
        grace period, close the control server."""
        if self.sim is None or self._shutting_down:
            return
        if self._views is None:
            await self.collect()
        self._shutting_down = True
        for task in self._monitors:
            task.cancel()
        await asyncio.gather(*self._monitors, return_exceptions=True)
        self._monitors.clear()
        for handle in self._children.values():
            if handle.alive:
                try:
                    await self._call(
                        handle.site_id, "shutdown", timeout=SHUTDOWN_GRACE
                    )
                except (ProcessControlError, asyncio.TimeoutError):
                    pass
        deadline = time.monotonic() + SHUTDOWN_GRACE
        for handle in self._children.values():
            if handle.popen is None:
                continue
            while handle.popen.poll() is None and time.monotonic() < deadline:
                await asyncio.sleep(0.05)
            if handle.popen.poll() is None:
                handle.popen.kill()
                handle.popen.wait()
            if handle.log_fh is not None:
                handle.log_fh.close()
                handle.log_fh = None
            # Gone, so its connection is at its end; one whose end was
            # not read yet closes now, in connection_lost.
            if handle.control is not None:
                handle.control.transport.abort()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for reservation in self._reserved_ports:
            reservation.close()
        self._reserved_ports.clear()

    # -- control plane -------------------------------------------------------

    def _on_child_gone(self, handle: _ChildHandle) -> None:
        handle.alive = False
        handle.control = None
        failure = ProcessControlError(
            f"site process {handle.site_id!r} died mid-command"
        )
        for future in handle.pending.values():
            if not future.done():
                future.set_exception(failure)
        handle.pending.clear()
        if handle.hello is not None and not handle.hello.done():
            handle.hello.set_exception(failure)
        if not self._shutting_down:
            assert self.sim is not None
            # The same event Site.crash records, stamped at the moment
            # the supervisor read the end of the victim's connection.
            handle.incarnation.crash = self.sim.record(
                handle.site_id, "site", "crash"
            )
        handle.crashed.set()

    async def _call(
        self, site_id: str, op: str, timeout: float = CALL_TIMEOUT, **kw: Any
    ) -> dict[str, Any]:
        """One command round trip to a child.

        Raises:
            ProcessControlError: child not running, died mid-command,
                or the op raised inside the child.
            asyncio.TimeoutError: no reply within ``timeout``.
        """
        handle = self._children[site_id]
        if not handle.alive or handle.control is None:
            raise ProcessControlError(f"site process {site_id!r} is not running")
        self._next_cmd_id += 1
        cmd_id = self._next_cmd_id
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        handle.pending[cmd_id] = future
        # A connection that failed under this write ends in
        # connection_lost, which fails the future.
        handle.control.transport.write(
            encode_control({"kind": "cmd", "id": cmd_id, "op": op, **kw})
        )
        try:
            reply = await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            handle.pending.pop(cmd_id, None)
            raise
        if "error" in reply:
            raise ProcessControlError(
                f"op {op!r} failed in {site_id!r}: {reply['error']}"
            )
        return reply

    async def _monitor(self, handle: _ChildHandle) -> None:
        """Heartbeat: ping every :data:`HEARTBEAT_INTERVAL`; after
        :data:`HEARTBEAT_MISSES` consecutive silent beats the child is
        declared hung and SIGKILLed (the connection's end then treats it
        as any other crash)."""
        missed = 0
        while True:
            await asyncio.sleep(HEARTBEAT_INTERVAL)
            if self._shutting_down or not handle.alive:
                return
            try:
                await self._call(handle.site_id, "ping", timeout=HEARTBEAT_INTERVAL)
                missed = 0
            except asyncio.TimeoutError:
                missed += 1
                if missed >= HEARTBEAT_MISSES:
                    if handle.popen is not None:
                        handle.popen.kill()
                    return
            except ProcessControlError:
                return  # already dead; connection_lost handled it

    # -- the MDBS surface ----------------------------------------------------

    def submit(self, txn: GlobalTransaction, immediate: bool = False) -> None:
        """Schedule a global transaction (mirrors ``LiveCluster.submit``)."""
        self._admit(
            txn,
            immediate,
            lambda: asyncio.ensure_future(self._start_txn(txn)),
        )

    async def _start_txn(self, txn: GlobalTransaction) -> None:
        """The process-boundary split of
        :func:`~repro.mdbs.system.start_transaction`: local work in
        each participant's process, all begun in one instant as the
        simulator does, doomed bits back, then the coordinator's
        ``begin_commit``."""
        assert self.sim is not None
        wire = txn.to_dict()
        coordinator = self._children[txn.coordinator]
        if not coordinator.alive:
            self._not_started(txn)
            return

        async def dooms(site_id: str) -> bool:
            handle = self._children[site_id]
            implicit = participant_spec(handle.protocol).implicitly_prepared
            if not handle.alive:
                return implicit
            try:
                reply = await self._call(site_id, "begin_work", txn=wire)
            except (ProcessControlError, asyncio.TimeoutError):
                # Participant died around the work: same shape as a
                # down site in the simulator.
                return implicit
            if reply.get("status") == "down":
                return implicit
            return bool(reply.get("doomed"))

        doomed = any(await asyncio.gather(*map(dooms, txn.participants)))
        try:
            reply = await self._call(
                txn.coordinator,
                "begin_commit",
                txn=wire,
                abort_override=txn.coordinator_abort or doomed,
            )
        except (ProcessControlError, asyncio.TimeoutError):
            # The coordinator process died while (possibly mid-)
            # executing begin_commit — whether the protocol started is
            # its log's business now; recovery decides. Recording
            # txn_not_started here would contradict the WAL.
            return
        if reply.get("status") == "down":
            self._not_started(txn)

    def _not_started(self, txn: GlobalTransaction) -> None:
        assert self.sim is not None
        self._own_events.append(
            self.sim.record(
                txn.coordinator, "system", "txn_not_started", txn=txn.txn_id
            )
        )

    async def run(self, until: float, heartbeat: float = 0.25) -> None:
        """Advance until quiescence or ``until`` virtual units, waking
        on notified trace activity with ``heartbeat`` as fallback."""
        await self._run_until_quiescent(until, heartbeat)

    async def _quiescent(self) -> bool:
        """All submitted work decided, and every *live* child reports
        empty protocol tables and an idle transport."""
        if not self._all_terminated():
            return False
        return not any(
            status["retained"] or status["backlog"]
            for status in await self._ask_live("status")
        )

    async def _ask_live(self, op: str) -> list[dict[str, Any]]:
        """One ``op`` round trip to every live child at once; the
        replies that arrived (dead children are quiet by definition,
        as a down site is for ``LiveCluster``)."""

        async def ask(site_id: str) -> Optional[dict[str, Any]]:
            try:
                return await self._call(site_id, op)
            except (ProcessControlError, asyncio.TimeoutError):
                return None

        replies = await asyncio.gather(
            *(
                ask(site_id)
                for site_id, handle in self._children.items()
                if handle.alive
            )
        )
        return [reply for reply in replies if reply is not None]

    async def finalize(self, max_rounds: int = 5) -> None:
        """Flush+GC every live child to a stable residue, with
        ``LiveCluster.finalize``'s rule across the process boundary:
        drain only after a sweep that left messages queued in some
        child, stop after the first sweep past the first that collects
        nothing (``MDBS.finalize``'s rule)."""
        await self._finalize_rounds(max_rounds)

    async def _sweep(self) -> tuple[int, bool]:
        """One ``flush_gc`` round trip to every live child: the sum of
        their collected counts, and whether any child's reply reported
        a backlog. Each child sweeps and reads its transport's backlog
        in one loop tick before it replies, so a message its sweep sent
        is still counted there: the reading is as exact as
        ``LiveCluster``'s."""
        replies = await self._ask_live("flush_gc")
        return (
            sum(reply["collected"] for reply in replies),
            any(reply["backlog"] for reply in replies),
        )

    async def _network_busy(self) -> bool:
        return any(status["backlog"] for status in await self._ask_live("status"))

    # -- failures ------------------------------------------------------------

    async def wait_for_crash(
        self, site_id: str, timeout: float = CALL_TIMEOUT
    ) -> None:
        """Block until ``site_id``'s process death has been observed
        (control connection ended, synthetic crash recorded)."""
        await asyncio.wait_for(
            self._children[site_id].crashed.wait(), timeout
        )

    async def kill(self, site_id: str) -> None:
        """SIGKILL one site process and wait until its death has been
        observed (connection ended, crash recorded)."""
        handle = self._children[site_id]
        # Gate on the control connection, not ``popen.poll()``: a child
        # can be dead on its connection before its exit is reapable.
        if handle.popen is None or not handle.alive:
            raise SiteDownError(f"site process {site_id!r} is not running")
        handle.popen.kill()
        await self.wait_for_crash(site_id)

    async def restart(self, site_id: str) -> LocalRecoveryReport:
        """Respawn a dead site process over its data directory; its
        recovery-first boot replays the WAL against the store snapshot.
        The config is rewritten with any kill spec stripped first, so
        recovery re-enforcement cannot re-fire the crash point."""
        handle = self._children[site_id]
        if handle.alive:
            raise SiteDownError(f"site process {site_id!r} is still running")
        if handle.popen is not None:
            handle.popen.wait()
        if handle.log_fh is not None:
            handle.log_fh.close()
        if handle.config.kill is not None:
            handle.config.kill = None
            handle.config.save(handle.config_path)
        self._spawn(handle)
        report = await self._await_hello(handle)
        self._monitors.append(asyncio.ensure_future(self._monitor(handle)))
        return report

    def recovery_report(self, site_id: str) -> Optional[LocalRecoveryReport]:
        """The boot-recovery report of ``site_id``'s current incarnation."""
        return self._children[site_id].recovery

    # -- end-of-run footprint -------------------------------------------------

    async def collect(self) -> dict[str, RemoteSite]:
        """Gather every site's end-of-run footprint: live children via
        the ``summary`` op, dead ones from their on-disk WAL + snapshot
        (what their next incarnation would recover from). Then rebuild
        ``sim.trace`` from every site process's trace file, until then
        holding only the notified categories."""
        views: dict[str, RemoteSite] = {}
        for site_id, handle in self._children.items():
            if handle.alive:
                try:
                    reply = await self._call(site_id, "summary")
                    views[site_id] = RemoteSite(
                        site_id,
                        reply["protocol"],
                        reply["is_up"],
                        [record_from_json(data) for data in reply["records"]],
                        reply["store"],
                        set(reply["retained"]),
                        set(reply["uncollected"]),
                        reply["messages_sent"],
                        reply["messages_delivered"],
                        reply["messages_dropped"],
                    )
                    continue
                except (ProcessControlError, asyncio.TimeoutError):
                    pass
            views[site_id] = self._view_from_disk(site_id, handle)
        self._views = views
        self._merge_trace()
        return views

    def _merge_trace(self) -> None:
        """Rebuild ``sim.trace`` from every process this cluster spawned
        plus the supervisor's own events.

        One process is its trace file's rows in file order, then its
        synthetic crash. Processes and the supervisor's own events merge
        by ``time`` (one clock epoch; ties keep spawn order). Each file
        is read one line at a time straight into the new trace, so a
        repeated collect rebuilds the same trace with every event once.
        Only the files this cluster's processes named in their hellos
        are read. A live child's ``summary`` reply followed every row it
        wrote before.
        """
        assert self.sim is not None
        streams = [inc.ordered_events() for inc in self._incarnations]
        streams.append(iter(self._own_events))
        self.sim.trace.replace(heapq.merge(*streams, key=attrgetter("time")))

    def _view_from_disk(self, site_id: str, handle: _ChildHandle) -> RemoteSite:
        """A dead child's durable footprint, read without mutating the
        artifacts: stable records from the WAL (tolerating a torn
        tail), store from the last renamed snapshot. Volatile state
        (protocol tables) died with the process, so ``retained`` is
        empty — the same view its crashed in-simulator twin gives."""
        site_dir = self.data_dir / site_id
        records: list[LogRecord] = []
        wal_path = site_dir / WAL_FILE
        if wal_path.exists():
            # Codec sniffed from the file itself; a torn tail is the
            # residue of the kill and is silently dropped, interior
            # corruption still raises StorageError.
            records = load_wal_records(wal_path)
        store: dict[str, Any] = {}
        store_path = site_dir / STORE_FILE
        if store_path.exists():
            store = json.loads(store_path.read_text(encoding="utf-8"))
        return RemoteSite(
            site_id,
            handle.protocol,
            False,
            records,
            store,
            set(),
            {record.txn_id for record in records},
        )

    @property
    def sites(self) -> dict[str, RemoteSite]:
        """Collected per-site views (``MDBS.sites`` shape). Available
        after :meth:`collect` (or :meth:`shutdown`, which collects)."""
        if self._views is None:
            raise WorkloadError("call collect() or shutdown() before .sites")
        return dict(self._views)

    def _transport_counters(self) -> Iterator[tuple[int, int, int]]:
        """Each collected site's end-of-run counters (the ``summary``
        reply's; a dead child's died with it and read 0)."""
        for view in self.sites.values():
            yield (
                view.messages_sent,
                view.messages_delivered,
                view.messages_dropped,
            )

    # -- checking ------------------------------------------------------------

    def check(self) -> RunReports:
        """The three correctness checkers over the merged trace and the
        collected site views (mirrors ``MDBS.check``)."""
        assert self.sim is not None
        return RunReports.of(self.sim.trace, self.sites.values())

    def __repr__(self) -> str:
        now = f"{self.sim.now:.1f}" if self.sim is not None else "unstarted"
        live = sum(handle.alive for handle in self._children.values())
        return (
            f"ProcessCluster(sites={len(self._children)}, live={live}, "
            f"txns={len(self.submitted)}, now={now})"
        )


def _tail(path: Path) -> str:
    """The last :data:`LOG_TAIL_LINES` lines of a child's log."""
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        return f"(unreadable: {exc})"
    return "\n".join(text.splitlines()[-LOG_TAIL_LINES:])


def _reserve_port() -> socket.socket:
    """A loopback port held for a site's data transport: bound with
    ``SO_REUSEPORT`` and never listened on. The site's listener binds
    beside it (:meth:`~repro.rt.transport.LiveTransport.start` sets
    ``reuse_port``); any other bind gets ``EADDRINUSE``, the kernel
    picks no connect's ephemeral source port from a bound port, and a
    connect while the site is down is refused, as with no socket."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind(("127.0.0.1", 0))
    return sock

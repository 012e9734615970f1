"""One protocol site as its own OS process.

``python -m repro.rt.proc.site_process <config.json>`` hosts a single
site inside a dedicated process, mirroring the reference
implementations where each transaction manager is a daemon *entered
from its RECOVERY state*. The process boundary adds a control
connection and a trace file, and nothing else:

* the site is a :class:`~repro.rt.host.SiteHost`, the class the
  in-process cluster hosts its sites with, booted by the same
  :meth:`~repro.rt.host.SiteHost.start` — recovery first iff the WAL
  file already exists. Its data plane is the host's ordinary transport
  (peers talk protocol messages straight to this process; the
  supervisor is not on that path);
* the control connection is one :class:`asyncio.Protocol`,
  :class:`SiteProcess` itself. It serves the op table below, notifies
  the supervisor of the trace events a live reader may wait on (every
  category but ``msg``, ``log`` and ``db``), and is the liveness
  channel: its end *is* the death notification, and ends
  :meth:`SiteProcess.run`;
* every event but ``msg`` goes to ``trace.<pid>.jsonl`` in the data
  directory, named in the hello: the process's whole record, merged by
  :meth:`~repro.rt.proc.supervisor.ProcessCluster.collect`. Each loop
  iteration with output ends in one flush, joined to the runtime's end
  of tick (``after_tick``): its rows appended to the file as one line
  (a JSON array of ``[seq, time, category, name, details]`` rows, not
  fsynced), then its frames in one write. So a reply follows every row
  and event its command caused. The child's own recorder keeps no events.

Crash injection: when the config carries a kill spec, the first trace
event matching the catalogued crash-point predicate arms self-death.
Inbound delivery is blocked immediately (a message arriving after the
crash instant is lost, as for a dead receiver), already-sent outbound
frames are allowed to reach the OS — the simulator's model, where a
scheduled delivery survives its sender — the buffered rows and frames
are flushed, and then the process sends itself an unblockable
``SIGKILL``. No flush, no atexit, no log close: whatever the WAL's
fsync discipline made durable is all that survives, which is precisely
what the crash-matrix suite tests. The trace file keeps what reached
the kernel.

Op table (see ``repro.rt.proc.control`` for framing):

==============  ==========================================================
``begin_work``  run one transaction's local work here (the extracted
                :func:`~repro.mdbs.system.begin_participant_work`);
                replies with the ``doomed`` bit
``begin_commit``  start the coordinator engine on a transaction
``status``      liveness/progress snapshot: retained txns, backlog
``flush_gc``    one :meth:`~repro.mdbs.site.Site.flush_and_gc` round;
                replies with the count collected and the backlog
``summary``     durable footprint: stable records, store snapshot
``ping``        heartbeat
``shutdown``    orderly exit: stop transport, close WAL
                (:meth:`~repro.rt.host.SiteHost.close`), exit 0
==============  ==========================================================
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys
from collections import deque
from pathlib import Path
from typing import Any, Optional

from repro.mdbs.system import begin_participant_work
from repro.mdbs.transaction import GlobalTransaction
from repro.rt.codec import wire_codec
from repro.rt.host import SiteHost
from repro.rt.proc.config import SiteProcessConfig
from repro.rt.proc.control import (
    ControlDecoder,
    ProcessControlError,
    encode_control,
    encode_trace_rows,
    recovery_to_dict,
)
from repro.rt.runtime import LiveRuntime
from repro.sim.tracing import TraceEvent, TraceRecorder
from repro.storage.file_log import record_to_json
from repro.storage.pcp import CommitProtocolDirectory
from repro.workloads.failure_schedules import (
    acceptor_crash_points,
    coordinator_crash_points,
    participant_crash_points,
)

#: Name -> CrashPoint over the full catalogue; the kill spec references
#: these names, so explorer schedules and live SIGKILL injection share
#: one vocabulary.
CRASH_POINTS = {
    point.name: point
    for point in (
        coordinator_crash_points()
        + participant_crash_points()
        + acceptor_crash_points()
    )
}

#: File the child writes its pid into (crash forensics + orphan reaping).
PID_FILE = "site.pid"

#: Wall-second budget for flushing outbound frames before self-SIGKILL.
DEATH_FLUSH_TIMEOUT = 0.5

#: Categories in the trace file but in no ``event`` frame: most of the
#: trace, and nothing a live reader waits on. ``msg`` events (per-message
#: bookkeeping, outside the equivalence footprint) go nowhere.
UNSTREAMED_CATEGORIES = frozenset({"log", "db"})


class _UnretainedTrace(TraceRecorder):
    """A recorder that numbers every event and hands it to the
    subscribers, and keeps none of them."""

    def __init__(self) -> None:
        super().__init__()
        self._rows = deque(maxlen=0)  # type: ignore[assignment]


class SiteProcess(asyncio.Protocol):
    """The in-child runtime: one site, and the protocol of its control
    connection."""

    def __init__(self, config: SiteProcessConfig) -> None:
        self.config = config
        self.host: Optional[SiteHost] = None
        self._decoder = ControlDecoder()
        self._conn: Optional[asyncio.Transport] = None
        #: Resolves when the control connection ends (False) or the
        #: shutdown op asks for an orderly exit (True).
        self._done: Optional[asyncio.Future] = None
        self._dying = False
        self._kill_predicate = None
        self._trace_file: Optional[Any] = None
        self._rt: Optional[LiveRuntime] = None
        #: This loop iteration's output, written by one :meth:`_flush`.
        self._rows: list[tuple] = []
        self._frames: list[dict[str, Any]] = []

    # -- boot ----------------------------------------------------------------

    async def run(self) -> None:
        # Truncated on open: an existing file of this name was written
        # by an earlier process that had this pid.
        trace_name = f"trace.{os.getpid()}.jsonl"
        trace_path = Path(self.config.site.data_dir) / trace_name
        with open(trace_path, "wb", buffering=0) as self._trace_file:
            try:
                await self._run(trace_name)
            finally:
                self._flush()

    async def _run(self, trace_name: str) -> None:
        config = self.config
        site_id = config.site.site_id
        loop = asyncio.get_running_loop()
        self._rt = rt = LiveRuntime(
            time_scale=config.time_scale,
            seed=config.seed,
            wall_epoch=config.wall_epoch,
        )
        rt.trace = _UnretainedTrace()
        if config.kill is not None:
            self._kill_predicate = CRASH_POINTS[config.kill.point].make_predicate(
                site_id, config.kill.txn
            )
        rt.trace.subscribe(self._on_trace_event)

        self._done = loop.create_future()
        await loop.create_connection(
            lambda: self, config.control_host, config.control_port
        )
        directory = {peer_id: tuple(addr) for peer_id, addr in config.directory.items()}
        host, port = directory[site_id]
        self.host = SiteHost(
            rt,
            directory,
            CommitProtocolDirectory.listing(
                config.site_protocols, config.coordinator_sites
            ),
            config.site,
            host=host,
            port=port,
            wire_codec=wire_codec(config.site.codec, intern=sorted(directory)),
        )
        # Recovery-first boot: an existing WAL means a previous
        # incarnation died here — analyze/redo/re-adopt before serving.
        recovery = await self.host.start()

        (Path(config.site.data_dir) / PID_FILE).write_text(str(os.getpid()))
        self._emit(
            {
                "kind": "hello",
                "site": site_id,
                "pid": os.getpid(),
                "recovery": None if recovery is None else recovery_to_dict(recovery),
                "trace": trace_name,
            }
        )
        if await self._done:
            await self._drain()
            await self.host.close()
            if self._conn is not None:
                self._conn.close()

    # -- the control connection ----------------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:  # type: ignore[override]
        self._conn = transport

    def data_received(self, data: bytes) -> None:
        try:
            for frame in self._decoder.feed(data):
                if frame.get("kind") == "cmd":
                    self._serve(frame)
        except ProcessControlError:
            assert self._conn is not None
            self._conn.abort()  # connection_lost ends run()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        # The supervisor is gone, or the shutdown op closed us.
        self._conn = None
        assert self._done is not None
        if not self._done.done():
            self._done.set_result(False)

    def _emit(self, frame: dict[str, Any]) -> None:
        self._frames.append(frame)
        self._rt.after_tick(self._flush)

    def _flush(self) -> None:
        """The buffered rows to the trace file as one line, then the
        buffered frames in one write: no frame precedes an older row."""
        if self._rows:
            rows, self._rows = self._rows, []
            assert self._trace_file is not None
            self._trace_file.write(encode_trace_rows(rows))
        if self._frames:
            frames, self._frames = self._frames, []
            if self._conn is not None:
                self._conn.write(b"".join(map(encode_control, frames)))

    def _on_trace_event(self, event: TraceEvent) -> None:
        category = event.category
        if category != "msg":
            self._rt.after_tick(self._flush)
            self._rows.append(
                (event.seq, event.time, category, event.name, event.details)
            )
            if category not in UNSTREAMED_CATEGORIES:
                self._frames.append(
                    {
                        "kind": "event",
                        "time": event.time,
                        "site": event.site,
                        "category": category,
                        "name": event.name,
                        "details": event.details,
                    }
                )
        if (
            self._kill_predicate is not None
            and not self._dying
            and self._kill_predicate(event)
        ):
            self._dying = True
            # From this instant the site is dead to the world: block
            # inbound delivery synchronously (a frame arriving now is
            # lost, as at a crashed receiver), then flush what was
            # already sent and pull the trigger.
            assert self.host is not None and self.host.site is not None
            self.host.transport.register(
                self.host.site_id, self.host.site.deliver, is_up=lambda: False
            )
            asyncio.ensure_future(self._die())

    async def _die(self) -> None:
        """Let already-sent frames reach the OS, then ``SIGKILL`` self.

        The flush mirrors the simulator's crash semantics: a message
        the engines sent before the crash instant is *in the network*
        and survives the sender; volatile state (the unforced log
        buffer, protocol tables) does not.
        """
        try:
            await asyncio.wait_for(self._drain(), DEATH_FLUSH_TIMEOUT)
        except asyncio.TimeoutError:
            pass
        finally:
            # Even when the drain timed out: the event that fired the
            # kill may still be in the buffer.
            self._flush()
            os.kill(os.getpid(), signal.SIGKILL)

    async def _drain(self) -> None:
        """Hand every accepted message, trace row and frame to the OS."""
        assert self.host is not None
        await self.host.transport.drain_outbound()
        self._flush()
        while self._conn is not None and self._conn.get_write_buffer_size():
            await asyncio.sleep(0)

    # -- command serving -----------------------------------------------------

    def _serve(self, frame: dict[str, Any]) -> None:
        try:
            result = self._dispatch(frame)
        except Exception as exc:  # noqa: BLE001 — shipped to supervisor
            result = {"error": f"{type(exc).__name__}: {exc}"}
        self._emit({"kind": "reply", "id": frame.get("id"), **result})
        assert self._done is not None
        if result.get("status") == "bye" and not self._done.done():
            self._done.set_result(True)

    def _dispatch(self, frame: dict[str, Any]) -> dict[str, Any]:
        assert self.host is not None and self.host.site is not None
        op = frame["op"]
        site, transport = self.host.site, self.host.transport
        if op == "ping":
            return {}
        if op == "begin_work":
            if not site.is_up:
                return {"status": "down"}
            txn = GlobalTransaction.from_dict(frame["txn"])
            return {"status": "ok", "doomed": begin_participant_work(site, txn)}
        if op == "begin_commit":
            if not site.is_up or site.coordinator is None:
                return {"status": "down"}
            txn = GlobalTransaction.from_dict(frame["txn"])
            site.coordinator.begin_commit(
                txn.txn_id,
                txn.participants,
                abort_override=bool(frame.get("abort_override", False)),
            )
            return {"status": "ok"}
        if op == "status":
            return {
                "is_up": site.is_up,
                "retained": sorted(site.retained_transactions()),
                "backlog": transport.backlog,
            }
        if op == "flush_gc":
            return {
                "collected": site.flush_and_gc(),
                "backlog": transport.backlog,
            }
        if op == "summary":
            return {
                "protocol": site.protocol,
                "is_up": site.is_up,
                "records": [
                    record_to_json(record) for record in site.log.stable_records()
                ],
                "store": site.store.snapshot(),
                "retained": sorted(site.retained_transactions()),
                "uncollected": sorted(site.uncollected_log_transactions()),
                # Transport counters: `msg` trace events stay inside the
                # child (too chatty for the control connection), so the
                # end-of-run totals travel in the summary instead.
                "messages_sent": transport.sent_count,
                "messages_delivered": transport.delivered_count,
                "messages_dropped": transport.dropped_count,
            }
        if op == "shutdown":
            return {"status": "bye"}  # run() closes the host and exits
        raise ValueError(f"unknown control op {op!r}")


def main(argv: Optional[list[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(
            "usage: python -m repro.rt.proc.site_process <config.json>",
            file=sys.stderr,
        )
        return 2
    config = SiteProcessConfig.load(Path(args[0]))
    asyncio.run(SiteProcess(config).run())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

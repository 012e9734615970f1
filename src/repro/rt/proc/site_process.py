"""One protocol site as its own OS process.

``python -m repro.rt.proc.site_process <config.json>`` hosts a single
site inside a dedicated process, mirroring the reference
implementations where each transaction manager is a daemon *entered
from its RECOVERY state*. The process boundary adds a control
connection and nothing else:

* the site is a :class:`~repro.rt.host.SiteHost`, the class the
  in-process cluster hosts its sites with, booted by the same
  :meth:`~repro.rt.host.SiteHost.start` — recovery first iff the WAL
  file already exists. Its data plane is the host's ordinary transport
  (peers talk protocol messages straight to this process; the
  supervisor is not on that path);
* a control connection back to the supervisor streams the trace events
  a live reader may wait on (every category but ``msg``, ``log`` and
  ``db``) and serves the op table below, and is the liveness channel:
  its EOF *is* the death notification;
* the site's ``log`` and ``db`` trace events — most of the trace, and
  nothing anyone waits on mid-run — go to a file in its data directory,
  ``trace.<pid>.jsonl``, named in the hello. Each loop iteration that
  recorded any appends one line: a JSON array of ``[seq, time,
  category, name, details]`` rows, not fsynced. The buffer is also
  written before any control frame leaves, so a reply still follows
  every event its command caused. Live ``event`` frames carry the same
  ``seq``, and the supervisor merges file and stream after the run
  (:meth:`~repro.rt.proc.supervisor.ProcessCluster.collect`). The
  child's own recorder keeps no events: nothing here reads them.

Crash injection: when the config carries a kill spec, the first trace
event matching the catalogued crash-point predicate arms self-death.
Inbound delivery is blocked immediately (a message arriving after the
crash instant is lost, as for a dead receiver), already-sent outbound
frames are allowed to reach the OS — the simulator's model, where a
scheduled delivery survives its sender — the buffered trace rows are
written, and then the process sends itself an unblockable ``SIGKILL``.
No flush, no atexit, no log close: whatever the WAL's fsync discipline
made durable is all that survives, which is precisely what the
crash-matrix suite tests. The trace file, like the control stream,
keeps what reached the page cache.

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
    MAX_CONTROL_LINE,
    TRACE_FILE_CATEGORIES,
    encode_control,
    encode_trace_rows,
    read_control,
    recovery_to_dict,
)
from repro.rt.runtime import LiveRuntime
from repro.sim.tracing import TraceEvent, TraceRecorder
from repro.storage.file_log import record_to_json
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


class _UnretainedTrace(TraceRecorder):
    """A recorder that numbers every event and hands it to the
    subscribers, and keeps none of them."""

    def __init__(self) -> None:
        super().__init__()
        self._rows = deque(maxlen=0)  # type: ignore[assignment]


class SiteProcess:
    """The in-child runtime: one site, one control connection."""

    def __init__(self, config: SiteProcessConfig) -> None:
        self.config = config
        self.host: Optional[SiteHost] = None
        self._outbox: asyncio.Queue[dict[str, Any]] = asyncio.Queue()
        self._pump_busy = False
        self._writer: Optional[asyncio.StreamWriter] = None
        self._dying = False
        self._kill_predicate = None
        self._trace_file: Optional[Any] = None
        self._trace_rows: list[tuple] = []

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
                self._write_trace()

    async def _run(self, trace_name: str) -> None:
        config = self.config
        site_id = config.site.site_id
        rt = LiveRuntime(
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

        reader, writer = await asyncio.open_connection(
            config.control_host, config.control_port, limit=MAX_CONTROL_LINE
        )
        self._writer = writer
        pump = asyncio.ensure_future(self._pump())

        directory = {
            peer_id: (host, port)
            for peer_id, (host, port) in config.directory.items()
        }
        self.host = SiteHost(
            rt,
            directory,
            config.pcp(),
            config.site,
            host=config.host,
            port=config.port,
            wire_codec=wire_codec(config.site.codec, intern=sorted(directory)),
        )
        # Recovery-first boot: an existing WAL means a previous
        # incarnation died here — analyze/redo/re-adopt before serving.
        recovery = await self.host.start()

        pid_file = Path(config.site.data_dir) / PID_FILE
        pid_file.write_text(str(os.getpid()), encoding="utf-8")
        self._emit(
            {
                "kind": "hello",
                "site": site_id,
                "pid": os.getpid(),
                "port": self.host.transport.port,
                "recovery": None if recovery is None else recovery_to_dict(recovery),
                "trace": trace_name,
            }
        )

        try:
            await self._serve(reader)
        finally:
            pump.cancel()
            await asyncio.gather(pump, return_exceptions=True)

    # -- control plumbing ----------------------------------------------------

    def _emit(self, frame: dict[str, Any]) -> None:
        self._outbox.put_nowait(frame)

    async def _pump(self) -> None:
        """Single outbound writer: events and replies leave in the
        order they were produced, each write preceded by the buffered
        trace rows, so a reply never overtakes the events its command
        caused."""
        assert self._writer is not None
        while True:
            frame = await self._outbox.get()
            self._pump_busy = True
            try:
                chunks = [encode_control(frame)]
                while True:
                    try:
                        chunks.append(encode_control(self._outbox.get_nowait()))
                    except asyncio.QueueEmpty:
                        break
                self._write_trace()
                self._writer.write(b"".join(chunks))
                await self._writer.drain()
            except (OSError, ConnectionError):
                return  # supervisor gone; _serve's EOF exits us
            finally:
                self._pump_busy = False

    def _write_trace(self) -> None:
        """Append the buffered rows to the trace file as one line."""
        if self._trace_rows:
            rows, self._trace_rows = self._trace_rows, []
            assert self._trace_file is not None
            self._trace_file.write(encode_trace_rows(rows))

    def _on_trace_event(self, event: TraceEvent) -> None:
        # msg events are the transport's per-message bookkeeping — high
        # volume and deliberately outside the equivalence footprint.
        # log and db events are buffered for the trace file; the rest
        # is streamed, since live readers wait on decisions, forgets,
        # peer and recovery events.
        category = event.category
        if category in TRACE_FILE_CATEGORIES:
            if not self._trace_rows:
                asyncio.get_running_loop().call_soon(self._write_trace)
            self._trace_rows.append(
                (event.seq, event.time, category, event.name, event.details)
            )
        elif category != "msg":
            self._emit(
                {
                    "kind": "event",
                    "seq": event.seq,
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
            await asyncio.wait_for(self._flush_for_death(), DEATH_FLUSH_TIMEOUT)
        except asyncio.TimeoutError:
            pass
        finally:
            # Even when the flush timed out: the event that fired the
            # kill may still be in the buffer.
            self._write_trace()
            os.kill(os.getpid(), signal.SIGKILL)

    async def _flush_for_death(self) -> None:
        assert self.host is not None and self._writer is not None
        await self.host.transport.drain_outbound()
        while not self._outbox.empty() or self._pump_busy:
            await asyncio.sleep(0)
        await self._writer.drain()

    # -- command serving -----------------------------------------------------

    async def _serve(self, reader: asyncio.StreamReader) -> None:
        while True:
            frame = await read_control(reader)
            if frame is None:
                return  # supervisor died: nothing to serve for
            if frame.get("kind") != "cmd":
                continue
            cmd_id = frame.get("id")
            try:
                result = self._dispatch(frame)
            except Exception as exc:  # noqa: BLE001 — shipped to supervisor
                self._emit(
                    {
                        "kind": "reply",
                        "id": cmd_id,
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                )
                continue
            self._emit({"kind": "reply", "id": cmd_id, **result})
            if frame["op"] == "shutdown":
                await self._flush_for_death()
                assert self.host is not None
                await self.host.close()
                return

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
                # child (too chatty for the control stream), so the
                # end-of-run totals travel in the summary instead.
                "messages_sent": transport.sent_count,
                "messages_delivered": transport.delivered_count,
                "messages_dropped": transport.dropped_count,
            }
        if op == "shutdown":
            return {"status": "bye"}  # _serve closes the host and exits
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

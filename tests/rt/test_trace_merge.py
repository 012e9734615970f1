"""A process cluster's trace, merged from its sites' trace files.

Each site process writes every trace event but ``msg`` to
``trace.<pid>.jsonl`` in its data directory, its whole record, and
notifies the supervisor of the events live readers wait on;
:meth:`ProcessCluster.collect` rebuilds ``sim.trace`` from the files
and the supervisor's own events. Checked here:

* one process is its file rows in file order, a line cut short by a
  kill skipped, then its crash;
* an external ``kill`` and a ``KillSpec`` self-kill mid-wave each leave
  every event the dead process wrote, once and in order, then its
  ``site.crash``, then the next process's ``site.recover``;
* each event the supervisor was notified of appears once in the merged
  trace;
* ``collect()`` twice gives the same trace;
* an earlier cluster's files in the same data directory are not read;
* a failure-free run sends at most 12 control frames per transaction
  (37.9 when every event crossed the control connection).
"""

from __future__ import annotations

import asyncio
import json

from repro.mdbs.transaction import simple_transaction
from repro.rt.cluster import LIVE_TIMEOUTS, run_workload
from repro.rt.proc import KillSpec, ProcessCluster
from repro.rt.proc import supervisor
from repro.rt.proc.control import ControlDecoder
from repro.rt.proc.supervisor import _Incarnation
from repro.sim.tracing import TraceEvent
from repro.workloads.generator import COORDINATOR_ID, WorkloadSpec
from repro.workloads.mixes import three_way

MIX = three_way(3)
PRN, PRA, PRC = sorted(MIX.site_protocols())
TIME_SCALE = 0.01
#: Units the victim stays down; well under every protocol timer.
DOWN_UNITS = 30.0


def wave(prefix: str, n: int) -> list:
    return [
        simple_transaction(f"{prefix}{i}", COORDINATOR_ID, [PRN, PRA, PRC])
        for i in range(n)
    ]


def make_cluster(data_dir, **kw) -> ProcessCluster:
    return ProcessCluster(
        MIX,
        str(data_dir),
        coordinator="dynamic",
        timeouts=LIVE_TIMEOUTS,
        time_scale=TIME_SCALE,
        fsync=False,
        **kw,
    )


def file_rows(path) -> list[list]:
    """Every row of the complete lines of one trace file."""
    lines = path.read_bytes().split(b"\n")
    return [row for line in lines[:-1] for row in json.loads(line)]


def trace_files(data_dir) -> set:
    return set(data_dir.glob("*/trace.*.jsonl"))


def fields(trace) -> list[tuple]:
    return [
        (e.time, e.seq, e.site, e.category, e.name, e.details) for e in trace
    ]


async def settle(cluster) -> None:
    await cluster.run(until=cluster.sim.now + 200.0)
    await cluster.finalize()


def assert_dead_process_merged(cluster, data_dir, victim, pid) -> None:
    """Every row the victim's first process wrote appears once, in file
    order, before its crash; the next event is the restart's recovery."""
    rows = file_rows(data_dir / victim / f"trace.{pid}.jsonl")
    seqs = [row[0] for row in rows]
    assert rows and seqs == sorted(set(seqs))
    events = [event for event in cluster.sim.trace if event.site == victim]
    crash = next(
        i for i, event in enumerate(events) if event.matches("site", "crash")
    )
    assert [(e.time, e.category, e.name, e.details) for e in events[:crash]] == [
        tuple(row[1:]) for row in rows
    ]
    after = [
        (e.category, e.name)
        for e in events[crash + 1 :]
        if (e.category, e.name) != ("log", "torn_tail")
    ]
    assert after[0] == ("site", "recover")
    # No row of any process of the victim's appears twice.
    written = sum(
        len(file_rows(path)) for path in (data_dir / victim).glob("trace.*.jsonl")
    )
    assert sum(not e.matches("site", "crash") for e in events) == written
    assert [e.seq for e in cluster.sim.trace] == list(range(len(cluster.sim.trace)))


def test_one_process_is_its_file_rows_in_file_order_then_its_crash(tmp_path):
    path = tmp_path / "trace.1.jsonl"
    path.write_bytes(
        b'[[0,1.0,"log","append",{"txn":"t1"}],[1,1.1,"protocol","vote",{"txn":"t1"}],'
        b'[3,1.2,"db","prepared",{"txn":"t1"}]]\n'
        b'[[4,1.3,"log","force",{}]]\n'
        b'[[5,1.4,"protocol","forget",{"txn":"t1"}]]\n'
        b'[[6,1.5,"log","app'  # cut short by a kill
    )
    process = _Incarnation("p1")
    process.trace_file = path
    # Stamped by the supervisor's clock, which may read a little behind
    # the child's: the crash still comes last.
    process.crash = TraceEvent(1.35, 92, "p1", "site", "crash")
    assert [
        (e.time, e.seq, e.site, e.category, e.name, e.details)
        for e in process.ordered_events()
    ] == [
        (1.0, 0, "p1", "log", "append", {"txn": "t1"}),
        (1.1, 1, "p1", "protocol", "vote", {"txn": "t1"}),
        (1.2, 3, "p1", "db", "prepared", {"txn": "t1"}),
        (1.3, 4, "p1", "log", "force", {}),
        (1.4, 5, "p1", "protocol", "forget", {"txn": "t1"}),
        (1.35, 92, "p1", "site", "crash", {}),
    ]


def test_an_external_kill_mid_wave_keeps_every_event_the_process_wrote(tmp_path):
    txns = wave("w", 6)

    async def go():
        cluster = make_cluster(tmp_path)
        await cluster.start()
        pid = cluster._children[PRA].pid
        kills: list[asyncio.Task] = []

        async def kill_and_restart() -> None:
            await cluster.kill(PRA)
            await asyncio.sleep(cluster.sim.to_seconds(DOWN_UNITS))
            await cluster.restart(PRA)

        def on_event(event) -> None:
            # The wave's first decision: the rest are still in flight.
            if not kills and event.matches("protocol", "decide"):
                kills.append(asyncio.ensure_future(kill_and_restart()))

        cluster.sim.trace.subscribe(on_event)
        try:
            await cluster.run_pipelined(wave("warm", 2))
            for txn in txns:
                cluster.submit(txn, immediate=True)
            for txn in txns:
                await cluster.wait_decided(txn.txn_id, timeout=30.0)
            await kills[0]
            await settle(cluster)
        finally:
            await cluster.shutdown()
        return cluster, pid

    cluster, pid = asyncio.run(go())
    assert_dead_process_merged(cluster, tmp_path, PRA, pid)
    assert cluster.check().all_hold


def test_a_self_kill_mid_wave_keeps_every_event_the_process_wrote(tmp_path):
    txns = wave("w", 6)

    async def go():
        cluster = make_cluster(
            tmp_path, kills={PRA: KillSpec("part-after-prepared", "w2")}
        )
        await cluster.start()
        pid = cluster._children[PRA].pid
        try:
            for txn in txns:
                cluster.submit(txn, immediate=True)
            await cluster.wait_for_crash(PRA, timeout=30.0)
            await asyncio.sleep(cluster.sim.to_seconds(DOWN_UNITS))
            await cluster.restart(PRA)
            for txn in txns:
                await cluster.wait_decided(txn.txn_id, timeout=30.0)
            await settle(cluster)
        finally:
            await cluster.shutdown()
        return cluster, pid

    cluster, pid = asyncio.run(go())
    assert_dead_process_merged(cluster, tmp_path, PRA, pid)
    # The event that fired the kill reached the dead process's file.
    rows = file_rows(tmp_path / PRA / f"trace.{pid}.jsonl")
    assert ["db", "prepared", {"txn": "w2"}] in [row[2:] for row in rows]
    assert cluster.check().all_hold


def test_collect_twice_gives_the_same_trace_and_files_stay(tmp_path):
    async def go():
        cluster = make_cluster(tmp_path)
        await cluster.start()
        try:
            await cluster.run_pipelined(wave("t", 4))
            await settle(cluster)
            await cluster.collect()
            first = fields(cluster.sim.trace)
            await cluster.collect()
            second = fields(cluster.sim.trace)
        finally:
            await cluster.shutdown()
        return cluster, first, second

    cluster, first, second = asyncio.run(go())
    assert first == second
    # No crash: every process's events, and the processes, merge by time.
    times = [time for time, *_ in first]
    assert times == sorted(times)
    assert {(category, name) for _, _, _, category, name, _ in first} >= {
        ("log", "append"),
        ("db", "prepared"),
        ("protocol", "decide"),
    }
    assert len(trace_files(tmp_path)) == len(cluster.sites)


def test_an_earlier_clusters_trace_files_are_ignored(tmp_path):
    async def run_once(prefix: str) -> ProcessCluster:
        cluster = make_cluster(tmp_path)
        await cluster.start()
        try:
            await cluster.run_pipelined(wave(prefix, 3))
            await settle(cluster)
        finally:
            await cluster.shutdown()
        return cluster

    asyncio.run(run_once("a"))
    earlier = trace_files(tmp_path)
    # A stale file no process of the next cluster names.
    stale = tmp_path / PRA / "trace.1.jsonl"
    stale.write_bytes(b'[[0,0.0,"log","stale",{}]]\n')
    earlier.add(stale)

    cluster = asyncio.run(run_once("b"))
    assert trace_files(tmp_path) >= earlier
    ours = trace_files(tmp_path) - earlier
    assert ours
    # A failure-free run: the supervisor recorded no event of its own.
    assert len(cluster.sim.trace) == sum(len(file_rows(path)) for path in ours)
    assert not any(e.name == "stale" for e in cluster.sim.trace)


def test_a_failure_free_run_sends_at_most_12_control_frames_per_txn(
    tmp_path, monkeypatch
):
    frames = [0]

    class Counting(ControlDecoder):
        def feed(self, data: bytes) -> list:
            decoded = super().feed(data)
            frames[0] += len(decoded)
            return decoded

    monkeypatch.setattr(supervisor, "ControlDecoder", Counting)
    spec = WorkloadSpec(
        n_transactions=40,
        abort_fraction=0.25,
        participants_min=2,
        participants_max=3,
        hot_keys=0,
        seed=7,
    )
    cluster = asyncio.run(
        run_workload(
            ProcessCluster, MIX, "dynamic", spec, str(tmp_path), pipeline=8,
            fsync=False,
        )
    )
    assert len(cluster.outcomes()) == spec.n_transactions
    assert cluster.check().all_hold
    assert frames[0] / spec.n_transactions <= 12


def test_each_notified_event_appears_once_in_the_merged_trace(tmp_path):
    notified: list[tuple] = []

    def key(event) -> tuple:
        return (event.time, event.site, event.category, event.name, event.details)

    async def go():
        cluster = make_cluster(tmp_path)
        await cluster.start()
        cluster.sim.trace.subscribe(lambda event: notified.append(key(event)))
        try:
            await cluster.run_pipelined(wave("t", 6))
            await settle(cluster)
        finally:
            await cluster.shutdown()
        return cluster

    cluster = asyncio.run(go())
    merged = [key(event) for event in cluster.sim.trace]
    notified_categories = {category for _, _, category, _, _ in notified}
    assert "protocol" in notified_categories
    assert notified_categories.isdisjoint({"log", "db", "msg"})
    for event in notified:
        assert merged.count(event) == 1, event

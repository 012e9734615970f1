"""Forces requested in one event-loop tick share one fsync.

``FileStableLog.force_append_async`` writes its record to the file at
once and syncs at the end of the tick (``after_tick``); the tick fsyncs
once for every force requested in it, then records their ``log.force``
events and runs their completions in request order. Pinned here by
counting, not timing:

* on a log whose ticks end when the test says (``HeldTicks``) —
  fsyncs per tick, completion order, and every entry point that can
  meet a pending tick (crash, flush, compact, close);
* on the live runtime, whose ticks are event-loop iterations;
* on an 8-deep closed loop of live transactions, where forces have
  company, and on a lone one, where there is nothing to share.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.net.message import Message
from repro.rt import store as store_module
from repro.rt.cluster import LIVE_TIMEOUTS, LiveCluster
from repro.rt.runtime import LiveRuntime
from repro.rt.store import FileBackedStore
from repro.sim.kernel import Simulator
from repro.storage import file_log
from repro.storage.file_log import FileStableLog, load_wal_records
from repro.storage.log_records import LogRecord, RecordType
from repro.workloads.generator import WorkloadSpec, generate_transactions
from repro.workloads.mixes import three_way
from tests.rt.test_transport import Pair, wait_for
from tests.storage.test_file_log import HeldTicks

CODECS = ("json", "binary")


class CountingOs:
    """``os`` as a module sees it, logging each ``fsync`` into ``events``
    once the real (closed-file-refusing) call has returned."""

    def __init__(self, events: list) -> None:
        self.events = events

    def fsync(self, fd: int) -> None:
        os.fsync(fd)
        self.events.append("fsync")

    def __getattr__(self, name: str):
        return getattr(os, name)


@pytest.fixture
def events(monkeypatch) -> list:
    events: list = []
    monkeypatch.setattr(file_log, "os", CountingOs(events))
    return events


def rec(txn: str) -> LogRecord:
    return LogRecord(RecordType.PREPARED, txn, {"coordinator": "tm"})


def on_disk(path) -> list[str]:
    return [record.txn_id for record in load_wal_records(path)]


def forces(sim: Simulator) -> list:
    return list(sim.trace.select(category="log", name="force"))


class TestOneTick:
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_n_forces_one_fsync_then_completions_in_order(self, tmp_path, events, n):
        sim = HeldTicks()
        log = FileStableLog(sim, "s1", tmp_path / "wal", fsync=True)
        for i in range(n):
            log.force_append_async(rec(f"t{i}"), lambda i=i: events.append(i))
        # Written at request time, not yet synced or stable.
        assert on_disk(tmp_path / "wal") == [f"t{i}" for i in range(n)]
        assert events == []
        assert log.stable_record_count == 0 and log.buffered_record_count == 0
        assert log.force_count == 0 and forces(sim) == []

        sim.end_tick()
        assert events == ["fsync", *range(n)]
        assert log.force_count == n
        assert len(forces(sim)) == n
        assert log.stable_record_count == n

    def test_completion_sees_its_record_stable(self, tmp_path, events):
        sim = HeldTicks()
        log = FileStableLog(sim, "s1", tmp_path / "wal", fsync=True)
        seen = []

        def check(txn: str) -> None:
            seen.append(log.has_record(txn, RecordType.PREPARED))

        for txn in ("a", "b"):
            log.force_append_async(rec(txn), lambda txn=txn: check(txn))
        sim.end_tick()
        assert seen == [True, True]

    def test_lazy_records_ride_along_and_stay_buffered_otherwise(
        self, tmp_path, events
    ):
        sim = HeldTicks()
        log = FileStableLog(sim, "s1", tmp_path / "wal", fsync=True)
        log.append(rec("lazy"))
        log.force_append_async(rec("forced"))
        log.append(rec("after"))
        sim.end_tick()
        assert [r.txn_id for r in log.stable_records()] == ["lazy", "forced"]
        assert log.buffered_record_count == 1
        # The force's event counts what its write moved: both records.
        assert [e.details["flushed"] for e in forces(sim)] == [2]

    def test_consecutive_ticks_one_fsync_each(self, tmp_path, events):
        sim = HeldTicks()
        log = FileStableLog(sim, "s1", tmp_path / "wal", fsync=True)
        for tick in range(3):
            log.force_append_async(rec(f"t{tick}"), lambda t=tick: events.append(t))
            sim.end_tick()
        assert events == ["fsync", 0, "fsync", 1, "fsync", 2]

    def test_a_completion_that_forces_gets_the_next_tick(self, tmp_path, events):
        """The log's next tick, with its own fsync: the end of the tick
        drains until empty, so it runs in the same end."""
        sim = HeldTicks()
        log = FileStableLog(sim, "s1", tmp_path / "wal", fsync=True)
        log.force_append_async(
            rec("first"),
            lambda: log.force_append_async(rec("second"), lambda: events.append("2")),
        )
        sim.end_tick()
        assert events == ["fsync", "fsync", "2"]
        assert log.force_count == 2 and not sim.pending

    def test_no_fsync_mode_still_completes_at_the_tick(self, tmp_path, events):
        sim = HeldTicks()
        log = FileStableLog(sim, "s1", tmp_path / "wal", fsync=False)
        log.force_append_async(rec("t1"), lambda: events.append("done"))
        assert events == []
        sim.end_tick()
        assert events == ["done"]

    def test_under_the_simulator_a_force_completes_before_returning(
        self, tmp_path, events
    ):
        sim = Simulator(seed=7)
        log = FileStableLog(sim, "s1", tmp_path / "wal", fsync=True)
        log.force_append_async(rec("t1"), lambda: events.append("done"))
        events.append("returned")
        assert events == ["fsync", "done", "returned"]
        kinds = [(e.category, e.name) for e in sim.trace.select(category="log")]
        assert kinds == [("log", "append"), ("log", "force")]


class TestPendingTick:
    def test_crash_between_write_and_tick(self, tmp_path, events):
        sim = HeldTicks()
        path = tmp_path / "wal"
        log = FileStableLog(sim, "s1", path, fsync=True)
        log.force_append_async(rec("t1"), lambda: events.append("done"))
        log.crash()
        sim.end_tick()  # the tick fires on the dead log: nothing happens
        assert events == []
        assert log.force_count == 0
        reborn = FileStableLog(Simulator(seed=8), "s1", path, fsync=False)
        assert [r.txn_id for r in reborn.stable_records()] == ["t1"]
        # The written record survived the process, so the dead log's
        # own view agrees with the file.
        assert [r.txn_id for r in log.stable_records()] == ["t1"]

    @pytest.mark.parametrize("codec", CODECS)
    def test_flush_syncs_written_and_buffered_together(self, tmp_path, events, codec):
        sim = HeldTicks()
        path = tmp_path / "wal"
        log = FileStableLog(sim, "s1", path, fsync=True, codec=codec)
        log.force_append_async(rec("forced"), lambda: events.append("done"))
        log.append(rec("lazy"))
        assert log.flush() == 1
        assert events == ["fsync"]
        assert log.stable_record_count == 2
        sim.end_tick()  # nothing left to sync: no second fsync
        assert events == ["fsync", "done"]
        assert log.force_count == 1 and log.flush_count == 1
        assert on_disk(path) == ["forced", "lazy"]

    @pytest.mark.parametrize("codec", CODECS)
    def test_compact_keeps_written_records(self, tmp_path, events, codec):
        sim = HeldTicks()
        path = tmp_path / "wal"
        log = FileStableLog(sim, "s1", path, fsync=True, codec=codec)
        log.force_append(rec("old"))
        log.garbage_collect("old")
        log.force_append_async(rec("pending"), lambda: events.append("done"))
        events.clear()
        log.compact()
        assert on_disk(path) == ["pending"]
        sim.end_tick()
        assert events[-1] == "done"
        assert events.count("fsync") == 3  # sync, tmp file, directory
        assert log.force_count == 2
        reborn = FileStableLog(Simulator(seed=8), "s1", path, fsync=False, codec=codec)
        assert [r.txn_id for r in reborn.stable_records()] == ["pending"]

    @pytest.mark.parametrize("codec", CODECS)
    def test_close_syncs_and_the_tick_leaves_the_file_alone(
        self, tmp_path, events, codec
    ):
        sim = HeldTicks()
        path = tmp_path / "wal"
        log = FileStableLog(sim, "s1", path, fsync=True, codec=codec)
        log.force_append_async(rec("t1"), lambda: events.append("done"))
        log.close()
        assert events == ["fsync"]
        sim.end_tick()  # a real fsync of the closed file would raise
        assert events == ["fsync"]
        reborn = FileStableLog(Simulator(seed=8), "s1", path, fsync=False, codec=codec)
        assert [r.txn_id for r in reborn.stable_records()] == ["t1"]

    def test_synchronous_force_takes_the_written_records_along(self, tmp_path, events):
        sim = HeldTicks()
        log = FileStableLog(sim, "s1", tmp_path / "wal", fsync=True)
        log.force_append_async(rec("async"), lambda: events.append("done"))
        log.force_append(rec("sync"))
        assert events == ["fsync"]
        assert log.stable_record_count == 2
        sim.end_tick()
        assert events == ["fsync", "done"]
        assert log.force_count == 2


class TestLiveRuntime:
    def test_one_loop_iteration_is_one_tick(self, tmp_path, events):
        async def go():
            rt = LiveRuntime()
            log = FileStableLog(rt, "s1", tmp_path / "wal", fsync=True)
            for i in range(4):
                log.force_append_async(rec(f"t{i}"), lambda i=i: events.append(i))
            assert events == []
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            assert events == ["fsync", 0, 1, 2, 3]
            log.force_append_async(rec("t4"), lambda: events.append(4))
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            assert events == ["fsync", 0, 1, 2, 3, "fsync", 4]
            # The tick is not a timer: it leaves the runtime's step
            # count (what perf reads as timers fired) alone.
            assert rt.steps_executed == 0
            log.close()

        asyncio.run(go())


class TestEndOfTick:
    """``LiveRuntime.after_tick``: one end per event-loop iteration,
    drained until empty, each pending action once, first added first."""

    def test_a_pending_action_added_again_runs_once(self):
        async def go():
            rt = LiveRuntime()
            ran = []

            class Link:
                def flush(self) -> None:
                    ran.append(self)

            # Each ``link.flush`` is a new bound method, equal to the last.
            one, two = Link(), Link()
            for link in (one, two, one, two, one):
                rt.after_tick(link.flush)
            await asyncio.sleep(0)
            assert ran == [one, two]
            # Not a timer: the runtime's step count stays put.
            assert rt.steps_executed == 0

        asyncio.run(go())

    def test_an_action_that_adds_itself_runs_again_in_the_same_drain(self):
        async def go():
            rt = LiveRuntime()
            runs: list = []

            def again() -> None:
                runs.append(len(runs))
                if len(runs) < 3:
                    rt.after_tick(again)

            rt.after_tick(again)
            await asyncio.sleep(0)
            assert runs == [0, 1, 2]

        asyncio.run(go())

    def test_a_raising_action_drops_only_its_own_work(self):
        async def go():
            errors: list = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: errors.append(context["exception"])
            )
            rt = LiveRuntime()
            ran = []

            def boom() -> None:
                raise RuntimeError("boom")

            rt.after_tick(boom)
            rt.after_tick(lambda: ran.append("ok"))
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            assert ran == ["ok"]
            assert [type(error) for error in errors] == [RuntimeError]
            await asyncio.sleep(0)
            rt.after_tick(lambda: ran.append("later"))
            await asyncio.sleep(0)
            assert ran == ["ok", "later"]

        asyncio.run(go())

    def test_a_failed_fsync_drops_its_logs_completions_only(
        self, tmp_path, monkeypatch
    ):
        """A log whose fsync raises sends no Yes on it; a second log's
        forces of the same tick still complete."""
        events: list = []

        class FirstFsyncFails(CountingOs):
            def fsync(self, fd: int) -> None:
                if "failed" not in self.events:
                    self.events.append("failed")
                    raise OSError("fsync failed")
                super().fsync(fd)

        monkeypatch.setattr(file_log, "os", FirstFsyncFails(events))

        async def go():
            errors: list = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: errors.append(context["exception"])
            )
            rt = LiveRuntime()
            failing = FileStableLog(rt, "s1", tmp_path / "s1.wal", fsync=True)
            healthy = FileStableLog(rt, "s2", tmp_path / "s2.wal", fsync=True)
            for txn in ("a", "b"):
                failing.force_append_async(rec(txn), lambda: events.append("yes s1"))
                healthy.force_append_async(rec(txn), lambda: events.append("yes s2"))
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            assert events == ["failed", "fsync", "yes s2", "yes s2"]
            assert [type(error) for error in errors] == [OSError]
            assert failing.force_count == 0 and healthy.force_count == 2
            failing.close()
            healthy.close()

        asyncio.run(go())

    def test_a_forced_hops_frame_leaves_in_its_fsyncs_iteration(
        self, tmp_path, events, monkeypatch
    ):
        """The completion of a force sends to a peer; one loop
        iteration later both the fsync and that frame's write are done.
        A link with its own ``call_soon`` would write one iteration
        after the fsync."""

        async def go():
            async with Pair() as pair:
                pair.a.send(Message("PING", "a", "b", "t0"))
                await wait_for(lambda: pair.got["b"])
                connection = pair.a._links["b"]._conn
                write = connection.write

                def counting_write(data: bytes) -> None:
                    write(data)
                    events.append("write")

                monkeypatch.setattr(connection, "write", counting_write)
                log = FileStableLog(pair.rt, "a", tmp_path / "wal", fsync=True)
                log.force_append_async(
                    rec("t1"), lambda: pair.a.send(Message("VOTE_YES", "a", "b", "t1"))
                )
                assert events == []
                await asyncio.sleep(0)
                assert events == ["fsync", "write"]
                await wait_for(lambda: len(pair.got["b"]) == 2)
                log.close()

        asyncio.run(go())


class TestStoreCheckpoint:
    def test_a_checkpoint_that_changes_nothing_writes_nothing(
        self, tmp_path, monkeypatch
    ):
        events: list = []
        monkeypatch.setattr(store_module, "os", CountingOs(events))
        path = tmp_path / "store.json"
        store = FileBackedStore(path, fsync=True)
        store.checkpoint({"x": 1})
        assert events == ["fsync", "fsync"]  # tmp file, directory
        written = path.stat().st_mtime_ns
        store.checkpoint({"x": 1})
        assert events == ["fsync", "fsync"]
        assert path.stat().st_mtime_ns == written
        assert FileBackedStore(path).durable_snapshot() == {"x": 1}
        store.checkpoint({"x": 2})
        assert events.count("fsync") == 4

    def test_a_second_sweep_without_a_commit_makes_no_store_fsync(
        self, tmp_path, monkeypatch
    ):
        async def go():
            cluster = LiveCluster(
                three_way(3),
                tmp_path,
                coordinator="dynamic",
                timeouts=LIVE_TIMEOUTS,
                time_scale=0.005,
            )
            await cluster.start()
            try:
                await cluster.run_pipelined(stream(12), max_in_flight=4)
                await cluster.run(until=cluster.sim.now + 500.0)
                await cluster.finalize()
                events: list = []
                with monkeypatch.context() as patch:
                    patch.setattr(store_module, "os", CountingOs(events))
                    for site in cluster.sites.values():
                        site.flush_and_gc()
                assert events == []
                return {
                    site_id: site.store.durable_snapshot()
                    for site_id, site in cluster.sites.items()
                }
            finally:
                await cluster.shutdown()

        durable = asyncio.run(go())
        assert any(durable.values())
        for site_id, state in durable.items():
            reborn = FileBackedStore(tmp_path / site_id / "store.json")
            assert reborn.durable_snapshot() == state


def stream(n: int, seed: int = 35):
    spec = WorkloadSpec(
        n_transactions=n,
        abort_fraction=0.25,
        participants_min=2,
        participants_max=3,
        inter_arrival=1.0,
        hot_keys=0,
        seed=seed,
    )
    return list(generate_transactions(spec, sorted(three_way(3).site_protocols())))


def closed_epoch_fsyncs(tmp_path, monkeypatch, n: int, depth: int) -> dict:
    """``os.fsync`` calls and ``log.force`` events of one
    ``n``-transaction closed epoch ``depth`` deep on a fresh fsyncing
    cluster: while deciding and quiescing (``decide_*``), and in all
    with ``finalize()``."""
    fsyncs: list = []
    real_fsync = os.fsync

    def counting_fsync(fd: int) -> None:
        fsyncs.append(fd)
        real_fsync(fd)

    def forces(cluster) -> int:
        return len(list(cluster.sim.trace.select(category="log", name="force")))

    async def go():
        cluster = LiveCluster(
            three_way(3), tmp_path, coordinator="dynamic", timeouts=LIVE_TIMEOUTS
        )
        await cluster.start()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(os, "fsync", counting_fsync)
                await cluster.run_pipelined(stream(n), max_in_flight=depth)
                await cluster.run(until=cluster.sim.now + 100.0)
                counts = {
                    "decide_fsyncs": len(fsyncs),
                    "decide_forces": forces(cluster),
                }
                await cluster.finalize()
            assert len(cluster.outcomes()) == n
            assert cluster.check().all_hold
            return {**counts, "fsyncs": len(fsyncs), "forces": forces(cluster)}
        finally:
            await cluster.shutdown()

    return asyncio.run(go())


def test_an_8_deep_closed_epoch_shares_its_fsyncs(tmp_path, monkeypatch):
    """Each transaction forces ~5.5 records; 8 in flight share the
    ticks' fsyncs, so the epoch, finalize included, pays at most 3
    fsyncs per transaction (5.58 when every force had its own)."""
    n = 125
    counts = closed_epoch_fsyncs(tmp_path, monkeypatch, n, depth=8)
    assert counts["forces"] / n > 5
    per_txn = counts["fsyncs"] / n
    assert per_txn <= 3, f"{per_txn:.2f} fsyncs per transaction"


def test_a_lone_transaction_has_nothing_to_share(tmp_path, monkeypatch):
    """One transaction in flight: every force waits for its own fsync."""
    counts = closed_epoch_fsyncs(tmp_path, monkeypatch, 10, depth=1)
    assert counts["decide_fsyncs"] == counts["decide_forces"] > 0

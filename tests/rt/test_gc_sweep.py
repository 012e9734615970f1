"""One compaction per GC sweep, and the crash window it opens.

``garbage_collect`` edits memory and marks the WAL file stale;
``Site.flush_and_gc`` compacts a stale file once at its end. Two
consequences are pinned here on live sites over real files:

* cost — a sweep's file work does not depend on how many transactions
  it forgets (counted, not timed), and the log lets go of every record
  it collected;
* the window — a process that dies after collecting and before
  compacting restarts, from the file, as one that died before the
  sweep, and the next sweep finishes the job.
"""

from __future__ import annotations

import asyncio
import gc
import os
import weakref

import pytest

from repro.rt.cluster import LIVE_TIMEOUTS, LiveCluster
from repro.rt.host import WAL_FILE
from repro.storage import file_log
from repro.storage.file_log import load_wal_records, record_to_json
from repro.workloads.generator import (
    COORDINATOR_ID,
    WorkloadSpec,
    generate_transactions,
)
from repro.workloads.mixes import three_way


def transactions(n: int, mix):
    spec = WorkloadSpec(
        n_transactions=n,
        abort_fraction=0.25,
        participants_min=2,
        participants_max=3,
        inter_arrival=1.0,
        hot_keys=0,
        seed=907,
    )
    return list(generate_transactions(spec, sorted(mix.site_protocols())))


async def decided_cluster(tmp_path, n: int, **options) -> LiveCluster:
    """``n`` transactions decided and forgotten, nothing swept yet."""
    mix = three_way(3)
    cluster = LiveCluster(
        mix,
        tmp_path,
        coordinator="dynamic",
        timeouts=LIVE_TIMEOUTS,
        time_scale=0.005,
        **options,
    )
    await cluster.start()
    await cluster.run_pipelined(transactions(n, mix))
    await cluster.run(until=cluster.sim.now + 500.0)
    assert cluster.quiescent()
    return cluster


class CountingOs:
    """``os`` as the file log sees it, counting its ``fsync`` calls (the
    store's checkpoint fsyncs through its own module's ``os``)."""

    def __init__(self) -> None:
        self.fsyncs = 0

    def fsync(self, fd: int) -> None:
        self.fsyncs += 1
        os.fsync(fd)

    def __getattr__(self, name: str):
        return getattr(os, name)


def sweep_cost(tmp_path, n: int, monkeypatch) -> dict[str, tuple[int, int, int]]:
    """Per site: (transactions collected, ``encode_records`` calls,
    WAL ``os.fsync`` calls) of one ``flush_and_gc()`` after ``n``
    transactions."""

    async def go():
        cluster = await decided_cluster(tmp_path, n, fsync=True)
        costs = {}
        try:
            for site_id, site in cluster.sites.items():
                site.log.flush()
                doomed = [weakref.ref(r) for r in site.log.stable_records()]
                counting_os, encodes = CountingOs(), []
                real_encode = file_log.encode_records
                with monkeypatch.context() as patch:
                    patch.setattr(file_log, "os", counting_os)
                    patch.setattr(
                        file_log,
                        "encode_records",
                        lambda *a: encodes.append(1) or real_encode(*a),
                    )
                    collected = site.flush_and_gc()
                costs[site_id] = (collected, len(encodes), counting_os.fsyncs)
                # Everything was decided and forgotten: the sweep
                # collects all of it and the log keeps none of it alive.
                assert site.uncollected_log_transactions() == set()
                gc.collect()
                assert not any(ref() is not None for ref in doomed)
                assert load_wal_records(tmp_path / site_id / WAL_FILE) == []
        finally:
            await cluster.shutdown()
        return costs

    return asyncio.run(go())


def test_sweep_file_work_is_independent_of_transactions_forgotten(
    tmp_path, monkeypatch
):
    few = sweep_cost(tmp_path / "few", 6, monkeypatch)
    many = sweep_cost(tmp_path / "many", 24, monkeypatch)
    for site_id in few:
        collected_few, *cost_few = few[site_id]
        collected_many, *cost_many = many[site_id]
        assert collected_many >= 3 * collected_few > 0, site_id
        assert cost_few == cost_many, site_id
        # One compaction: one encode, the tmp-file fsync and the
        # directory fsync (the flush before it found nothing buffered).
        assert cost_many == [1, 2], site_id


class SimulatedProcessKill(BaseException):
    """Stands in for the process dying between collection and compaction."""


@pytest.mark.parametrize("codec", ["json", "binary"])
def test_crash_between_collection_and_compaction_is_a_crash_before_the_sweep(
    tmp_path, codec
):
    def die():
        raise SimulatedProcessKill()

    async def go():
        cluster = await decided_cluster(tmp_path, 8, fsync=False, codec=codec)
        try:
            for victim in (sorted(cluster.sites)[0], COORDINATOR_ID):
                site = cluster.sites[victim]
                wal = tmp_path / victim / WAL_FILE
                site.log.flush()
                pre_sweep = [record_to_json(r) for r in site.log.stable_records()]
                assert pre_sweep
                site.log.compact = die
                with pytest.raises(SimulatedProcessKill):
                    site.flush_and_gc()
                # Memory collected, the file did not: a restart reloads
                # the pre-sweep records, whole.
                assert site.uncollected_log_transactions() == set()
                assert [record_to_json(r) for r in load_wal_records(wal)] == pre_sweep
                await cluster.kill(victim)
                await cluster.restart(victim)  # a fresh Site.cold_recover()
                assert cluster.sites[victim] is not site
            await cluster.run(until=cluster.sim.now + 500.0)
            await cluster.finalize()
            for site_id, site in cluster.sites.items():
                assert site.uncollected_log_transactions() == set(), site_id
                assert load_wal_records(tmp_path / site_id / WAL_FILE) == []
            assert cluster.check().all_hold
        finally:
            await cluster.shutdown()

    asyncio.run(go())

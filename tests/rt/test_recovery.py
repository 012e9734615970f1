"""Live crash-recovery: kill a real site mid-protocol, restart it from
its on-disk log, and require the cluster to terminate every
transaction correctly.

This is the acceptance scenario the live runtime exists for: unlike
the simulator's ``Site.crash()``/``recover()`` (same process, same
objects), a live restart builds a *new* ``Site`` over the file-backed
WAL and store snapshot — the only continuity is what
``FileStableLog``/``FileBackedStore`` persisted, exactly as for a real
process death.

Structure: a first wave of transactions is in flight when the victim
dies (triggered by its first relevant log append, so the kill is
mid-protocol by construction); a second wave is submitted only after
the restart completed, so its outcome exercises the *recovered* site.
"""

from __future__ import annotations

import asyncio
import dataclasses

import pytest

from repro.rt.cluster import LIVE_TIMEOUTS, LiveCluster
from repro.rt.proc import CRASH_POINTS, KillSpec, ProcessCluster
from repro.workloads.generator import (
    COORDINATOR_ID,
    WorkloadSpec,
    generate_transactions,
)
from repro.workloads.mixes import homogeneous
from tests.conformance.harness import equivalence_summary

N_TRANSACTIONS = 10
FIRST_WAVE = 4

SPEC = WorkloadSpec(
    n_transactions=N_TRANSACTIONS,
    abort_fraction=0.2,
    participants_min=2,
    participants_max=3,
    inter_arrival=1.0,
    hot_keys=0,
    seed=701,
)


def run_kill_restart(tmp_path, victim, trigger_type, protocol, down_units=30.0):
    """Run SPEC in two waves around a kill/restart of ``victim``.

    The kill fires on the victim's first ``trigger_type`` log append;
    the second wave is submitted after recovery completed. Returns
    ``(cluster, recovery_report)``.
    """
    mix = homogeneous(protocol, 4)
    transactions = list(generate_transactions(SPEC, sorted(mix.site_protocols())))

    async def go():
        cluster = LiveCluster(
            mix,
            tmp_path,
            coordinator=protocol,
            timeouts=LIVE_TIMEOUTS,
            time_scale=0.005,
            fsync=False,
        )
        await cluster.start()
        report = None
        kill_task: list[asyncio.Task] = []

        def on_event(event):
            if (
                not kill_task
                and event.site == victim
                and event.category == "log"
                and event.name == "append"
                and event.details.get("type") == trigger_type
            ):
                kill_task.append(asyncio.ensure_future(kill_and_restart()))

        async def kill_and_restart():
            nonlocal report
            await cluster.kill(victim)
            await asyncio.sleep(cluster.sim.to_seconds(down_units))
            report = await cluster.restart(victim)

        cluster.sim.trace.subscribe(on_event)
        try:
            for txn in transactions[:FIRST_WAVE]:
                cluster.submit(txn)
            deadline = asyncio.get_running_loop().time() + 10.0
            while not kill_task:
                if asyncio.get_running_loop().time() > deadline:
                    pytest.fail("kill trigger never fired")
                await asyncio.sleep(0.005)
            await kill_task[0]
            # The victim is recovered: the second wave runs against the
            # rebuilt Site (past submit_at values start immediately).
            for txn in transactions[FIRST_WAVE:]:
                cluster.submit(txn)
            await cluster.run(until=cluster.sim.now + 500.0)
            await cluster.finalize()
        finally:
            await cluster.shutdown()
        return cluster, report

    return asyncio.run(go())


def test_participant_killed_mid_protocol_recovers(tmp_path):
    mix = homogeneous("PrA", 4)
    victim = sorted(mix.site_protocols())[0]
    cluster, report = run_kill_restart(
        tmp_path, victim, trigger_type="prepared", protocol="PrA"
    )

    # The kill actually happened mid-protocol and recovery ran.
    assert cluster.sim.trace.first("site", "crash", site=victim) is not None
    assert cluster.sim.trace.first("site", "recover", site=victim) is not None
    assert report is not None

    # Every transaction terminated despite the outage: a decision, or a
    # refusal because the victim was down when the work arrived.
    outcomes = cluster.outcomes()
    assert cluster.quiescent()

    # The recovered site took part in new transactions: second-wave
    # commits that wrote at the victim reached its rebuilt store.
    committed_writes = [
        txn.txn_id
        for txn in cluster.submitted[FIRST_WAVE:]
        if outcomes.get(txn.txn_id) == "commit" and victim in txn.writes
    ]
    assert committed_writes, "no committed post-recovery write at the victim"
    store = cluster.sites[victim].store.snapshot()
    for txn_id in committed_writes:
        assert txn_id in store.values(), (txn_id, store)

    # All three checkers hold over the full trace, including the
    # crash/recovery portion.
    reports = cluster.check()
    assert reports.atomicity.holds, reports.atomicity.violations
    assert reports.safe_state.holds, reports.safe_state.violations
    assert reports.operational.holds, reports.operational.violations


def test_coordinator_killed_mid_protocol_recovers(tmp_path):
    # PrC: the coordinator force-writes an initiation record before any
    # PREPARE goes out, so the kill lands squarely mid-protocol.
    cluster, report = run_kill_restart(
        tmp_path, COORDINATOR_ID, trigger_type="initiation", protocol="PrC"
    )

    assert cluster.sim.trace.first("site", "crash", site=COORDINATOR_ID) is not None
    assert report is not None

    # First-wave transactions arriving during the outage were refused;
    # everything else got a decision — nothing hangs.
    outcomes = cluster.outcomes()
    refused = {
        event.details["txn"]
        for event in cluster.sim.trace.select(
            category="system", name="txn_not_started"
        )
    }
    assert set(outcomes) | refused == {t.txn_id for t in cluster.submitted}
    # The whole second wave ran on the recovered coordinator.
    for txn in cluster.submitted[FIRST_WAVE:]:
        assert txn.txn_id in outcomes
    assert cluster.quiescent()
    reports = cluster.check()
    assert reports.all_hold, reports


@pytest.mark.parametrize("cluster_cls", (LiveCluster, ProcessCluster))
def test_new_cluster_over_an_old_directory_boots_recovery_first(
    cluster_cls, tmp_path
):
    """Booting is one path for both runtimes: whoever starts over a
    directory that holds a WAL analyses it and resolves what is in
    doubt, whether the previous incarnation died in this run or in an
    earlier one."""
    mix = homogeneous("PrA", 3)
    spec = dataclasses.replace(SPEC, n_transactions=3, abort_fraction=0.0)
    wave = list(generate_transactions(spec, sorted(mix.site_protocols())))
    target = wave[0]
    victim = sorted(target.writes)[0]
    point = "part-after-prepared"
    options = dict(
        coordinator="PrA", timeouts=LIVE_TIMEOUTS, time_scale=0.005, fsync=False
    )

    async def die_in_doubt():
        """Run the wave until the victim dies holding a stable prepared
        record, then leave without finalizing."""
        # A child arms the crash point inside itself; the in-process
        # victim is killed from a trace subscription (the crash lands
        # before its loop handles any further message).
        in_child = (
            {"kills": {victim: KillSpec(point, target.txn_id)}}
            if cluster_cls is ProcessCluster
            else {}
        )
        cluster = cluster_cls(mix, tmp_path, **in_child, **options)
        await cluster.start()
        try:
            if not in_child:
                at_prepared = CRASH_POINTS[point].make_predicate(victim, target.txn_id)
                cluster.sim.trace.subscribe(
                    lambda event: at_prepared(event)
                    and asyncio.ensure_future(cluster.kill(victim))
                )
            for txn in wave:
                cluster.submit(txn, immediate=True)
            while cluster.sim.trace.first("site", "crash", site=victim) is None:
                await asyncio.sleep(0.01)
        finally:
            await cluster.shutdown()

    async def come_back():
        cluster = cluster_cls(mix, tmp_path, **options)
        await cluster.start()
        try:
            recovered = cluster.sim.trace.first("site", "recover", site=victim)
            await cluster.run(until=cluster.sim.now + 500.0)
            await cluster.finalize()
        finally:
            await cluster.shutdown()
        return cluster, recovered

    asyncio.run(die_in_doubt())
    cluster, recovered = asyncio.run(come_back())

    assert recovered is not None
    summary = equivalence_summary(cluster)
    # The victim's in-doubt transaction was resolved by inquiry.
    assert victim in summary["enforcements"].get(target.txn_id, {})
    assert all(summary["checks"].values()), summary["checks"]

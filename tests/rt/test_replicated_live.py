"""The replicated coordinator over the live runtimes.

Three claims, in increasing order of hostility:

* **Conformance** — a replicated live run (in-process ``LiveCluster``,
  real sockets, file WALs, Paxos acceptors as real hosts) produces the
  byte-identical equivalence footprint of its replicated simulator
  twin, exactly as the plain live stack does.
* **Acceptor durability** — SIGKILLing an acceptor *process* right
  after it forces an accept record loses nothing: the quorum carries
  the in-flight transaction, and the respawned acceptor rebuilds its
  Paxos instances from its own WAL (recovery-first boot) before
  serving again.
* **Nonblocking** — SIGKILLing the *leader* process mid-PREPARE, the
  schedule that wedges the plain single coordinator forever, does not
  block the replicated cluster: an acceptor takes over after the
  liveness timeout and drives the in-flight transaction to a decision
  with the leader still dead.
"""

from __future__ import annotations

import asyncio
import dataclasses

from repro.mdbs.topology import Topology
from repro.protocols.base import TimeoutConfig
from repro.rt import cluster as live
from repro.rt.proc import KillSpec, ProcessCluster
from repro.workloads.generator import COORDINATOR_ID, generate_transactions
from tests.conformance.harness import (
    CONFORMANCE_TIMEOUTS,
    PROTOCOL_SETUPS,
    conformance_spec,
    equivalence_summary,
    run_workload,
)

#: Pinned seed: the CI live-smoke job replays this exact comparison.
CONFORMANCE_SEED = 1303

#: Acceptor group size for every test here (majority 2).
N_ACCEPTORS = 3

#: Modest workloads — each live case runs a real cluster (7 processes
#: in the multiprocess cases) for a few wall seconds.
N_TRANSACTIONS = 8

#: Wall seconds per virtual unit for the process-cluster cases. The
#: replication defaults put the first takeover 40 virtual units after
#: leader silence, i.e. ~0.4 s here.
TIME_SCALE = 0.01

#: Virtual-unit outage between a SIGKILL and the respawn.
DOWN_FOR = 30.0

#: Relaxed protocol timers (the SIGKILL matrix settings): child-process
#: boot adds tens of virtual units to an outage, so every protocol
#: timer stays far beyond any wall-clock hiccup. The replication
#: failover timeout (40 units) is deliberately *not* relaxed — the
#: leader-kill test is about that timer firing.
KILL_TIMEOUTS = TimeoutConfig(
    vote_timeout=240.0,
    resend_interval=120.0,
    inquiry_timeout=180.0,
    inquiry_retry=120.0,
    active_timeout=480.0,
)

#: Virtual-unit budget for each wave of a kill run.
WAVE_BUDGET = 800.0


def test_live_replicated_run_matches_simulator(tmp_path):
    """The conformance claim with the quorum in the loop: same
    workload, same seed, acceptors as real socket hosts with their own
    WALs — identical equivalence footprint to the replicated sim."""
    mix, coordinator = PROTOCOL_SETUPS["PrAny"]
    spec = conformance_spec(
        CONFORMANCE_SEED, n_transactions=N_TRANSACTIONS, inter_arrival=1.0
    )

    sim_summary = equivalence_summary(
        run_workload(mix, coordinator, spec, replicated=N_ACCEPTORS)
    )

    cluster = asyncio.run(
        live.run_workload(
            live.LiveCluster,
            mix,
            coordinator,
            spec,
            str(tmp_path),
            fsync=False,
            timeouts=CONFORMANCE_TIMEOUTS,
            topology=Topology.replicated(N_ACCEPTORS),
        )
    )
    live_summary = equivalence_summary(cluster)

    assert live_summary == sim_summary
    assert len(live_summary["decisions"]) == N_TRANSACTIONS
    assert live_summary["checks"] == {
        "atomicity": True,
        "safe_state": True,
        "operational": True,
    }
    # Replication actually engaged: acceptor hosts exist, every
    # transaction left ACCEPT records at acc sites, and the finalize
    # sweeps drained them all (empty acceptor residue).
    acceptors = {f"acc{i}" for i in range(N_ACCEPTORS)}
    assert acceptors <= set(live_summary["stable_residue"])
    for acceptor_id in acceptors:
        assert live_summary["stable_residue"][acceptor_id] == []
    for records in live_summary["appended_records"].values():
        assert any(site in acceptors for site, _ in records)


def _replicated_cluster(tmp_path, kills):
    mix, coordinator = PROTOCOL_SETUPS["PrAny"]
    return ProcessCluster(
        mix,
        str(tmp_path),
        coordinator=coordinator,
        seed=CONFORMANCE_SEED,
        timeouts=KILL_TIMEOUTS,
        time_scale=TIME_SCALE,
        fsync=True,
        kills=kills,
        topology=Topology.replicated(N_ACCEPTORS),
    )


def _kill_spec():
    """Commit-only stream: the victim transaction's outcome must come
    from the failure handling, never from a generated abort."""
    return conformance_spec(
        CONFORMANCE_SEED, n_transactions=4, abort_fraction=0.0
    )


def _second_wave(transactions, now, inter_arrival):
    return [
        dataclasses.replace(txn, submit_at=now + (i + 1) * inter_arrival)
        for i, txn in enumerate(transactions)
    ]


def test_leader_sigkill_mid_prepare_does_not_block(tmp_path):
    """The tentpole, over real processes: SIGKILL the leader between
    sending PREPARE and deciding — the exact schedule that blocks a
    single coordinator forever — and the in-flight transaction still
    reaches a decision *while the leader stays dead*, driven by an
    acceptor's takeover from quorum state."""
    spec = _kill_spec()

    async def go():
        mix, _ = PROTOCOL_SETUPS["PrAny"]
        transactions = generate_transactions(spec, sorted(mix.site_protocols()))
        target = transactions[0]
        cluster = _replicated_cluster(
            tmp_path,
            kills={
                COORDINATOR_ID: KillSpec(
                    point="coord-after-prepare-sent", txn=target.txn_id
                )
            },
        )
        await cluster.start()
        try:
            cluster.submit(
                dataclasses.replace(target, submit_at=0.0), immediate=True
            )
            await cluster.wait_for_crash(COORDINATOR_ID, timeout=60.0)
            # The nonblocking proof: the decision arrives with the
            # leader process dead and never restarted.
            await cluster.wait_decided(target.txn_id, timeout=90.0)
            assert cluster.sim is not None
            decide_sites = {
                event.site
                for event in cluster.sim.trace.select(
                    category="protocol", name="decide"
                )
                if event.details.get("txn") == target.txn_id
            }
            assert any(site.startswith("acc") for site in decide_sites)
            # The repaired leader rejoins (quorum recovery sweep, not
            # the local presumed-abort path) and serves the rest.
            report = await cluster.restart(COORDINATOR_ID)
            assert report is not None
            for txn in _second_wave(
                transactions[1:], cluster.sim.now, spec.inter_arrival
            ):
                cluster.submit(txn)
            await cluster.run(until=cluster.sim.now + WAVE_BUDGET)
            await cluster.finalize()
        finally:
            await cluster.shutdown()
        return equivalence_summary(cluster)

    summary = asyncio.run(go())
    assert len(summary["decisions"]) == 4
    assert summary["checks"] == {
        "atomicity": True,
        "safe_state": True,
        "operational": True,
    }
    # Nothing left wedged anywhere — the blocked-forever outcome of the
    # plain coordinator would show here as retained state.
    for records in summary["stable_residue"].values():
        assert records == []


def test_acceptor_sigkill_recovers_paxos_state_from_disk(tmp_path):
    """SIGKILL an acceptor right after it forces an accept record: the
    quorum's majority carries the transaction meanwhile, and the
    respawned process rebuilds its Paxos instances from its own WAL
    (recovery-first) before serving again."""
    spec = _kill_spec()

    async def go():
        mix, _ = PROTOCOL_SETUPS["PrAny"]
        transactions = generate_transactions(spec, sorted(mix.site_protocols()))
        target = transactions[0]
        victim = "acc1"
        cluster = _replicated_cluster(
            tmp_path,
            kills={victim: KillSpec(point="acc-after-accept", txn=target.txn_id)},
        )
        await cluster.start()
        try:
            cluster.submit(
                dataclasses.replace(target, submit_at=0.0), immediate=True
            )
            await cluster.wait_for_crash(victim, timeout=60.0)
            # Majority (acc0+acc2) still acks: the decision lands with
            # the victim dead.
            await cluster.wait_decided(target.txn_id, timeout=90.0)
            assert cluster.sim is not None
            await asyncio.sleep(cluster.sim.to_seconds(DOWN_FOR))
            report = await cluster.restart(victim)
            assert report is not None
            recovered = [
                event
                for event in cluster.sim.trace.select(
                    category="recovery", name="acceptor_done"
                )
                if event.site == victim
            ]
            # The forced accept (and registration) survived the kill.
            assert recovered and recovered[-1].details["instances"] >= 1
            for txn in _second_wave(
                transactions[1:], cluster.sim.now, spec.inter_arrival
            ):
                cluster.submit(txn)
            await cluster.run(until=cluster.sim.now + WAVE_BUDGET)
            await cluster.finalize()
        finally:
            await cluster.shutdown()
        return equivalence_summary(cluster)

    summary = asyncio.run(go())
    assert len(summary["decisions"]) == 4
    assert summary["checks"] == {
        "atomicity": True,
        "safe_state": True,
        "operational": True,
    }

"""SIGKILL crash matrix: process death at every record boundary.

For each protocol of the paper and each on-disk record boundary of the
commit protocol — initiation stable, prepared stable, decision taken,
acks collected (end record) — one site process self-``SIGKILL``\\ s at
that exact instant (the crash-point predicate from the explorer's
catalogue fires *inside* the victim process), the cluster keeps
running, the victim is respawned after a fixed outage, and the run is
driven to quiescence.

The oracle is the deterministic simulator given the *same* crash
schedule: the multi-process run's ``equivalence_summary`` footprint —
decisions, per-site enforcements, per-transaction stable-record sets,
forget/GC behavior, stable residue, final stores, and all three checker
verdicts (atomicity, SafeState, operational) — must match the sim twin
byte for byte on the pinned seed.

Cells whose boundary a protocol never reaches (PrN and PrA write no
initiation record; a read-only victim writes no prepared record) are
detected by running the sim twin first and skipped explicitly.
"""

from __future__ import annotations

import asyncio
import dataclasses

import pytest

from repro.mdbs.transaction import GlobalTransaction
from repro.protocols.base import TimeoutConfig
from repro.rt.proc import KillSpec, ProcessCluster
from repro.sim.tracing import TraceEvent
from repro.workloads.generator import COORDINATOR_ID, build_mdbs, generate_transactions
from tests.conformance.harness import (
    PROTOCOL_SETUPS,
    conformance_spec,
    equivalence_summary,
)

#: Pinned seed for the whole matrix (same as the conformance suite).
MATRIX_SEED = 1303

#: Small two-wave workload: the first transaction takes the crash, the
#: remaining three prove the recovered cluster still serves.
N_TRANSACTIONS = 4

#: Virtual-unit outage between the SIGKILL and the respawn.
DOWN_FOR = 30.0

#: Wall seconds per virtual unit. Child-process boot (~0.2–0.5 s) adds
#: 20–50 virtual units to the live victim's effective outage, so the
#: matrix timeouts below leave every protocol timer far beyond
#: ``DOWN_FOR`` + boot: no timer can fire in the sim twin but not live.
TIME_SCALE = 0.01

#: Extra-relaxed timeouts for the matrix (see TIME_SCALE note).
MATRIX_TIMEOUTS = TimeoutConfig(
    vote_timeout=240.0,
    resend_interval=120.0,
    inquiry_timeout=180.0,
    inquiry_retry=120.0,
    active_timeout=480.0,
)

#: Virtual-unit budget for each wave of the run.
WAVE_BUDGET = 800.0

#: The record boundaries of the matrix: every instant the protocols
#: make something stable (or collect the acks that license forgetting).
#: All are events *local to the victim*, which is what an in-process
#: self-SIGKILL can observe. Receiver-side points (``part-before-*``)
#: need an out-of-band injector and stay explorer-only.
COORDINATOR_POINTS = (
    "coord-after-initiation",  # initiation record stable
    "coord-after-decide",  # decision record stable
    "coord-after-end-append",  # end record stable (acks collected)
)
PARTICIPANT_POINTS = (
    "part-after-prepared",  # prepared record stable
    "part-after-enforce-commit",  # decision enforced locally
)

PROTOCOLS = ("PrN", "PrA", "PrC", "PrAny")


def _matrix_spec():
    """Failure-free-apart-from-the-kill workload: private keys and all
    commits, so outcomes are schedule-independent and the only
    divergence a cell can show is the crash handling itself."""
    return conformance_spec(
        MATRIX_SEED, n_transactions=N_TRANSACTIONS, abort_fraction=0.0
    )


def _pick_victim(point: str, txn: GlobalTransaction) -> str:
    """Coordinator points kill ``tm``; participant points kill a site
    doing writes for the target transaction (a read-only participant
    never writes a prepared record)."""
    if point.startswith("coord-"):
        return COORDINATOR_ID
    writers = sorted(txn.writes)
    assert writers, f"{txn.txn_id} has no writers to kill"
    return writers[0]


def _second_wave(transactions, now, inter_arrival):
    """Rebase the post-recovery transactions to start after ``now``."""
    return [
        dataclasses.replace(txn, submit_at=now + (i + 1) * inter_arrival)
        for i, txn in enumerate(transactions)
    ]


def run_sim_twin(protocol: str, point: str, spec) -> "tuple[dict, bool]":
    """The oracle: same workload, same crash instant, same outage, in
    the deterministic simulator. Returns (summary, fired)."""
    mix, coordinator = PROTOCOL_SETUPS[protocol]
    mdbs = build_mdbs(
        mix, coordinator=coordinator, seed=spec.seed, timeouts=MATRIX_TIMEOUTS
    )
    transactions = generate_transactions(spec, sorted(mix.site_protocols()))
    target = transactions[0]
    victim = _pick_victim(point, target)
    from repro.rt.proc import CRASH_POINTS

    predicate = CRASH_POINTS[point].make_predicate(victim, target.txn_id)
    fired = []

    def on_event(event: TraceEvent) -> None:
        if not fired and predicate(event):
            fired.append(event.time)
            site = mdbs.sites[victim]
            # Crash after the current synchronous action completes
            # (messages already sent stay in the network), recover
            # after the fixed outage — the semantics the site process
            # reproduces with inbound-block + outbound-drain + SIGKILL.
            mdbs.sim.schedule(0.0, site.crash)
            mdbs.sim.schedule(DOWN_FOR, site.recover)

    mdbs.sim.trace.subscribe(on_event)
    mdbs.submit(dataclasses.replace(target, submit_at=0.0))
    mdbs.run(until=WAVE_BUDGET)
    for txn in _second_wave(
        transactions[1:], mdbs.sim.now, spec.inter_arrival
    ):
        mdbs.submit(txn)
    mdbs.run(until=mdbs.sim.now + WAVE_BUDGET)
    mdbs.finalize()
    return equivalence_summary(mdbs), bool(fired)


async def run_live_cell(
    protocol: str, point: str, spec, data_dir, codec: str = "json"
) -> dict:
    """The system under test: same schedule over real processes, the
    kill a genuine self-SIGKILL inside the victim."""
    mix, coordinator = PROTOCOL_SETUPS[protocol]
    transactions = generate_transactions(spec, sorted(mix.site_protocols()))
    target = transactions[0]
    victim = _pick_victim(point, target)
    cluster = ProcessCluster(
        mix,
        data_dir,
        coordinator=coordinator,
        seed=spec.seed,
        timeouts=MATRIX_TIMEOUTS,
        time_scale=TIME_SCALE,
        fsync=True,
        kills={victim: KillSpec(point=point, txn=target.txn_id)},
        codec=codec,
    )
    await cluster.start()
    try:
        cluster.submit(dataclasses.replace(target, submit_at=0.0), immediate=True)
        # Wall-clock guards, not protocol timers: generous enough that a
        # loaded host (full-suite run, fsync contention) cannot trip them.
        await cluster.wait_for_crash(victim, timeout=60.0)
        await asyncio.sleep(cluster.sim.to_seconds(DOWN_FOR))
        report = await cluster.restart(victim)
        assert report is not None
        await cluster.wait_decided(target.txn_id, timeout=90.0)
        assert cluster.sim is not None
        for txn in _second_wave(
            transactions[1:], cluster.sim.now, spec.inter_arrival
        ):
            cluster.submit(txn)
        await cluster.run(until=cluster.sim.now + WAVE_BUDGET)
        await cluster.finalize()
    finally:
        await cluster.shutdown()
    return equivalence_summary(cluster)


def _run_cell(protocol: str, point: str, tmp_path, codec: str = "json") -> None:
    spec = _matrix_spec()
    sim_summary, fired = run_sim_twin(protocol, point, spec)
    if not fired:
        pytest.skip(
            f"{protocol} never reaches {point} on this workload "
            f"(no such record boundary for this protocol/role)"
        )
    live_summary = asyncio.run(
        run_live_cell(protocol, point, spec, str(tmp_path), codec=codec)
    )
    assert live_summary == sim_summary
    assert live_summary["checks"] == {
        "atomicity": True,
        "safe_state": True,
        "operational": True,
    }
    assert len(live_summary["decisions"]) == N_TRANSACTIONS


@pytest.mark.parametrize("point", COORDINATOR_POINTS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_coordinator_sigkill_matrix(protocol, point, tmp_path):
    _run_cell(protocol, point, tmp_path)


@pytest.mark.parametrize("point", PARTICIPANT_POINTS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_participant_sigkill_matrix(protocol, point, tmp_path):
    _run_cell(protocol, point, tmp_path)


@pytest.mark.parametrize(
    "protocol,point",
    [("PrC", "part-after-prepared"), ("PrAny", "coord-after-decide")],
)
def test_sigkill_recovery_from_binary_wal(protocol, point, tmp_path):
    """A SIGKILLed site must recover from a *binary* WAL exactly as it
    does from JSONL: the respawned victim reloads struct-packed records
    (torn tail discarded by the loader) and the footprint still matches
    the sim twin. Two representative cells — a participant killed with
    a prepared record stable and a coordinator killed with a decision
    record stable — cover both recovery directions without doubling the
    whole matrix."""
    _run_cell(protocol, point, tmp_path, codec="binary")
    from repro.storage.file_log import WAL_MAGIC

    wal_files = sorted(tmp_path.rglob("wal.jsonl"))
    assert wal_files, "expected WAL files under the data dir"
    assert any(
        wal.read_bytes().startswith(WAL_MAGIC) for wal in wal_files
    ), "no site wrote a binary WAL"


def test_sigkill_during_finalize_recovers_to_the_sim_footprint(tmp_path):
    """Process death inside the GC sweep. The victim is SIGKILLed while
    ``finalize()`` is still sweeping — as soon as the supervisor reads
    its first ``flush_gc`` reply that collected something (its ``log.gc``
    events are in its trace file by then, not on the control stream) —
    then respawned and swept again. The
    oracle is the simulator given the same schedule: a crash of the
    same site once its sweep is through, the same outage, a second
    ``finalize()``. What the first sweep collected stays collected,
    nothing is collected twice, and the residue is empty."""
    spec = _matrix_spec()
    mix, coordinator = PROTOCOL_SETUPS["PrAny"]
    transactions = generate_transactions(spec, sorted(mix.site_protocols()))
    victim = _pick_victim("part-after-prepared", transactions[0])

    mdbs = build_mdbs(
        mix, coordinator=coordinator, seed=spec.seed, timeouts=MATRIX_TIMEOUTS
    )
    for txn in transactions:
        mdbs.submit(txn)
    mdbs.run(until=WAVE_BUDGET)
    mdbs.finalize()
    mdbs.sites[victim].crash()
    mdbs.run(until=mdbs.sim.now + DOWN_FOR)
    mdbs.sites[victim].recover()
    mdbs.run(until=mdbs.sim.now + WAVE_BUDGET)
    mdbs.finalize()
    sim_summary = equivalence_summary(mdbs)

    async def live() -> dict:
        cluster = ProcessCluster(
            mix,
            str(tmp_path),
            coordinator=coordinator,
            seed=spec.seed,
            timeouts=MATRIX_TIMEOUTS,
            time_scale=TIME_SCALE,
            fsync=True,
        )
        await cluster.start()
        try:
            for txn in transactions:
                cluster.submit(txn)
            await cluster.run(until=cluster.sim.now + WAVE_BUDGET)
            kills: list[asyncio.Task] = []
            mid_sweep: list[bool] = []

            async def kill() -> None:
                mid_sweep.append(not sweep.done())
                await cluster.kill(victim)

            call = cluster._call

            async def call_then_kill(site_id: str, op: str, **kw) -> dict:
                reply = await call(site_id, op, **kw)
                if (
                    not kills
                    and (site_id, op) == (victim, "flush_gc")
                    and reply["collected"]
                ):
                    kills.append(asyncio.ensure_future(kill()))
                return reply

            cluster._call = call_then_kill
            sweep = asyncio.ensure_future(cluster.finalize())
            await sweep
            del cluster._call
            assert kills, "the victim collected nothing"
            await kills[0]
            assert mid_sweep == [True]
            await asyncio.sleep(cluster.sim.to_seconds(DOWN_FOR))
            assert await cluster.restart(victim) is not None
            await cluster.run(until=cluster.sim.now + WAVE_BUDGET)
            await cluster.finalize()
        finally:
            await cluster.shutdown()
        return equivalence_summary(cluster)

    live_summary = asyncio.run(live())
    assert live_summary == sim_summary
    assert set(live_summary["checks"].values()) == {True}
    assert not any(live_summary["stable_residue"].values())
    collections = [sites.count(victim) for sites in live_summary["gc"].values()]
    assert set(collections) <= {0, 1} and any(collections)

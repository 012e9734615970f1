"""Experiment C7 — Coordinator Log vs basic 2PC.

The conclusion's second named integration target (ref [17]): in CL the
participants write **nothing** to local stable storage — their redo
records ride to the coordinator on the Yes vote and stabilize with the
coordinator's single decision force. We measure what moves where:

* participant-side forced writes drop to zero (vs 2 per participant
  under PrN);
* the coordinator's log grows with the participants' update volume
  (it now holds everyone's redo);
* a crashed participant recovers by *pulling* (CL_RECOVER/CL_REDO)
  instead of local log analysis — we count the pulled transactions;
* the operational-correctness angle: the coordinator can only forget a
  committed transaction after every log-less participant checkpoints
  (CL_CHECKPOINT), which the GC gating enforces.
"""

from __future__ import annotations

from repro.experiments.table import Cell, Claim, Column, Experiment, yes_no
from repro.mdbs.system import MDBS
from repro.mdbs.transaction import GlobalTransaction, WriteOp


def grid(n_transactions: int = 8) -> list[Cell]:
    """An all-PrN and an all-CL participant set."""
    return [
        {"protocol": protocol, "n_transactions": n_transactions}
        for protocol in ("PrN", "CL")
    ]


def measure(cell: Cell, seed: int) -> dict:
    """The workload, then a crash and recovery of ``p1``."""
    protocol, n_transactions = cell["protocol"], cell["n_transactions"]
    mdbs = MDBS(seed=seed)
    mdbs.add_site("p1", protocol=protocol)
    mdbs.add_site("p2", protocol=protocol)
    mdbs.add_site("tm", protocol="PrN", coordinator="dynamic")
    for i in range(n_transactions):
        mdbs.submit(
            GlobalTransaction(
                txn_id=f"t{i:02d}",
                coordinator="tm",
                writes={
                    "p1": [WriteOp(f"t{i}@p1", i), WriteOp(f"u{i}@p1", i)],
                    "p2": [WriteOp(f"t{i}@p2", i)],
                },
                submit_at=i * 30.0,
            )
        )
    mdbs.run(until=n_transactions * 30.0 + 100.0)
    # Crash p1 mid-life (after the workload) and recover it: PrN replays
    # its own log; CL pulls redo from the coordinator.
    mdbs.site("p1").crash()
    mdbs.site("p1").recover()
    mdbs.run(until=n_transactions * 30.0 + 400.0)
    mdbs.finalize()
    reports = mdbs.check()
    redo_pulled = sum(
        e.details.get("txns", 0)
        for e in mdbs.sim.trace.select(category="protocol", name="cl_redo")
    )
    return {
        "participant_forces": (
            mdbs.site("p1").log.force_count + mdbs.site("p2").log.force_count
        ),
        "coordinator_forces": mdbs.site("tm").log.force_count,
        "coordinator_log_appends": mdbs.site("tm").log.append_count,
        "redo_pulled_txns": redo_pulled,
        "correct": reports.all_hold,
        "steps": mdbs.sim.steps_executed,
    }


CL = Experiment(
    name="cl",
    artifact="C7",
    title="coordinator log: the participants' log moves to the coordinator",
    seed=7,
    grid=grid,
    key=("protocol",),
    measure=measure,
    columns=(
        Column("participants", "protocol"),
        Column("txns", "n_transactions"),
        Column("participant forces", "participant_forces"),
        Column("coord forces", "coordinator_forces"),
        Column("coord log appends", "coordinator_log_appends"),
        Column("redo txns pulled", "redo_pulled_txns"),
        Column("correct", "correct", yes_no),
    ),
    claims=(
        Claim(
            "cl_participants_force_nothing",
            lambda r: r.point("CL").participant_forces == 0,
            "CL participants force nothing",
        ),
        Claim(
            "cl_moves_log_volume_to_coordinator",
            lambda r: r.point("CL").coordinator_log_appends
            > r.point("PrN").coordinator_log_appends,
            "log volume moved to the coordinator",
        ),
        Claim(
            "cl_recovery_pulls_redo",
            lambda r: r.point("CL").redo_pulled_txns > 0,
            "recovery pulled redo from the coordinator",
        ),
        Claim("all_correct", lambda r: all(row.correct for row in r.rows)),
    ),
)

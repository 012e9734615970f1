"""Experiment C1 — the commit-processing cost table.

The paper's whole design space is driven by the classic cost trade-off
between the presumed protocols (its refs [4, 9, 15, 12]): forced log
writes and acknowledgement messages per transaction, split by outcome.
We *measure* the table from simulation rather than transcribing it:
run one transaction per (protocol, outcome) cell and count.

Expected shape (N participants):

* PrC commit is cheapest for participants (no forced decision record,
  no ack); PrA abort is cheapest overall (coordinator writes nothing);
* PrN is never cheaper than both specialized variants;
* PrAny pays PrC's initiation force and collects only the acks its
  mixed membership requires.
"""

from __future__ import annotations

from repro.analysis.metrics import cost_breakdown
from repro.experiments.table import Cell, Claim, Column, Experiment, ExperimentResult
from repro.mdbs.transaction import GlobalTransaction, WriteOp
from repro.workloads.generator import COORDINATOR_ID, build_mdbs
from repro.workloads.mixes import MIXES

#: (configuration, mix, coordinator policy) for each table row group.
CONFIGS: list[tuple[str, str, str]] = [
    ("all-PrN", "all-PrN", "PrN"),
    ("all-PrA", "all-PrA", "PrA"),
    ("all-PrC", "all-PrC", "PrC"),
    ("PrAny (PrA+PrC)", "PrA+PrC", "dynamic"),
    ("PrAny (3-way)", "PrN+PrA+PrC", "dynamic"),
]


def grid(n_participants: int = 2) -> list[Cell]:
    return [
        {
            "config": config,
            "mix": mix,
            "coordinator": coordinator,
            "outcome": outcome,
            "n_participants": n_participants,
        }
        for config, mix, coordinator in CONFIGS
        for outcome in ("commit", "abort")
    ]


def measure(cell: Cell, seed: int) -> dict:
    """One transaction through the cell's configuration, counted."""
    mix = MIXES[cell["mix"]].extended_to(cell["n_participants"])
    mdbs = build_mdbs(mix, coordinator=cell["coordinator"], seed=seed)
    participants = sorted(mix.site_protocols())
    txn = GlobalTransaction(
        txn_id="t-cost",
        coordinator=COORDINATOR_ID,
        writes={site: [WriteOp(f"k@{site}", 1)] for site in participants},
        coordinator_abort=cell["outcome"] == "abort",
    )
    mdbs.submit(txn)
    mdbs.run(until=500)
    # No finalize() before measuring: background flushes and GC are not
    # commit-processing costs.
    breakdown = cost_breakdown(mdbs.sim.trace, txn.txn_id, COORDINATOR_ID)
    return {
        "coordinator_forced": breakdown.coordinator_forced,
        "coordinator_writes": breakdown.coordinator_writes,
        "participant_forced": breakdown.participant_forced,
        "participant_writes": breakdown.participant_writes,
        "acks": breakdown.message_kinds.get("ACK", 0),
        "messages": breakdown.messages,
        "steps": mdbs.sim.steps_executed,
    }


def _prn_never_strictly_cheapest(result: ExperimentResult) -> bool:
    def total(config: str, outcome: str) -> int:
        cell = result.point(config, outcome)
        return cell.coordinator_forced + cell.participant_forced + cell.acks

    return all(
        total("all-PrN", outcome)
        >= min(total("all-PrA", outcome), total("all-PrC", outcome))
        for outcome in ("commit", "abort")
    )


COSTS = Experiment(
    name="costs",
    artifact="C1",
    title="measured commit-processing costs (protocol records only)",
    seed=5,
    grid=grid,
    key=("config", "outcome"),
    measure=measure,
    columns=(
        Column("configuration", "config"),
        Column("outcome", "outcome"),
        Column("N", "n_participants"),
        Column("coord forces", "coordinator_forced"),
        Column("coord writes", "coordinator_writes"),
        Column("part forces", "participant_forced"),
        Column("part writes", "participant_writes"),
        Column("acks", "acks"),
        Column("messages", "messages"),
    ),
    claims=(
        Claim(
            "prc_commit_cheaper_for_participants_than_pra",
            lambda r: r.point("all-PrC", "commit").participant_forced
            < r.point("all-PrA", "commit").participant_forced,
        ),
        Claim(
            "pra_abort_is_free_at_coordinator",
            lambda r: r.point("all-PrA", "abort").coordinator_forced == 0,
        ),
        Claim("prn_never_strictly_cheapest", _prn_never_strictly_cheapest),
    ),
)

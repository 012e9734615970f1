"""Experiment C6 — streaming throughput and protocol-table residency.

A commit protocol's practical footprint under load is how long
transactions occupy the coordinator's protocol table (and the log) —
the quantity the paper's operational-correctness criterion is about.
We stream hundreds of transactions through each configuration and
measure:

* virtual-time makespan and mean coordinator residency per transaction,
* the peak protocol-table size at the coordinator,
* messages per transaction,
* wall-clock simulation throughput (events/second — the substrate's own
  performance, reported by the benchmark harness).

Expected shape: ack-free decision paths (PrC commits, PrA aborts) give
the lowest residency and peak table size; PrN the highest; PrAny
between, tracking its mixed membership.
"""

from __future__ import annotations

from repro.analysis.metrics import message_counts
from repro.experiments.table import (
    Cell,
    Claim,
    Column,
    Experiment,
    ExperimentResult,
    yes_no,
)
from repro.workloads.generator import COORDINATOR_ID, WorkloadSpec, run_workload
from repro.workloads.mixes import MIXES


def grid(n_transactions: int = 200, abort_fraction: float = 0.0) -> list[Cell]:
    """The same-size workload through each configuration."""
    return [
        {
            "config": mix,
            "coordinator": coordinator,
            "n_transactions": n_transactions,
            "abort_fraction": abort_fraction,
        }
        for mix, coordinator in (
            ("all-PrN", "PrN"),
            ("all-PrA", "PrA"),
            ("all-PrC", "PrC"),
            ("PrA+PrC", "dynamic"),
            ("PrN+PrA+PrC", "dynamic"),
        )
    ]


def _residencies(mdbs, txn_ids) -> list[float]:
    history = mdbs.history()
    spans = []
    for txn_id in txn_ids:
        selects = mdbs.sim.trace.select(
            category="protocol", name="select", txn=txn_id
        )
        forgets = history.forget_events(txn_id)
        if selects and forgets:
            spans.append(forgets[-1].time - selects[0].time)
    return spans


def measure(cell: Cell, seed: int) -> dict:
    """Stream a workload through one configuration and measure it."""
    mix = MIXES[cell["config"]]
    spec = WorkloadSpec(
        n_transactions=cell["n_transactions"],
        abort_fraction=cell["abort_fraction"],
        participants_min=len(mix),
        participants_max=len(mix),
        inter_arrival=8.0,
        seed=seed,
    )
    mdbs, transactions = run_workload(mix, cell["coordinator"], spec, drain=1_000.0)
    reports = mdbs.check()
    residencies = _residencies(mdbs, [t.txn_id for t in transactions])
    history = mdbs.history()
    decided = [
        t.txn_id
        for t in transactions
        if history.decision(t.txn_id) is not None
    ]
    tm = mdbs.site(COORDINATOR_ID)
    assert tm.coordinator is not None
    counts = message_counts(mdbs.sim.trace)
    last_forget = max(
        (e.time for txn in decided for e in history.forget_events(txn)),
        default=0.0,
    )
    return {
        "makespan": last_forget,
        "mean_residency": sum(residencies) / len(residencies) if residencies else 0.0,
        "peak_table": tm.coordinator.table.peak_size,
        "messages_per_txn": counts.total / max(1, len(decided)),
        "correct": reports.all_hold,
        "steps": mdbs.sim.steps_executed,
    }


def _prc_residency_lowest_on_commits(result: ExperimentResult) -> bool:
    """All-commit workloads: PrC's ack-free path wins residency."""
    prc, prn = result.point("all-PrC"), result.point("all-PrN")
    return prc.mean_residency < prn.mean_residency


THROUGHPUT = Experiment(
    name="throughput",
    artifact="C6",
    title="streaming throughput and coordinator residency",
    seed=7,
    grid=grid,
    key=("config",),
    measure=measure,
    columns=(
        Column("configuration", "config"),
        Column("txns", "n_transactions"),
        Column("aborts", "abort_fraction", "{:.0%}".format),
        Column("makespan", "makespan", "{:.0f}".format),
        Column("mean residency", "mean_residency", "{:.2f}".format),
        Column("peak table", "peak_table"),
        Column("msgs/txn", "messages_per_txn", "{:.1f}".format),
        Column("events", "steps"),
        Column("correct", "correct", yes_no),
    ),
    claims=(
        Claim("all_correct", lambda r: all(row.correct for row in r.rows)),
        Claim("prc_residency_lowest_on_commits", _prc_residency_lowest_on_commits),
    ),
)

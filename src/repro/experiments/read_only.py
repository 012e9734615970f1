"""Experiment C4 — the read-only optimization.

The paper's conclusion names read-only optimizations (its refs
[15, 1, 4]) as the next target for the operational correctness
criterion. We implement the classic READ-vote optimization — a
participant whose subtransaction wrote nothing votes READ, releases its
locks at the vote, and drops out of the decision phase — and measure
what it saves on workloads with read-only participants:

* forced log writes at read-only participants (no prepared force),
* decision and acknowledgement messages,
* lock-holding time at read-only participants (released at the vote
  instead of after the decision round-trip).

Correctness is unchanged: a read-only subtransaction is consistent
with either outcome, so dropping out never threatens atomicity — the
checkers run on every cell.
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
from repro.mdbs.transaction import GlobalTransaction, WriteOp
from repro.workloads.generator import COORDINATOR_ID, build_mdbs
from repro.workloads.mixes import MIXES


def grid(
    mixes: tuple[str, ...] = ("all-PrN", "all-PrA", "all-PrC", "PrN+PrA+PrC"),
    n_transactions: int = 10,
) -> list[Cell]:
    return [
        {"mix": mix, "optimized": optimized, "n_transactions": n_transactions}
        for mix in mixes
        for optimized in (False, True)
    ]


def measure(cell: Cell, seed: int) -> dict:
    """The cell's mix with the optimization off or on, every site checked."""
    mix = MIXES[cell["mix"]]
    n_transactions = cell["n_transactions"]
    mdbs = build_mdbs(
        mix, coordinator="dynamic", seed=seed, read_only_optimization=cell["optimized"]
    )
    sites = sorted(mix.site_protocols())
    # Every transaction updates its first participant and only reads at
    # the rest — the shape reporting/analytics transactions have.
    for i in range(n_transactions):
        writer, *readers = sites
        mdbs.submit(
            GlobalTransaction(
                txn_id=f"t{i:03d}",
                coordinator=COORDINATOR_ID,
                writes={writer: [WriteOp(f"t{i}@{writer}", i)]},
                reads={reader: [f"catalog@{reader}"] for reader in readers},
                submit_at=i * 30.0,
            )
        )
    mdbs.run(until=n_transactions * 30.0 + 200.0)
    mdbs.finalize()
    reports = mdbs.check()
    counts = message_counts(mdbs.sim.trace)
    return {
        "read_fraction": (len(sites) - 1) / len(sites),
        "total_forces": sum(site.log.force_count for site in mdbs.sites.values()),
        "messages": counts.total,
        "acks": counts.of("ACK"),
        "read_votes": counts.of("VOTE_READ"),
        "correct": reports.all_hold,
        "steps": mdbs.sim.steps_executed,
    }


def savings(result: ExperimentResult, mix: str) -> tuple[int, int]:
    """(forces saved, messages saved) by the optimization."""
    off = result.point(mix, False)
    on = result.point(mix, True)
    return off.total_forces - on.total_forces, off.messages - on.messages


READ_ONLY = Experiment(
    name="readonly",
    artifact="C4",
    title="read-only optimization: costs with the READ vote off/on",
    seed=23,
    grid=grid,
    key=("mix", "optimized"),
    measure=measure,
    columns=(
        Column("mix", "mix"),
        Column("R/O opt", "optimized", lambda on: "on" if on else "off"),
        Column("readers", "read_fraction", "{:.0%}".format),
        Column("total forces", "total_forces"),
        Column("messages", "messages"),
        Column("acks", "acks"),
        Column("READ votes", "read_votes"),
        Column("correct", "correct", yes_no),
    ),
    claims=(Claim("always_correct", lambda r: all(row.correct for row in r.rows)),),
)

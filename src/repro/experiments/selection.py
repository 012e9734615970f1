"""Experiment C3 — ablation of §4.1's dynamic protocol selection.

A PrAny coordinator consults its APP table and uses the participants'
own protocol when they are homogeneous, reserving PrAny for mixes. The
alternative — always using PrAny — is simpler but pays an initiation
force (vs PrN/PrA) and collects acks a specialized protocol would skip.

We run the same homogeneous workload under both selectors and compare
coordinator forces, acks and total messages. Expected shape: dynamic
selection strictly dominates on homogeneous PrN/PrA workloads (no
initiation record) and on PrC commit workloads it ties (PrAny = PrC +
protocols in the initiation record); on mixed workloads both selectors
coincide by construction.
"""

from __future__ import annotations

from repro.analysis.metrics import message_counts
from repro.experiments.table import Cell, Column, Experiment, ExperimentResult
from repro.mdbs.transaction import simple_transaction
from repro.workloads.generator import COORDINATOR_ID, build_mdbs
from repro.workloads.mixes import MIXES


def grid(
    mixes: tuple[str, ...] = ("all-PrN", "all-PrA", "all-PrC", "PrA+PrC", "PrN+PrC"),
    n_transactions: int = 12,
) -> list[Cell]:
    return [
        {"mix": mix, "selector": selector, "n_transactions": n_transactions}
        for mix in mixes
        for selector in ("dynamic", "PrAny")
    ]


def measure(cell: Cell, seed: int) -> dict:
    """The cell's mix under its selector, one aborting transaction in four."""
    mix = MIXES[cell["mix"]]
    n_transactions = cell["n_transactions"]
    mdbs = build_mdbs(mix, coordinator=cell["selector"], seed=seed)
    sites = sorted(mix.site_protocols())
    for i in range(n_transactions):
        mdbs.submit(
            simple_transaction(
                f"t{i:03d}",
                COORDINATOR_ID,
                sites,
                submit_at=i * 30.0,
                abort=(i % 4 == 3),
            )
        )
    mdbs.run(until=n_transactions * 30.0 + 200.0)
    used: dict[str, int] = {}
    for event in mdbs.sim.trace.select(category="protocol", name="select"):
        protocol = event.details.get("protocol", "?")
        used[protocol] = used.get(protocol, 0) + 1
    counts = message_counts(mdbs.sim.trace)
    return {
        "protocols_used": used,
        "coordinator_forces": mdbs.site(COORDINATOR_ID).log.force_count,
        "acks": counts.of("ACK"),
        "messages": counts.total,
        "steps": mdbs.sim.steps_executed,
    }


def savings(result: ExperimentResult, mix: str) -> tuple[int, int]:
    """(forces saved, acks saved) by dynamic over always-PrAny."""
    dynamic = result.point(mix, "dynamic")
    fixed = result.point(mix, "PrAny")
    return (
        fixed.coordinator_forces - dynamic.coordinator_forces,
        fixed.acks - dynamic.acks,
    )


SELECTION = Experiment(
    name="selection",
    artifact="C3",
    title="§4.1 dynamic selection vs always-PrAny",
    seed=17,
    grid=grid,
    key=("mix", "selector"),
    measure=measure,
    columns=(
        Column("mix", "mix"),
        Column("selector", "selector"),
        Column(
            "protocols used",
            "protocols_used",
            lambda used: ", ".join(f"{k}:{v}" for k, v in sorted(used.items())),
        ),
        Column("coord forces", "coordinator_forces"),
        Column("acks", "acks"),
        Column("messages", "messages"),
    ),
)

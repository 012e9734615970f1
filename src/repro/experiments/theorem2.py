"""Experiment T2 — Theorem 2, empirically.

    "It is impossible to achieve operational correctness if the
    coordinator is using C2PC and distributed transactions execute at
    both PrA and PrC participants."

C2PC never forgets a transaction until *every* participant acks. In the
PrA+PrC mix, committed transactions are never acked by the PrC
participant and aborted ones never by the PrA participant, so *every*
terminated transaction is retained forever: the protocol table and the
un-garbage-collectable log grow linearly with the number of processed
transactions. Under PrAny both return to zero.

The experiment sweeps the transaction count and records the retained
protocol-table entries and uncollected log transactions at the
coordinator after the system has quiesced and every lazy record has
been flushed.
"""

from __future__ import annotations

from repro.analysis.report import render_series
from repro.experiments.table import (
    Cell,
    Claim,
    Column,
    Experiment,
    ExperimentResult,
    verdict,
    yes_no,
)
from repro.mdbs.system import MDBS
from repro.mdbs.transaction import simple_transaction

_COORD = "tm"


def grid(
    counts: tuple[int, ...] = (4, 8, 16, 32), c2pc_native: str = "PrN"
) -> list[Cell]:
    """Transaction counts under the C2PC and the PrAny coordinator."""
    return [
        {"coordinator_policy": policy, "n_transactions": n}
        for policy in (f"C2PC({c2pc_native})", "dynamic")
        for n in counts
    ]


def measure(cell: Cell, seed: int) -> dict:
    """Retention at the coordinator once ``n_transactions`` quiesced."""
    n_transactions = cell["n_transactions"]
    mdbs = MDBS(seed=seed)
    mdbs.add_site("alpha_pra", protocol="PrA")
    mdbs.add_site("beta_prc", protocol="PrC")
    mdbs.add_site(_COORD, protocol="PrN", coordinator=cell["coordinator_policy"])
    for i in range(n_transactions):
        mdbs.submit(
            simple_transaction(
                f"t{i:03d}",
                _COORD,
                ["alpha_pra", "beta_prc"],
                submit_at=i * 40.0,
                abort=(i % 2 == 1),
            )
        )
    mdbs.run(until=n_transactions * 40.0 + 200.0)
    mdbs.finalize()
    reports = mdbs.check()
    tm = mdbs.site(_COORD)
    assert tm.coordinator is not None
    return {
        "retained_entries": len(tm.coordinator.table),
        "uncollected_log_txns": len(tm.uncollected_log_transactions()),
        "atomic": reports.atomicity.holds,
        "operationally_correct": reports.operational.holds,
        "steps": mdbs.sim.steps_executed,
    }


def series(result: ExperimentResult, coordinator_policy: str) -> list[tuple[int, int]]:
    return [
        (row.n_transactions, row.retained_entries)
        for row in result.rows
        if row.coordinator_policy == coordinator_policy
    ]


def _runs(result: ExperimentResult, c2pc: bool) -> list:
    return [
        row
        for row in result.rows
        if row.coordinator_policy.startswith("C2PC") == c2pc
    ]


def _sections(result: ExperimentResult) -> list[str]:
    charts = [
        render_series(f"retained entries vs txns ({policy})", series(result, policy))
        for policy in sorted({row.coordinator_policy for row in result.rows})
    ]
    return [*charts, verdict("Theorem 2", result)]


THEOREM2 = Experiment(
    name="theorem2",
    artifact="T2",
    title="Theorem 2: C2PC must remember terminated txns forever",
    seed=7,
    grid=grid,
    key=("coordinator_policy", "n_transactions"),
    measure=measure,
    columns=(
        Column("coordinator", "coordinator_policy"),
        Column("txns processed", "n_transactions"),
        Column("retained entries", "retained_entries"),
        Column("uncollected log txns", "uncollected_log_txns"),
        Column("atomic", "atomic", yes_no),
        Column("operational", "operationally_correct", yes_no),
    ),
    claims=(
        # C2PC retains every terminated mixed transaction.
        Claim(
            "c2pc_growth_is_linear",
            lambda r: bool(_runs(r, True))
            and all(
                row.retained_entries == row.n_transactions for row in _runs(r, True)
            ),
        ),
        Claim(
            "prany_retains_nothing",
            lambda r: bool(_runs(r, False))
            and all(row.retained_entries == 0 for row in _runs(r, False)),
        ),
        # C2PC is functionally correct — only operationally broken.
        Claim(
            "c2pc_still_atomic", lambda r: all(row.atomic for row in _runs(r, True))
        ),
    ),
    sections=_sections,
)

"""Experiment C5 — Implicit Yes-Vote vs Presumed Abort.

The paper's conclusion points at IYV (its ref [3]) as the next protocol
the operational-correctness criterion should integrate; we implemented
that integration and here measure the trade-off IYV was designed
around: on a fast network, eliminating the voting phase saves two
message rounds per participant, at the price of a forced log write per
update (plus an up-front prepared force).

Expected shape: IYV commits decide strictly earlier (no voting round)
and use fewer messages; PrA uses strictly fewer forced writes as the
per-transaction update count grows. The crossover is the paper-cited
gigabit-network argument: cheap messages, expensive forces favour PrA;
expensive round trips favour IYV.
"""

from __future__ import annotations

from repro.analysis.metrics import message_counts
from repro.core.events import EventKind
from repro.experiments.table import (
    Cell,
    Claim,
    Column,
    Experiment,
    ExperimentResult,
    yes_no,
)
from repro.mdbs.system import MDBS
from repro.mdbs.transaction import GlobalTransaction, WriteOp


def grid(
    update_counts: tuple[int, ...] = (1, 2, 4, 8), n_participants: int = 3
) -> list[Cell]:
    return [
        {
            "protocol": protocol,
            "updates_per_participant": updates,
            "n_participants": n_participants,
        }
        for protocol in ("PrA", "IYV")
        for updates in update_counts
    ]


def measure(cell: Cell, seed: int) -> dict:
    """One transaction with the cell's update count at every participant."""
    mdbs = MDBS(seed=seed)
    participants = [f"p{i}" for i in range(cell["n_participants"])]
    for site_id in participants:
        mdbs.add_site(site_id, protocol=cell["protocol"])
    mdbs.add_site("tm", protocol="PrN", coordinator="dynamic")
    mdbs.submit(
        GlobalTransaction(
            txn_id="t1",
            coordinator="tm",
            writes={
                site: [
                    WriteOp(f"k{j}@{site}", j)
                    for j in range(cell["updates_per_participant"])
                ]
                for site in participants
            },
        )
    )
    mdbs.run(until=400)
    mdbs.finalize()
    reports = mdbs.check()
    history = mdbs.history()
    decides = history.of_kind(EventKind.DECIDE, "t1")
    return {
        "decision_time": decides[-1].time if decides else float("nan"),
        "messages": message_counts(mdbs.sim.trace, txn_id="t1").total,
        "forces_total": sum(site.log.force_count for site in mdbs.sites.values()),
        "correct": reports.all_hold,
        "steps": mdbs.sim.steps_executed,
    }


def _iyv_beats_pra(result: ExperimentResult, field: str) -> bool:
    """IYV's ``field`` is below PrA's at every update count."""
    updates = {row.updates_per_participant for row in result.rows}
    return all(
        getattr(result.point("IYV", u), field) < getattr(result.point("PrA", u), field)
        for u in updates
    )


def _pra_forces_grow_slower(result: ExperimentResult) -> bool:
    """PrA's force count is flat in updates; IYV's grows linearly."""
    updates = sorted({row.updates_per_participant for row in result.rows})
    if len(updates) < 2:
        return False
    lo, hi = updates[0], updates[-1]

    def growth(protocol: str) -> int:
        return (
            result.point(protocol, hi).forces_total
            - result.point(protocol, lo).forces_total
        )

    return growth("PrA") == 0 and growth("IYV") > 0


IYV = Experiment(
    name="iyv",
    artifact="C5",
    title="IYV vs PrA: round trips traded for forced writes",
    seed=41,
    grid=grid,
    key=("protocol", "updates_per_participant"),
    measure=measure,
    columns=(
        Column("protocol", "protocol"),
        Column("updates/participant", "updates_per_participant"),
        Column("decision time", "decision_time", "{:.2f}".format),
        Column("messages", "messages"),
        Column("total forces", "forces_total"),
        Column("correct", "correct", yes_no),
    ),
    claims=(
        Claim(
            "iyv_always_decides_earlier",
            lambda r: _iyv_beats_pra(r, "decision_time"),
            "IYV decides earlier everywhere",
        ),
        Claim(
            "iyv_always_uses_fewer_messages",
            lambda r: _iyv_beats_pra(r, "messages"),
            "IYV uses fewer messages everywhere",
        ),
        Claim(
            "pra_forces_grow_slower",
            _pra_forces_grow_slower,
            "PrA forces flat while IYV's grow",
        ),
        Claim("all_correct", lambda r: all(row.correct for row in r.rows)),
    ),
)

"""Experiment R1 — the §4.2 coordinator recovery procedure at work.

We crash the coordinator at characteristic points of commit processing,
let participants block/inquire, then recover the coordinator and
measure the recovery work: which transactions were re-initiated from
log analysis, how many inquiries were answered (and how many by
presumption), and whether the system converged to a fully-forgotten,
consistent state.

One scenario per §4.2 log-shape case:

* decision record without initiation (PrN/PrA path),
* initiation record only → re-initiated abort (PrC/PrAny path),
* initiation + commit without end → commit re-sent to PrN+PrA
  participants only (PrAny path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.experiments.table import Cell, Claim, Column, Experiment, yes_no
from repro.mdbs.recovery import measure_recovery
from repro.mdbs.transaction import GlobalTransaction, WriteOp
from repro.protocols.recovery import summarize_coordinator_log
from repro.sim.tracing import TraceEvent
from repro.workloads.generator import COORDINATOR_ID, build_mdbs
from repro.workloads.mixes import MIXES


@dataclass
class RecoveryScenario:
    """One coordinator-crash scenario."""

    name: str
    mix: str
    coordinator: str
    crash_predicate: Callable[[TraceEvent], bool]
    expected_log_shape: str


def _crash_after_decide(event: TraceEvent) -> bool:
    return event.matches("protocol", "decide", site=COORDINATOR_ID)


def _crash_after_initiation(event: TraceEvent) -> bool:
    return event.matches(
        "log", "append", site=COORDINATOR_ID, type="initiation"
    )


SCENARIOS: list[RecoveryScenario] = [
    RecoveryScenario(
        name="PrN: commit decided, crash before acks",
        mix="all-PrN",
        coordinator="PrN",
        crash_predicate=_crash_after_decide,
        expected_log_shape="commit",
    ),
    RecoveryScenario(
        name="PrA: commit decided, crash before acks",
        mix="all-PrA",
        coordinator="PrA",
        crash_predicate=_crash_after_decide,
        expected_log_shape="commit",
    ),
    RecoveryScenario(
        name="PrC: crash right after initiation (abort presumed)",
        mix="all-PrC",
        coordinator="PrC",
        crash_predicate=_crash_after_initiation,
        expected_log_shape="init",
    ),
    RecoveryScenario(
        name="PrAny: crash right after initiation (abort re-sent)",
        mix="PrA+PrC",
        coordinator="dynamic",
        crash_predicate=_crash_after_initiation,
        expected_log_shape="init+protocols",
    ),
    RecoveryScenario(
        name="PrAny: commit decided, crash before acks",
        mix="PrA+PrC",
        coordinator="dynamic",
        crash_predicate=_crash_after_decide,
        expected_log_shape="init+protocols+commit",
    ),
]


def grid() -> list[Cell]:
    return [{"scenario": scenario.name, "case": scenario} for scenario in SCENARIOS]


def measure(cell: Cell, seed: int) -> dict:
    """Crash the coordinator at the case's point, then recover it."""
    scenario: RecoveryScenario = cell["case"]
    mix = MIXES[scenario.mix]
    mdbs = build_mdbs(mix, coordinator=scenario.coordinator, seed=seed)
    participants = sorted(mix.site_protocols())
    txn = GlobalTransaction(
        txn_id="t-rec",
        coordinator=COORDINATOR_ID,
        writes={site: [WriteOp(f"k@{site}", 1)] for site in participants},
    )
    mdbs.failures.crash_when(
        COORDINATOR_ID, scenario.crash_predicate, down_for=None
    )
    mdbs.submit(txn)
    mdbs.run(until=120)

    # Capture the coordinator's log shape as recovery will see it.
    summaries = summarize_coordinator_log(mdbs.site(COORDINATOR_ID).log)
    log_shape = summaries[0].shape if summaries else "none"

    costs = measure_recovery(mdbs, run_until=600)
    mdbs.finalize()
    reports = mdbs.check()
    return {
        "log_shape": log_shape,
        "reinitiated": costs.reinitiated_decisions,
        "inquiries": costs.inquiries,
        "presumed_responses": costs.presumed_responses,
        "messages": costs.messages_sent,
        "converged": reports.all_hold,
        "steps": mdbs.sim.steps_executed,
    }


RECOVERY = Experiment(
    name="recovery",
    artifact="R1",
    title="§4.2 coordinator recovery",
    seed=7,
    grid=grid,
    key=("scenario",),
    measure=measure,
    columns=(
        Column("scenario", "scenario"),
        Column("log shape at restart", "log_shape"),
        Column("re-initiated", "reinitiated"),
        Column("inquiries", "inquiries"),
        Column("presumed replies", "presumed_responses"),
        Column("messages", "messages"),
        Column("converged", "converged", yes_no),
    ),
    claims=(
        Claim(
            "all_converged",
            lambda r: bool(r.rows) and all(row.converged for row in r.rows),
        ),
    ),
)

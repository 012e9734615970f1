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

from dataclasses import dataclass, field

from repro.analysis.metrics import message_counts
from repro.analysis.report import render_table
from repro.core.events import EventKind
from repro.workloads.generator import COORDINATOR_ID, WorkloadSpec, run_workload
from repro.workloads.mixes import MIXES


@dataclass
class ThroughputPoint:
    config: str
    coordinator: str
    n_transactions: int
    abort_fraction: float
    makespan: float
    mean_residency: float
    peak_table: int
    messages_per_txn: float
    events_simulated: int
    correct: bool


@dataclass
class ThroughputResult:
    points: list[ThroughputPoint] = field(default_factory=list)

    def point(self, config: str) -> ThroughputPoint:
        for p in self.points:
            if p.config == config:
                return p
        raise KeyError(config)

    @property
    def all_correct(self) -> bool:
        return all(p.correct for p in self.points)

    @property
    def prc_residency_lowest_on_commits(self) -> bool:
        """All-commit workloads: PrC's ack-free path wins residency."""
        try:
            prc = self.point("all-PrC")
            prn = self.point("all-PrN")
        except KeyError:
            return False
        return prc.mean_residency < prn.mean_residency


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


def measure_throughput(
    mix_name: str,
    coordinator: str = "dynamic",
    n_transactions: int = 200,
    abort_fraction: float = 0.0,
    seed: int = 29,
) -> ThroughputPoint:
    """Stream a workload through one configuration and measure it."""
    mix = MIXES[mix_name]
    spec = WorkloadSpec(
        n_transactions=n_transactions,
        abort_fraction=abort_fraction,
        participants_min=len(mix),
        participants_max=len(mix),
        inter_arrival=8.0,
        seed=seed,
    )
    mdbs, transactions = run_workload(mix, coordinator, spec, drain=1_000.0)
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
    return ThroughputPoint(
        config=mix_name,
        coordinator=coordinator,
        n_transactions=n_transactions,
        abort_fraction=abort_fraction,
        makespan=last_forget,
        mean_residency=sum(residencies) / len(residencies) if residencies else 0.0,
        peak_table=tm.coordinator.table.peak_size,
        messages_per_txn=counts.total / max(1, len(decided)),
        events_simulated=mdbs.sim.steps_executed,
        correct=reports.all_hold,
    )


def run_throughput_experiment(
    n_transactions: int = 200,
    abort_fraction: float = 0.0,
    seed: int = 29,
) -> ThroughputResult:
    """Stream the same-size workload through each configuration."""
    result = ThroughputResult()
    for mix_name, coordinator in (
        ("all-PrN", "PrN"),
        ("all-PrA", "PrA"),
        ("all-PrC", "PrC"),
        ("PrA+PrC", "dynamic"),
        ("PrN+PrA+PrC", "dynamic"),
    ):
        result.points.append(
            measure_throughput(
                mix_name, coordinator, n_transactions, abort_fraction, seed
            )
        )
    return result


def render_throughput(result: ThroughputResult) -> str:
    rows = [
        [
            p.config,
            p.n_transactions,
            f"{p.abort_fraction:.0%}",
            f"{p.makespan:.0f}",
            f"{p.mean_residency:.2f}",
            p.peak_table,
            f"{p.messages_per_txn:.1f}",
            p.events_simulated,
            "yes" if p.correct else "NO",
        ]
        for p in result.points
    ]
    return render_table(
        [
            "configuration",
            "txns",
            "aborts",
            "makespan",
            "mean residency",
            "peak table",
            "msgs/txn",
            "events",
            "correct",
        ],
        rows,
        title="C6 — streaming throughput and coordinator residency",
    )

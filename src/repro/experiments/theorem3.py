"""Experiment T3 — Theorem 3, empirically.

    "The PrAny protocol satisfies the operational correctness
    criterion."

Two stress phases, both under the dynamic PrAny coordinator:

1. **Exhaustive crash points**: for every protocol mix × outcome ×
   crash point in the catalogue (every coordinator and participant
   protocol step), run a transaction with exactly that crash injected
   and check all three properties — atomicity, SafeState at every
   forget, and operational correctness after quiescence.
2. **Randomized outages**: multi-transaction workloads with random
   timed crashes of random sites, across seeds.

The expectation (the theorem): zero violations anywhere, and nothing
retained once the system quiesces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.report import render_table
from repro.mdbs.system import MDBS
from repro.mdbs.transaction import GlobalTransaction, WriteOp
from repro.net.failures import CrashSchedule
from repro.sim.rng import RandomStreams
from repro.workloads.failure_schedules import (
    CrashPoint,
    coordinator_crash_points,
    participant_crash_points,
)
from repro.workloads.generator import (
    COORDINATOR_ID,
    WorkloadSpec,
    build_mdbs,
    run_workload,
)
from repro.workloads.mixes import MIXES, ProtocolMix


@dataclass
class StressCase:
    """One stress run and its verdict."""

    label: str
    atomic: bool
    safe: bool
    operational: bool
    stuck_in_doubt: int

    @property
    def passed(self) -> bool:
        return self.atomic and self.safe and self.operational and not self.stuck_in_doubt


@dataclass
class Theorem3Result:
    cases: list[StressCase] = field(default_factory=list)

    @property
    def runs(self) -> int:
        return len(self.cases)

    @property
    def failures(self) -> list[StressCase]:
        return [c for c in self.cases if not c.passed]

    @property
    def theorem_demonstrated(self) -> bool:
        return self.runs > 0 and not self.failures


def _single_txn_run(
    mix: ProtocolMix,
    outcome: str,
    crash_point: Optional[CrashPoint],
    crash_site: Optional[str],
    seed: int,
) -> StressCase:
    mdbs = build_mdbs(mix, coordinator="dynamic", seed=seed)
    participants = sorted(mix.site_protocols())
    txn = GlobalTransaction(
        txn_id="t-stress",
        coordinator=COORDINATOR_ID,
        writes={site: [WriteOp(f"k@{site}", 1)] for site in participants},
        coordinator_abort=outcome == "abort",
    )
    label_parts = [mix.name, outcome]
    if crash_point is not None and crash_site is not None:
        mdbs.failures.crash_when(
            crash_site,
            crash_point.make_predicate(crash_site, txn.txn_id),
            down_for=60.0,
            label=crash_point.name,
        )
        label_parts.append(f"{crash_point.name}@{crash_site}")
    mdbs.submit(txn)
    mdbs.run(until=800)
    mdbs.finalize()
    reports = mdbs.check()
    return StressCase(
        label=" / ".join(label_parts),
        atomic=reports.atomicity.holds,
        safe=reports.safe_state.holds,
        operational=reports.operational.holds,
        stuck_in_doubt=len(reports.atomicity.stuck_in_doubt),
    )


def _randomized_run(mix: ProtocolMix, seed: int) -> StressCase:
    spec = WorkloadSpec(
        n_transactions=10,
        abort_fraction=0.3,
        participants_min=2,
        participants_max=min(3, len(mix)),
        inter_arrival=30.0,
        seed=seed,
    )

    def schedule_outages(mdbs: MDBS, transactions: list[GlobalTransaction]) -> None:
        horizon = max(t.submit_at for t in transactions) + 100.0
        rng = RandomStreams(seed).stream("crash-schedule")
        victims = [*sorted(mix.site_protocols()), COORDINATOR_ID]
        for victim in rng.sample(victims, k=2):
            at = rng.uniform(10.0, horizon * 0.6)
            mdbs.failures.schedule(
                CrashSchedule(
                    site_id=victim, at=at, down_for=rng.uniform(20.0, 80.0)
                )
            )

    mdbs, _ = run_workload(
        mix, "dynamic", spec, drain=1_000.0, prepare=schedule_outages
    )
    reports = mdbs.check()
    return StressCase(
        label=f"random / {mix.name} / seed={seed}",
        atomic=reports.atomicity.holds,
        safe=reports.safe_state.holds,
        operational=reports.operational.holds,
        stuck_in_doubt=len(reports.atomicity.stuck_in_doubt),
    )


def run_theorem3(
    mixes: tuple[str, ...] = (
        "PrA+PrC",
        "PrN+PrA+PrC",
        "all-PrN",
        "all-PrA",
        "all-PrC",
        # Extension protocols (DESIGN.md §6) under the same stress.
        "IYV+PrC",
        "CL+PrA+PrC",
        "all-IYV",
        "all-CL",
    ),
    random_seeds: tuple[int, ...] = (1, 2, 3, 4, 5),
    seed: int = 11,
) -> Theorem3Result:
    """Run both stress phases; see the module docstring."""
    result = Theorem3Result()
    catalogue = coordinator_crash_points() + participant_crash_points()
    for mix_name in mixes:
        mix = MIXES[mix_name]
        participants = sorted(mix.site_protocols())
        for outcome in ("commit", "abort"):
            # Baseline without any failure.
            result.cases.append(_single_txn_run(mix, outcome, None, None, seed))
            for point in catalogue:
                if point.role == "coordinator":
                    victims = [COORDINATOR_ID]
                else:
                    victims = participants
                for victim in victims:
                    result.cases.append(
                        _single_txn_run(mix, outcome, point, victim, seed)
                    )
    for mix_name in mixes[:3]:
        for rand_seed in random_seeds:
            result.cases.append(_randomized_run(MIXES[mix_name], rand_seed))
    return result


def render_theorem3(result: Theorem3Result) -> str:
    header = (
        f"T3 — Theorem 3: PrAny operational correctness under "
        f"{result.runs} adversarial runs"
    )
    lines = [header, "=" * len(header)]
    lines.append(
        f"runs: {result.runs}; failures: {len(result.failures)}"
    )
    if result.failures:
        rows = [
            [c.label, c.atomic, c.safe, c.operational, c.stuck_in_doubt]
            for c in result.failures
        ]
        lines.append(
            render_table(
                ["case", "atomic", "safe", "operational", "stuck"],
                rows,
                title="FAILING CASES",
            )
        )
    verdict = "DEMONSTRATED" if result.theorem_demonstrated else "NOT demonstrated"
    lines.append(f"Theorem 3 {verdict}")
    return "\n".join(lines)

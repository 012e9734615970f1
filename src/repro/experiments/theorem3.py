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

from repro.analysis.report import render_table
from repro.experiments.table import Cell, Claim, Experiment, ExperimentResult, verdict
from repro.mdbs.system import MDBS
from repro.mdbs.transaction import GlobalTransaction, WriteOp
from repro.net.failures import CrashSchedule
from repro.sim.rng import RandomStreams
from repro.workloads.failure_schedules import (
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


def grid(
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
) -> list[Cell]:
    """Both stress phases; see the module docstring."""
    cells: list[Cell] = []
    catalogue = coordinator_crash_points() + participant_crash_points()
    for mix_name in mixes:
        name = MIXES[mix_name].name
        participants = sorted(MIXES[mix_name].site_protocols())
        for outcome in ("commit", "abort"):
            # Baseline without any failure.
            cells.append(
                {
                    "label": f"{name} / {outcome}",
                    "mix": mix_name,
                    "outcome": outcome,
                }
            )
            for point in catalogue:
                if point.role == "coordinator":
                    victims = [COORDINATOR_ID]
                else:
                    victims = participants
                cells.extend(
                    {
                        "label": f"{name} / {outcome} / {point.name}@{victim}",
                        "mix": mix_name,
                        "outcome": outcome,
                        "crash_point": point,
                        "victim": victim,
                    }
                    for victim in victims
                )
    for mix_name in mixes[:3]:
        cells.extend(
            {
                "label": f"random / {MIXES[mix_name].name} / seed={rand_seed}",
                "mix": mix_name,
                "random_seed": rand_seed,
            }
            for rand_seed in random_seeds
        )
    return cells


def measure(cell: Cell, seed: int) -> dict:
    """One stress run: a randomized workload, or one transaction with
    the cell's crash (if any) injected."""
    mix = MIXES[cell["mix"]]
    if "random_seed" in cell:
        mdbs = _randomized_run(mix, cell["random_seed"])
    else:
        mdbs = build_mdbs(mix, coordinator="dynamic", seed=seed)
        participants = sorted(mix.site_protocols())
        txn = GlobalTransaction(
            txn_id="t-stress",
            coordinator=COORDINATOR_ID,
            writes={site: [WriteOp(f"k@{site}", 1)] for site in participants},
            coordinator_abort=cell["outcome"] == "abort",
        )
        if "crash_point" in cell:
            mdbs.failures.crash_when(
                cell["victim"],
                cell["crash_point"].make_predicate(cell["victim"], txn.txn_id),
                down_for=60.0,
                label=cell["crash_point"].name,
            )
        mdbs.submit(txn)
        mdbs.run(until=800)
        mdbs.finalize()
    reports = mdbs.check()
    return {
        "atomic": reports.atomicity.holds,
        "safe": reports.safe_state.holds,
        "operational": reports.operational.holds,
        "stuck_in_doubt": len(reports.atomicity.stuck_in_doubt),
        "steps": mdbs.sim.steps_executed,
    }


def _randomized_run(mix: ProtocolMix, seed: int) -> MDBS:
    """A 10-transaction workload with two random timed outages."""
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
    return mdbs


def failures(result: ExperimentResult) -> list:
    """The runs that broke a property or left a transaction in doubt."""
    return [
        row
        for row in result.rows
        if not (row.atomic and row.safe and row.operational and not row.stuck_in_doubt)
    ]


def _report(result: ExperimentResult) -> list[str]:
    runs, failed = len(result.rows), failures(result)
    header = f"{result.experiment.heading} under {runs} adversarial runs"
    lines = [header, "=" * len(header), f"runs: {runs}; failures: {len(failed)}"]
    if failed:
        rows = [
            [c.label, c.atomic, c.safe, c.operational, c.stuck_in_doubt]
            for c in failed
        ]
        lines.append(
            render_table(
                ["case", "atomic", "safe", "operational", "stuck"],
                rows,
                title="FAILING CASES",
            )
        )
    lines.append(verdict("Theorem 3", result))
    return ["\n".join(lines)]


#: Hundreds of runs: the table shows only the failing ones, under a
#: heading that counts them all.
THEOREM3 = Experiment(
    name="theorem3",
    artifact="T3",
    title="Theorem 3: PrAny operational correctness",
    seed=7,
    grid=grid,
    key=("label",),
    measure=measure,
    claims=(
        Claim("no_failures", lambda r: bool(r.rows) and not failures(r)),
    ),
    sections=_report,
)

"""Scenario execution and the parallel seed sweep.

:func:`run_scenario` is the explorer's pure core: spec in, outcome out,
no shared state — which is what lets :class:`ParallelRunner` fan seeds
out over a :mod:`multiprocessing` pool and still guarantee that any
finding replays identically in the parent (or in a later process: the
trace digest is part of the outcome and is asserted on replay).

The run shape mirrors the experiments: adversary active until
``spec.horizon``, then *repair rounds* — heal partitions, zero loss,
restart anything still down — each followed by a failure-free settle
period, then ``finalize()`` so "eventually" (background flush + GC) has
had its chance before the oracle judges the end state.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

from repro.explore.adversary import (
    AdversaryGenerator,
    CrashAt,
    CrashWhen,
    DropNext,
    GeneratorConfig,
    LossWindow,
    PartitionWindow,
    ScenarioSpec,
    _CRASH_POINTS,
)
from repro.explore.oracle import InvariantOracle, OracleVerdict
from repro.mdbs.system import MDBS
from repro.net.failures import CrashSchedule
from repro.net.network import ConstantLatency, UniformLatency
from repro.sim.export import canonical_lines
from repro.sim.tracing import TraceRecorder
from repro.workloads.generator import build_mdbs
from repro.workloads.mixes import MIXES

#: How many repair-round/settle cycles a run gets after the horizon.
_REPAIR_ROUNDS = 3


def trace_digest(trace: TraceRecorder) -> str:
    """SHA-256 over the canonical JSON rendering of the whole trace.

    Uses the same canonical form as :func:`repro.sim.export.dump_trace`,
    so equal digests mean byte-identical exported trace files.
    """
    # One encode + one hash update over the whole trace: identical byte
    # stream to hashing per-event lines, measurably cheaper on the
    # 10^4-event traces the sweep produces.
    lines = list(canonical_lines(trace))
    lines.append("")  # trailing newline after the last event
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunOutcome:
    """Everything observed about one scenario run."""

    spec: ScenarioSpec
    verdict: OracleVerdict
    trace_events: int
    trace_sha256: str
    crashes_injected: int
    messages_sent: int
    messages_dropped: int

    @property
    def holds(self) -> bool:
        return self.verdict.holds


def build_scenario(spec: ScenarioSpec) -> MDBS:
    """Materialize the spec: topology, latency, workload and adversary."""
    mix = MIXES[spec.mix]
    mdbs = build_mdbs(
        mix,
        coordinator=spec.coordinator,
        seed=spec.seed,
        topology=spec.topology,
    )
    if spec.latency_high > spec.latency_low:
        mdbs.network.set_latency(
            UniformLatency(mdbs.sim, spec.latency_low, spec.latency_high)
        )
    else:
        mdbs.network.set_latency(ConstantLatency(spec.latency_low))
    _install_adversary(mdbs, spec)
    for txn in spec.transactions():
        mdbs.submit(txn)
    return mdbs


def _install_adversary(mdbs: MDBS, spec: ScenarioSpec) -> None:
    sim = mdbs.sim
    net = mdbs.network
    for action in spec.actions:
        if isinstance(action, CrashAt):
            mdbs.failures.schedule(
                CrashSchedule(action.site, action.at, action.down_for)
            )
        elif isinstance(action, CrashWhen):
            point = _CRASH_POINTS[action.point]
            mdbs.failures.crash_when(
                action.site,
                point.make_predicate(action.site, action.txn),
                down_for=action.down_for,
                label=f"explore:{action.point}",
                delay=action.delay,
            )
        elif isinstance(action, PartitionWindow):
            sim.schedule_at(
                action.at,
                lambda a=action: net.partition(a.a, a.b),
                label=f"partition {action.a}/{action.b}",
            )
            sim.schedule_at(
                action.heal_at,
                lambda a=action: net.heal(a.a, a.b),
                label=f"heal {action.a}/{action.b}",
            )
        elif isinstance(action, DropNext):
            sim.schedule_at(
                action.at,
                lambda a=action: net.drop_next(
                    a.sender, a.receiver, count=a.count, kind=a.kind
                ),
                label=f"omission {action.sender}->{action.receiver}",
            )
        elif isinstance(action, LossWindow):
            sim.schedule_at(
                action.at,
                lambda a=action: net.set_loss_probability(a.probability),
                label="loss window opens",
            )
            sim.schedule_at(
                action.until,
                lambda: net.set_loss_probability(0.0),
                label="loss window closes",
            )
        else:  # pragma: no cover - exhaustive over AdversaryAction
            raise TypeError(f"unknown adversary action {action!r}")


def _repair(mdbs: MDBS) -> None:
    """End the adversary's reign: heal, stop loss, restart dead sites."""
    mdbs.network.heal_all()
    mdbs.network.set_loss_probability(0.0)
    for site_id in sorted(mdbs.sites):
        site = mdbs.sites[site_id]
        if not site.is_up:
            site.recover()


def execute_scenario(spec: ScenarioSpec) -> tuple[MDBS, RunOutcome]:
    """Run one scenario to quiescence; return the system and the verdict.

    The returned :class:`MDBS` gives access to the full trace (for
    export or diffing); :func:`run_scenario` is the outcome-only form.
    """
    mdbs = build_scenario(spec)
    deadline = spec.horizon
    for _ in range(_REPAIR_ROUNDS):
        mdbs.run(until=deadline)
        _repair(mdbs)
        deadline += spec.settle
    mdbs.run(until=deadline)
    mdbs.finalize()
    verdict = InvariantOracle().evaluate(mdbs)
    return mdbs, RunOutcome(
        spec=spec,
        verdict=verdict,
        trace_events=len(mdbs.sim.trace),
        trace_sha256=trace_digest(mdbs.sim.trace),
        crashes_injected=mdbs.failures.crashes_injected,
        messages_sent=mdbs.network.sent_count,
        messages_dropped=mdbs.network.dropped_count,
    )


def run_scenario(spec: ScenarioSpec) -> RunOutcome:
    """Run one scenario to quiescence and judge it with the oracle."""
    return execute_scenario(spec)[1]


# -- the parallel sweep ------------------------------------------------------


@dataclass(frozen=True)
class SeedSummary:
    """Compact, picklable per-seed result shipped back from workers."""

    seed: int
    holds: bool
    categories: tuple[str, ...]
    summary: str
    trace_events: int
    trace_sha256: str


@dataclass
class SweepResult:
    """Aggregate of one seed sweep."""

    config: GeneratorConfig
    completed: list[SeedSummary] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    budget_exhausted: bool = False

    @property
    def violations(self) -> list[SeedSummary]:
        return [s for s in self.completed if not s.holds]

    @property
    def seeds_scanned(self) -> int:
        return len(self.completed)

    def category_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for summary in self.violations:
            for category in summary.categories:
                counts[category] = counts.get(category, 0) + 1
        return dict(sorted(counts.items()))


# Worker-global generator, installed once per pool process so each task
# only ships an int seed across the pipe.
_WORKER_GENERATOR: Optional[AdversaryGenerator] = None


def _init_worker(config: GeneratorConfig) -> None:
    global _WORKER_GENERATOR
    _WORKER_GENERATOR = AdversaryGenerator(config)


def _run_seed(seed: int) -> SeedSummary:
    assert _WORKER_GENERATOR is not None
    outcome = run_scenario(_WORKER_GENERATOR.generate(seed))
    return SeedSummary(
        seed=seed,
        holds=outcome.holds,
        categories=tuple(sorted(outcome.verdict.categories)),
        summary=outcome.verdict.summary(),
        trace_events=outcome.trace_events,
        trace_sha256=outcome.trace_sha256,
    )


class ParallelRunner:
    """Sweeps seeds across cores; deterministic per seed, any order.

    Args:
        config: what the adversary generator may compose.
        jobs: worker processes; ``None`` = cpu count, ``1`` = run in
            process (no pool — the CI smoke path and the test path).
        progress: optional callback invoked roughly once a second with
            (seeds_done, violations_so_far).
    """

    def __init__(
        self,
        config: GeneratorConfig,
        jobs: Optional[int] = None,
        progress: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        self.config = config
        self.jobs = jobs if jobs is not None else max(1, os.cpu_count() or 1)
        self.progress = progress

    def sweep(
        self,
        seeds: Iterable[int],
        time_budget: Optional[float] = None,
    ) -> SweepResult:
        """Run every seed (until the wall-clock budget, if any, runs dry)."""
        started = time.monotonic()
        result = SweepResult(config=self.config)

        def gated() -> Iterator[int]:
            for seed in seeds:
                if (
                    time_budget is not None
                    and time.monotonic() - started >= time_budget
                ):
                    result.budget_exhausted = True
                    return
                yield seed

        last_report = started
        violations = 0

        def note(summary: SeedSummary) -> None:
            nonlocal last_report, violations
            result.completed.append(summary)
            if not summary.holds:
                violations += 1
            now = time.monotonic()
            if self.progress is not None and now - last_report >= 1.0:
                self.progress(len(result.completed), violations)
                last_report = now

        if self.jobs <= 1:
            _init_worker(self.config)
            for seed in gated():
                note(_run_seed(seed))
        else:
            import multiprocessing

            context = multiprocessing.get_context()
            with context.Pool(
                processes=self.jobs,
                initializer=_init_worker,
                initargs=(self.config,),
            ) as pool:
                for summary in pool.imap_unordered(
                    _run_seed, gated(), chunksize=4
                ):
                    note(summary)
        result.completed.sort(key=lambda s: s.seed)
        result.elapsed_seconds = time.monotonic() - started
        if self.progress is not None:
            self.progress(len(result.completed), violations)
        return result

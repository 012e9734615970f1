"""Simulator bench rows: the storm row type and the micro workloads.

Every row here is deterministic: running it twice produces the same
event count, the same message count and the same trace. That is what
``BENCH_sim.json`` pins across commits: a change in *work done*
(events, messages, any ``detail`` counter) is a behaviour change and
``repro bench --check`` names it.

* :class:`SimStorm` — one generated workload through one simulated
  MDBS (:func:`repro.workloads.generator.run_workload`). The
  ``commit-storm-*`` families and ``crash-recovery`` are all values of
  it; what a family adds to ``detail`` is its ``describe``.
* :func:`kernel_dispatch` — the raw event loop of
  :mod:`repro.sim.kernel`, no protocol work at all.
* :func:`trace_record` — :class:`repro.sim.tracing.TraceRecorder` under
  a record storm, with and without a category filter.
* :func:`explore_sweep` — a fixed-seed in-process slice of the
  adversarial explorer, the heaviest composite consumer of the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from repro.bench.rows import BENCH_SEED, ScenarioResult, latency_percentiles
from repro.mdbs.system import MDBS, RunReports
from repro.mdbs.transaction import GlobalTransaction
from repro.net.failures import CrashSchedule
from repro.protocols.base import TimeoutConfig
from repro.workloads.generator import COORDINATOR_ID, WorkloadSpec, run_workload
from repro.workloads.mixes import MIXES, ProtocolMix

# -- whole-system storms -----------------------------------------------------


@dataclass(frozen=True)
class StormRun:
    """A finished :class:`SimStorm`, as its ``describe`` sees it.

    ``decided_at`` maps each decided transaction to the virtual time of
    its first ``protocol/decide`` trace event.
    """

    row: "SimStorm"
    mdbs: MDBS
    transactions: list[GlobalTransaction]
    reports: RunReports
    decided_at: dict[str, float]


@dataclass(frozen=True)
class SimStorm:
    """One simulated storm row: a generated workload (2-3 participants
    per transaction, private keys, seed :data:`BENCH_SEED`) run to
    quiescence over one simulated MDBS.

    Attributes:
        describe: ``StormRun -> dict`` of what this row's family adds to
            ``detail`` beside ``transactions``.
        transactions: workload size, ``(smoke, full)``.
        inter_arrival: mean virtual units between arrivals.
        coordinator: the coordinator policy.
        mix: a :data:`~repro.workloads.mixes.MIXES` key, or a mix.
        abort_fraction: share of transactions forced to abort.
        timeouts: protocol timers (``None``: the defaults).
        drain: virtual units granted after the nominal arrival span.
        build: ``build_mdbs`` options — ``service_time``,
            ``topology``.
        atomic: whether all three checkers must hold. False for U2PC
            and C2PC, the paper's broken integrations: under crashes
            U2PC mis-answers inquiries about forgotten aborts (Theorem
            1), and C2PC retains what it can never forget (Theorem 2),
            so violations are *expected* there.
        crashes: schedule deterministic rolling crashes — every
            participant, then the coordinator, goes down once for 40
            units, spread evenly over the arrival span. A submission to
            a down coordinator is lost, so the gate then stops requiring
            that every transaction reaches a decision.
        count_steps: ``events`` is kernel steps instead of the
            transaction count. Pair members count transactions — the
            logical work both complete identically — and record the
            steps the optimization saves in ``detail``.
    """

    describe: Callable[[StormRun], dict[str, Any]]
    transactions: tuple[int, int]
    inter_arrival: float
    coordinator: str = "dynamic"
    mix: "str | ProtocolMix" = "PrN+PrA+PrC"
    abort_fraction: float = 0.2
    timeouts: Optional[TimeoutConfig] = None
    drain: float = 2_000.0
    build: Mapping[str, Any] = field(default_factory=dict)
    atomic: bool = True
    crashes: bool = False
    count_steps: bool = False

    def run(self, smoke: bool = False) -> ScenarioResult:
        mix = MIXES[self.mix] if isinstance(self.mix, str) else self.mix
        n_transactions = self.transactions[0 if smoke else 1]
        spec = WorkloadSpec(
            n_transactions=n_transactions,
            abort_fraction=self.abort_fraction,
            participants_min=min(2, len(mix)),
            participants_max=min(3, len(mix)),
            inter_arrival=self.inter_arrival,
            hot_keys=0,
            seed=BENCH_SEED,
        )

        def rolling_crashes(mdbs: MDBS, _: list[GlobalTransaction]) -> None:
            span = spec.inter_arrival * n_transactions
            victims = [*sorted(mix.site_protocols()), COORDINATOR_ID]
            for index, site_id in enumerate(victims):
                at = span * (index + 1) / (len(victims) + 1)
                mdbs.failures.schedule(CrashSchedule(site_id, at=at, down_for=40.0))

        mdbs, transactions = run_workload(
            mix,
            self.coordinator,
            spec,
            self.drain,
            timeouts=self.timeouts,
            prepare=rolling_crashes if self.crashes else None,
            **self.build,
        )
        decided_at: dict[str, float] = {}
        for event in mdbs.sim.trace.select(category="protocol", name="decide"):
            decided_at.setdefault(event.details["txn"], event.time)
        reports = mdbs.check()
        run = StormRun(self, mdbs, transactions, reports, decided_at)
        return ScenarioResult(
            events=mdbs.sim.steps_executed if self.count_steps else n_transactions,
            trace_events=len(mdbs.sim.trace),
            messages=mdbs.network.sent_count,
            checks_passed=(
                (reports.all_hold or not self.atomic)
                and (len(decided_at) == n_transactions or self.crashes)
            ),
            detail={"transactions": n_transactions, **self.describe(run)},
        )


def storm_detail(run: StormRun) -> dict[str, Any]:
    """The sparse ``commit-storm-{prany,u2pc,c2pc}`` rows."""
    return {
        "coordinator": run.row.coordinator,
        "messages_dropped": run.mdbs.network.dropped_count,
        "atomicity_violations": len(run.reports.atomicity.violations),
    }


def dense_detail(run: StormRun) -> dict[str, Any]:
    """The dense ``commit-storm-dense-*`` rows: the simulated resources
    a storm costs (device forces, kernel steps)."""
    return {
        "coordinator": run.row.coordinator,
        "mix": run.row.mix,
        "decided": len(run.decided_at),
        "kernel_steps": run.mdbs.sim.steps_executed,
        "forces_performed": sum(
            site.log.force_count for site in run.mdbs.sites.values()
        ),
        "atomicity_violations": len(run.reports.atomicity.violations),
    }


def _topology_detail(run: StormRun) -> dict[str, Any]:
    """What both topology pairs record: decision latency percentiles in
    *virtual* time (decide-trace time minus submit time), which expose
    the central coordinator's receive queue or the two quorum round
    trips."""
    return {
        "decided": len(run.decided_at),
        "decision_latency_vt": latency_percentiles(
            [
                run.decided_at[txn.txn_id] - txn.submit_at
                for txn in run.transactions
                if txn.txn_id in run.decided_at
            ]
        ),
        "service_time": run.row.build["service_time"],
        "kernel_steps": run.mdbs.sim.steps_executed,
    }


def sharding_detail(run: StormRun) -> dict[str, Any]:
    """The sharding pair: adds the peak number of concurrently open
    transactions, which confirms the storm is dense enough (pipeline
    depth >= 8) for the central queue to matter."""
    sharded = run.row.build["topology"].coordinator_per_site
    decided = [txn for txn in run.transactions if txn.txn_id in run.decided_at]
    endpoints = sorted(
        [(txn.submit_at, 1) for txn in decided]
        + [(run.decided_at[txn.txn_id], -1) for txn in decided]
    )
    depth = peak_depth = 0
    for _, delta in endpoints:
        depth += delta
        peak_depth = max(peak_depth, depth)
    return {
        **_topology_detail(run),
        "sharded": sharded,
        "placement": "hash" if sharded else "tm",
        "coordinators": sorted({txn.coordinator for txn in run.transactions}),
        "peak_open_transactions": peak_depth,
    }


def replication_detail(run: StormRun) -> dict[str, Any]:
    """The replication pair: adds the acceptor-side force count (every
    promise/accept is forced before its reply leaves)."""
    return {
        **_topology_detail(run),
        "replicated": run.row.build["topology"].flags().get("replicated", 0),
        "acceptor_forces": sum(
            site.log.force_count
            for site_id, site in run.mdbs.sites.items()
            if site_id.startswith("acc")
        ),
    }


def crash_detail(run: StormRun) -> dict[str, Any]:
    return {"crashes_injected": run.mdbs.failures.crashes_injected}


# -- micro workloads ---------------------------------------------------------


def kernel_dispatch(smoke: bool = False) -> ScenarioResult:
    from repro.sim.kernel import Simulator

    n_events = 20_000 if smoke else 200_000
    sim = Simulator(seed=BENCH_SEED)
    fired = [0]

    def tick() -> None:
        fired[0] += 1
        if fired[0] < n_events:
            sim.schedule(1.0, tick)
            # Every 4th event also exercises the timer path: set one
            # and cancel it, so lazy deletion stays on the profile.
            if fired[0] % 4 == 0:
                sim.set_timer(2.0, _noop).cancel()

    for lane in range(100):
        sim.schedule(0.1 * (lane % 7), tick)
    sim.run(max_steps=n_events + 1_000)
    return ScenarioResult(
        events=sim.steps_executed,
        trace_events=len(sim.trace),
        messages=0,
        # The other in-flight lanes each fire once more after the
        # target is reached, so fired lands in [n, n + lanes).
        checks_passed=n_events <= fired[0] < n_events + 100,
        detail={"target_events": n_events, "callbacks_fired": fired[0]},
    )


def _noop() -> None:
    return None


def trace_record(smoke: bool = False) -> ScenarioResult:
    from repro.sim.tracing import TraceRecorder

    n_records = 20_000 if smoke else 200_000
    unfiltered = TraceRecorder()
    for i in range(n_records):
        unfiltered.record(
            float(i), "site0_prn", "msg", "send", kind="PREPARE", txn="t0001", to="tm"
        )

    # Same storm with only one category enabled: filtered records take
    # no seq and allocate no event. No in-tree caller sets a filter; the
    # explorer digests and replays the full trace.
    filtered = TraceRecorder()
    filtered.set_category_filter({"protocol"})
    for i in range(n_records):
        filtered.record(
            float(i), "site0_prn", "msg", "send", kind="PREPARE", txn="t0001", to="tm"
        )

    return ScenarioResult(
        events=n_records * 2,
        trace_events=len(unfiltered) + len(filtered),
        messages=0,
        checks_passed=len(unfiltered) == n_records,
        detail={
            "records_attempted": n_records * 2,
            "records_kept_unfiltered": len(unfiltered),
            "records_kept_filtered": len(filtered),
        },
    )


def explore_sweep(smoke: bool = False) -> ScenarioResult:
    from repro.explore.adversary import GeneratorConfig
    from repro.explore.runner import ParallelRunner

    seeds = range(0, 6) if smoke else range(0, 24)
    config = GeneratorConfig(protocol="prany", salt=BENCH_SEED)
    # jobs=1 keeps the measurement in-process: we are benchmarking the
    # simulator, not the multiprocessing pool.
    runner = ParallelRunner(config, jobs=1)
    sweep = runner.sweep(seeds)
    trace_events = sum(s.trace_events for s in sweep.completed)
    return ScenarioResult(
        events=trace_events,
        trace_events=trace_events,
        messages=0,
        checks_passed=not sweep.violations,
        detail={
            "seeds": sweep.seeds_scanned,
            "violations": len(sweep.violations),
        },
    )

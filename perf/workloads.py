"""The benchmark workloads.

Every live workload builds its cluster the same way: ``three_way(3)``,
coordinator policy ``"dynamic"`` (PrAny), ``LIVE_TIMEOUTS`` and every
other constructor argument at its shipped default, so a later change
that promotes or deletes an optional mechanism (group commit, the
binary codec, a topology) moves these numbers without an edit here.

Each workload repeats a unit of work (an epoch, a ladder step, a
recovery round) as often as ``--seconds`` allows (see ``Budget``),
times the phases it drives itself, and reports per-transaction figures
of its undisturbed units (``metrics.undisturbed``), so the number of
units does not change what a metric means.
"""

from __future__ import annotations

import asyncio
import shutil
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from repro.rt.cluster import LIVE_TIMEOUTS, RUN_MARGIN, LiveCluster
from repro.rt.proc.supervisor import SPAWNED_PROCESSES, ProcessCluster
from repro.workloads.generator import build_mdbs
from repro.workloads.mixes import three_way

import metrics
import streams
from spans import SpanRecorder

clock = time.perf_counter

#: How often set-up is repeated; ``setup_s`` reports the undisturbed
#: repetitions (``metrics.undisturbed``).
SETUP_REPS = 5

#: Wall seconds a wave or ladder step may wait for its last decision.
DECISION_WAIT = 20.0

#: Open-loop latency limit: a ladder step passes with p90 at or under it.
LATENCY_LIMIT_MS = 25.0

#: The generator counts as broken when it is this late at the median of
#: the lowest (under-loaded) rate.
GENERATOR_LATE_LIMIT_MS = 2.0

@dataclass(frozen=True)
class Sizes:
    """Unit sizes. Capped by today's quadratic ``finalize()`` (every
    collected transaction rewrites the whole WAL), not by taste, and
    kept small so that a run holds many units: every timing is taken
    per unit, and a run reports its undisturbed units
    (``metrics.undisturbed``)."""

    epoch_txns: int = 125
    pipeline_depth: int = 8
    #: The ladder, in the order it is climbed. Every other step is at
    #: the lowest rate, the one ``decide_p50_ms`` is read at, so its
    #: samples are spread over the whole run.
    open_rates: tuple[int, ...] = (100, 200, 100, 300, 100, 400, 100, 200, 100)
    #: A step offers at least this many arrivals and lasts at least
    #: ``open_step_min_s``: the low rates get a sample worth a median,
    #: the high ones overload long enough for a queue to build.
    open_step_arrivals: int = 100
    open_step_min_s: float = 0.5
    #: A step's arrivals are read in windows of this many, each with its
    #: own median, so a step at the lowest rate gives two units.
    open_window_arrivals: int = 50
    open_clients: int = 4
    recover_preload: int = 100
    recover_wave: int = 16
    recover_down_units: float = 30.0
    sim_epoch_txns: int = 500
    sim_inter_arrival: float = 5.0
    sim_slice_txns: int = 100
    #: Share of ``--seconds`` given to simulator epochs; the rest is for
    #: ``check()`` and the cost-model gate over the whole trace.
    sim_epoch_share: float = 0.6
    #: Nominal wall seconds of one unit (see :class:`Budget`): what it
    #: takes on a 2-core sandbox today, rounded up.
    epoch_nominal_s: float = 2.0
    open_step_nominal_s: float = 2.2
    recover_round_nominal_s: float = 4.0
    sim_epoch_nominal_s: float = 0.6


FULL = Sizes()
SMOKE = Sizes(
    epoch_txns=40,
    open_rates=(100, 400, 100),
    open_step_arrivals=30,
    open_step_min_s=0.1,
    open_window_arrivals=15,
    recover_preload=30,
    recover_wave=8,
    sim_epoch_txns=200,
    sim_slice_txns=20,
    epoch_nominal_s=1.5,
    open_step_nominal_s=1.5,
    recover_round_nominal_s=3.0,
    sim_epoch_nominal_s=0.2,
)


@dataclass
class Context:
    """What one run of one workload is given."""

    workload: str
    seed: int
    seconds: float
    sizes: Sizes
    data_root: Path
    recorder: Optional[SpanRecorder] = None


@dataclass
class Measured:
    """What one run of one workload found."""

    attempted: int
    failed: int
    gates: list[str]
    end_to_end: dict[str, float]
    per_layer: dict[str, float]
    detail: dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.gates and self.failed == 0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class Phases:
    """Wall time of the phases the benchmark drives, by name."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)

    @contextmanager
    def time(self, name: str) -> Iterator[None]:
        start = clock()
        try:
            yield
        finally:
            self.samples[name].append(clock() - start)

    def total(self, *names: str) -> float:
        return sum(sum(self.samples[name]) for name in names)

    def mean_ms(self, name: str) -> float:
        return _mean(self.samples[name]) * 1e3

    def per_unit(self, *names: str) -> list[float]:
        """Wall time of each unit: the named phases' samples added up
        position by position (every unit timed each of them once)."""
        return [sum(parts) for parts in zip(*(self.samples[name] for name in names))]


class Budget:
    """How many units of work a run makes.

    The plan is fixed by ``--seconds`` and the unit's nominal cost
    (``allowance // nominal``), so that every run does the same work
    for a seed: the same transactions, the same trace length, the same
    peak memory, whether or not a neighbour slowed part of it. The
    clock only cuts the plan short on a machine so much slower than
    nominal that another unit would take the run past ``OVERRUN``
    times its allowance; ``min_units`` are made regardless.
    """

    OVERRUN = 1.5

    def __init__(
        self, allowance_s: float, nominal_unit_s: float, min_units: int = 1
    ) -> None:
        self.allowance_s = allowance_s
        self.planned = max(min_units, int(allowance_s / nominal_unit_s))
        self.min_units = min_units
        self.done = 0
        self.started = self._unit_started = clock()

    def another(self) -> bool:
        """Call when a unit has ended: is the next one due?"""
        now = clock()
        unit_s, self._unit_started = now - self._unit_started, now
        self.done += 1
        if self.done < self.min_units:
            return True
        return (
            self.done < self.planned
            and (now - self.started) + unit_s <= self.OVERRUN * self.allowance_s
        )


class DecisionClock:
    """Wall-clock decision times taken from the cluster's trace (a
    public subscription), so latency can be counted from any instant
    the benchmark chooses, such as an arrival's due time."""

    def __init__(self, cluster: Any) -> None:
        self._loop = asyncio.get_running_loop()
        self.decided_at: dict[str, float] = {}
        self.not_started: set[str] = set()
        self._pending: set[str] = set()
        self._all_decided = asyncio.Event()
        cluster.sim.trace.subscribe(self._on_event)

    def _on_event(self, event: Any) -> None:
        if event.category == "protocol" and event.name == "decide":
            txn = event.details.get("txn")
        elif event.category == "system" and event.name == "txn_not_started":
            txn = event.details.get("txn")
            self.not_started.add(txn)
        else:
            return
        self.decided_at.setdefault(txn, self._loop.time())
        if self._pending:
            self._pending.discard(txn)
            if not self._pending:
                self._all_decided.set()

    async def wait_for(self, txn_ids: list[str], timeout: float = DECISION_WAIT) -> bool:
        """Block until every listed transaction has a decision."""
        self._pending = {txn for txn in txn_ids if txn not in self.decided_at}
        if not self._pending:
            return True
        self._all_decided.clear()
        try:
            await asyncio.wait_for(self._all_decided.wait(), timeout)
        except asyncio.TimeoutError:
            self._pending = set()
            return False
        return True


# -- set-up and wrap-up shared by the live workloads --------------------------


def _sites() -> list[str]:
    return sorted(three_way(3).site_protocols())


async def _build_cluster(workload: str, data_dir: Path) -> Any:
    cluster_class = ProcessCluster if workload == "closed_multiproc" else LiveCluster
    cluster = cluster_class(
        three_way(3), data_dir, coordinator="dynamic", timeouts=LIVE_TIMEOUTS
    )
    await cluster.start()
    return cluster


async def _timed_setup(
    ctx: Context, make_inputs: Callable[[], Any]
) -> tuple[Any, Any, dict[str, float]]:
    """Generate the first inputs and bring a cluster up, ``SETUP_REPS``
    times; the last cluster is the one the run measures."""
    build_s, gen_s = [], []
    cluster = inputs = None
    for rep in range(SETUP_REPS):
        start = clock()
        inputs = make_inputs()
        generated = clock()
        cluster = await _build_cluster(ctx.workload, ctx.data_root / f"cluster{rep}")
        gen_s.append(generated - start)
        build_s.append(clock() - start)
        if rep < SETUP_REPS - 1:
            await cluster.shutdown()
            shutil.rmtree(ctx.data_root / f"cluster{rep}", ignore_errors=True)
    return cluster, inputs, {
        "build_s": metrics.undisturbed(build_s),
        "gen_ms": metrics.undisturbed(gen_s) * 1e3,
    }


def _live_counts(cluster: Any) -> dict[str, float]:
    """Trace counts plus the transports' own counters."""
    counts: dict[str, float] = dict(metrics.scan_trace(cluster.sim.trace))
    if isinstance(cluster, ProcessCluster):
        totals = cluster.message_counts()
        counts.update(
            sent=totals["sent"],
            deliveries=totals["delivered"],
            dropped=totals["dropped"],
            sites=0,
        )
    else:
        transports = [host.transport for host in cluster.hosts.values()]
        counts.update(
            sent=sum(t.sent_count for t in transports),
            deliveries=sum(t.delivered_count for t in transports),
            dropped=sum(t.dropped_count for t in transports),
            sites=len(transports),
        )
    counts["timers_fired"] = cluster.sim.steps_executed
    counts["begun"] = len(cluster.submitted)
    return counts


async def _wrap_up_live(
    ctx: Context,
    cluster: Any,
    decisions: DecisionClock,
    phases: Phases,
    setup: dict[str, float],
    end_to_end: dict[str, float],
    driver: dict[str, float],
    detail: dict[str, Any],
    gates: list[str],
    unit_txns: list[int],
    unit_phases: Optional[tuple[str, ...]] = None,
) -> Measured:
    """Correctness gate, counters, teardown and the metric tables.

    ``unit_txns``: how many transactions each unit's ``finalize()``
    call forgot. The forget cost is that of the undisturbed calls
    (``metrics.undisturbed``) among the calls of the most common size:
    while ``finalize()`` is quadratic a larger call costs more per
    transaction, and a figure taken over unequal calls jumps between
    sizes (5.0 <-> 6.0 ms on ladder steps of 150 and 225 arrivals).
    ``unit_phases``: the units were alike and these phases add up to a
    unit's wall time, so throughput is that of the undisturbed units
    too; otherwise all transactions over all the time."""
    with phases.time("check"):
        if isinstance(cluster, ProcessCluster):
            await cluster.collect()
        reports = cluster.check()
    outcomes = cluster.outcomes()
    submitted = [txn.txn_id for txn in cluster.submitted]
    undecided = [txn for txn in submitted if txn not in outcomes]
    failing = set(undecided) | decisions.not_started | metrics.report_failures(reports)
    if not reports.all_hold:
        gates.append(f"correctness reports failed:\n{reports}")
    if undecided:
        gates.append(f"{len(undecided)} transactions undecided at quiescence")
    counts = _live_counts(cluster)
    # Empty unless the cluster is a ProcessCluster; read before shutdown.
    peak_rss_mb = metrics.peak_rss_mb(
        child.pid for child in SPAWNED_PROCESSES if child.poll() is None
    )
    await cluster.shutdown()
    txns = len(submitted)
    usual = statistics.mode(unit_txns)
    if unit_phases:
        throughput = usual / metrics.undisturbed(phases.per_unit(*unit_phases))
    else:
        throughput = txns / phases.total("decide", "quiesce", "finalize")
    forget_ms = metrics.undisturbed(
        [
            seconds * 1e3 / count
            for count, seconds in zip(unit_txns, phases.samples["finalize"])
            if count == usual
        ]
    )
    end_to_end.update(
        setup_s=setup["import_s"] + setup["build_s"],
        txn_per_s=throughput,
        forget_ms_per_txn=forget_ms,
        peak_rss_mb=peak_rss_mb,
    )
    per_layer = metrics.layer_metrics(ctx.recorder, counts, txns)
    per_layer.update(driver)
    per_layer.update(
        {
            "driver.decide_txn_per_s": txns / phases.total("decide"),
            "driver.quiesce_ms_per_epoch": phases.mean_ms("quiesce"),
            "driver.check_ms": phases.total("check") * 1e3,
            "workloads.gen_ms": setup["gen_ms"],
        }
    )
    if isinstance(cluster, ProcessCluster):
        per_layer.update(
            {
                "proc.spawn_ms": setup["build_s"] * 1e3 - setup["gen_ms"],
                "proc.events_shipped_per_txn": counts["events"] / txns,
                "proc.finalize_call_ms": phases.mean_ms("finalize"),
                "proc.child_msgs_per_txn": counts["sent"] / txns,
            }
        )
    detail.update(
        phases_s={name: sum(samples) for name, samples in phases.samples.items()},
        unit_phases_s=dict(phases.samples),
        units=len(phases.samples["finalize"]),
        undecided=len(undecided),
        not_started=len(decisions.not_started),
        commits=sum(1 for decision in outcomes.values() if decision == "commit"),
        aborts=sum(1 for decision in outcomes.values() if decision == "abort"),
    )
    return Measured(txns, len(failing), gates, end_to_end, per_layer, detail)


async def _quiesce_and_forget(cluster: Any, phases: Phases) -> None:
    with phases.time("quiesce"):
        await cluster.run(until=cluster.sim.now + RUN_MARGIN)
    with phases.time("finalize"):
        await cluster.finalize()


# -- closed_inproc / closed_multiproc -----------------------------------------


async def closed(ctx: Context, setup: dict[str, float]) -> Measured:
    """Closed loop of ``pipeline_depth`` clients in epochs: decide phase
    -> ``run()`` to quiescence -> ``finalize()``. Epochs bound the WAL
    at GC time the way a checkpoint interval would."""
    sizes, sites = ctx.sizes, _sites()

    def epoch_stream(index: int) -> list[Any]:
        return streams.transactions(ctx.seed, f"e{index}", sizes.epoch_txns, sites)

    cluster, stream, built = await _timed_setup(ctx, lambda: epoch_stream(0))
    setup.update(built)
    decisions = DecisionClock(cluster)
    phases = Phases()
    latencies_ms: list[float] = []
    epoch_p50_ms: list[float] = []
    budget = Budget(ctx.seconds, sizes.epoch_nominal_s)
    while True:
        with phases.time("decide"):
            decided = await cluster.run_pipelined(
                stream, max_in_flight=sizes.pipeline_depth
            )
        epoch_ms = [seconds * 1e3 for seconds in decided.values()]
        epoch_p50_ms.append(statistics.median(epoch_ms))
        latencies_ms.extend(epoch_ms)
        await _quiesce_and_forget(cluster, phases)
        if not budget.another():
            break
        stream = epoch_stream(budget.done)
    end_to_end = {"decide_p50_ms": metrics.undisturbed(epoch_p50_ms)}
    driver = {
        "driver.decide_p90_ms": metrics.percentile(latencies_ms, 0.9),
        "driver.decide_p99_ms": metrics.percentile(latencies_ms, 0.99),
    }
    detail = {"latency_samples": len(latencies_ms), "epoch_p50_ms": epoch_p50_ms}
    return await _wrap_up_live(
        ctx, cluster, decisions, phases, setup, end_to_end, driver, detail, [],
        unit_txns=[sizes.epoch_txns] * budget.done,
        unit_phases=("decide", "quiesce", "finalize"),
    )


# -- open_inproc --------------------------------------------------------------


async def open_loop(ctx: Context, setup: dict[str, float]) -> Measured:
    """Poisson arrivals from ``open_clients`` seeded clocks owned by the
    benchmark, submitted at their due instant whether or not earlier
    ones have been decided; latency counts from the *due* time. The
    generator shares the event loop with the cluster, so when the loop
    is busy an arrival is submitted late and that wait is part of its
    latency, as a request queued at a busy server's socket would be."""
    sizes, sites = ctx.sizes, _sites()
    ladder = sizes.open_rates
    rates = sorted(set(ladder))
    loop = asyncio.get_running_loop()

    def step_inputs(index: int, rate: int) -> tuple[list[Any], list[float]]:
        label = f"o{index}"
        arrivals = max(sizes.open_step_arrivals, round(rate * sizes.open_step_min_s))
        return (
            streams.transactions(ctx.seed, label, arrivals, sites),
            streams.poisson_offsets(ctx.seed, label, rate, arrivals, sizes.open_clients),
        )

    cluster, inputs, built = await _timed_setup(ctx, lambda: step_inputs(0, ladder[0]))
    setup.update(built)
    decisions = DecisionClock(cluster)
    phases = Phases()
    latency_ms: dict[int, list[float]] = defaultdict(list)
    window_p50_ms: dict[int, list[float]] = defaultdict(list)
    late_ms: dict[int, list[float]] = defaultdict(list)
    achieved: dict[int, list[float]] = defaultdict(list)
    undecided_at: dict[int, int] = defaultdict(int)
    step_txns: list[int] = []
    budget = Budget(ctx.seconds, sizes.open_step_nominal_s, min_units=len(ladder))
    while True:
        rate = ladder[budget.done % len(ladder)]
        if budget.done:
            inputs = step_inputs(budget.done, rate)
        stream, offsets = inputs
        step_txns.append(len(stream))
        due_at: dict[str, float] = {}
        with phases.time("decide"):
            origin = loop.time() + 0.005
            for txn, offset in zip(stream, offsets):
                due = origin + offset
                wait = due - loop.time()
                if wait > 0:
                    await asyncio.sleep(wait)
                late_ms[rate].append((loop.time() - due) * 1e3)
                due_at[txn.txn_id] = due
                cluster.submit(txn, immediate=True)
            await decisions.wait_for(list(due_at))
        await _quiesce_and_forget(cluster, phases)
        step_ms = [
            (decisions.decided_at[txn] - due) * 1e3
            for txn, due in due_at.items()
            if txn in decisions.decided_at
        ]
        undecided_at[rate] += len(due_at) - len(step_ms)
        if step_ms:
            latency_ms[rate].extend(step_ms)
            # ``due_at`` is in due order, so these are consecutive arrivals.
            for first in range(0, len(step_ms), sizes.open_window_arrivals):
                window = step_ms[first : first + sizes.open_window_arrivals]
                if 2 * len(window) >= sizes.open_window_arrivals:
                    window_p50_ms[rate].append(statistics.median(window))
            last = max(
                decisions.decided_at[txn]
                for txn in due_at
                if txn in decisions.decided_at
            )
            achieved[rate].append(len(step_ms) / (last - origin))
        if not budget.another():
            break

    passing = [
        rate
        for rate in rates
        if metrics.percentile(latency_ms[rate], 0.9) <= LATENCY_LIMIT_MS
        and _mean(achieved[rate]) >= 0.9 * rate
        and undecided_at[rate] == 0
    ]
    gates = []
    generator_late = metrics.percentile(late_ms[rates[0]], 0.5)
    if generator_late > GENERATOR_LATE_LIMIT_MS:
        gates.append(
            f"generator ran {generator_late:.2f} ms late at the median of the "
            f"{rates[0]} txn/s step (limit {GENERATOR_LATE_LIMIT_MS} ms)"
        )
    if not window_p50_ms[rates[0]]:
        gates.append(f"nothing was decided at {rates[0]} txn/s")
    everything = [value for rate in rates for value in latency_ms[rate]]
    # The windows of the lowest rate are spread over the whole run (every
    # other step), so a disturbed minute leaves some of them alone.
    end_to_end = {"decide_p50_ms": metrics.undisturbed(window_p50_ms[rates[0]])}
    driver = {
        "driver.decide_p90_ms": metrics.percentile(everything, 0.9),
        "driver.decide_p99_ms": metrics.percentile(everything, 0.99),
        "driver.max_rate_ok": float(max(passing, default=0)),
        "driver.gen_late_p99_ms": metrics.percentile(late_ms[rates[0]], 0.99),
    }
    for rate in rates:
        driver[f"driver.p50_ms_r{rate}"] = metrics.undisturbed(window_p50_ms[rate])
        driver[f"driver.p90_ms_r{rate}"] = metrics.percentile(latency_ms[rate], 0.9)
        driver[f"driver.achieved_r{rate}"] = _mean(achieved[rate])
    detail = {
        "steps": budget.done,
        "samples_per_rate": {rate: len(latency_ms[rate]) for rate in rates},
        "window_p50_ms": dict(window_p50_ms),
        "gen_late_p99_ms": {
            rate: metrics.percentile(late_ms[rate], 0.99) for rate in rates
        },
        "latency_limit_ms": LATENCY_LIMIT_MS,
    }
    return await _wrap_up_live(
        ctx, cluster, decisions, phases, setup, end_to_end, driver, detail, gates,
        unit_txns=step_txns,
    )


# -- recover_inproc -----------------------------------------------------------


class KillOnAppend:
    """Kills ``victim`` on its first log append for a transaction of the
    armed wave (the trace subscription ``tests/rt/test_recovery.py``
    uses), holds it down, restarts it from its WAL."""

    def __init__(self, cluster: Any, down_units: float, phases: Phases) -> None:
        self._cluster = cluster
        self._down_units = down_units
        self._phases = phases
        self._victim: Optional[str] = None
        self._wave: set[str] = set()
        self.task: Optional[asyncio.Future] = None
        self.killed_at = 0.0
        self._fired = asyncio.Event()
        cluster.sim.trace.subscribe(self._on_event)

    def arm(self, victim: str, wave: set[str]) -> None:
        self._victim, self._wave, self.task = victim, wave, None
        self._fired.clear()

    def _on_event(self, event: Any) -> None:
        if (
            self.task is None
            and self._victim is not None
            and event.site == self._victim
            and event.category == "log"
            and event.name == "append"
            and event.details.get("txn") in self._wave
        ):
            # Not from inside the append itself: the kill runs as its
            # own task on the next loop iteration.
            self.task = asyncio.ensure_future(self._kill_and_restart())
            self._fired.set()

    async def _kill_and_restart(self) -> None:
        victim = self._victim
        self._victim = None
        self.killed_at = asyncio.get_running_loop().time()
        await self._cluster.kill(victim)
        await asyncio.sleep(self._cluster.sim.to_seconds(self._down_units))
        with self._phases.time("restart"):
            await self._cluster.restart(victim)

    async def finished(self, timeout: float = DECISION_WAIT) -> bool:
        try:
            await asyncio.wait_for(self._fired.wait(), timeout)
        except asyncio.TimeoutError:
            return False
        assert self.task is not None
        await self.task
        return True


async def recover(ctx: Context, setup: dict[str, float]) -> Measured:
    """Rounds of: preload without GC (so a victim's WAL is worth
    replaying), a kill/restart cycle whose victim is a participant
    (rotating over the three), one whose victim is the coordinator, one
    ``finalize()``. A cycle submits a wave, kills the victim on its
    first log append for that wave, holds it down, restarts it, and
    waits until the whole wave is decided and the cluster is quiescent
    again."""
    sizes, sites = ctx.sizes, _sites()
    loop = asyncio.get_running_loop()

    def preload_stream(index: int) -> list[Any]:
        return streams.transactions(ctx.seed, f"p{index}", sizes.recover_preload, sites)

    cluster, preload, built = await _timed_setup(ctx, lambda: preload_stream(0))
    setup.update(built)
    decisions = DecisionClock(cluster)
    phases = Phases()
    killer = KillOnAppend(cluster, sizes.recover_down_units, phases)
    gates: list[str] = []
    # Per victim kind: wave submit -> last decision, kill -> last decision.
    wave_ms: dict[str, list[float]] = {"participant": [], "coordinator": []}
    outage_ms: dict[str, list[float]] = {"participant": [], "coordinator": []}
    round_wave_ms: list[float] = []
    budget = Budget(ctx.seconds, sizes.recover_round_nominal_s)
    while not gates:
        index = budget.done
        round_started = clock()
        with phases.time("decide"):
            await cluster.run_pipelined(preload, max_in_flight=sizes.pipeline_depth)
        with phases.time("quiesce"):
            await cluster.run(until=cluster.sim.now + RUN_MARGIN)
        this_round = []
        for kind, victim in (
            ("participant", sites[index % len(sites)]),
            ("coordinator", streams.COORDINATOR),
        ):
            wave = streams.transactions(
                ctx.seed, f"w{index}{kind[0]}", sizes.recover_wave, sites
            )
            wave_ids = [txn.txn_id for txn in wave]
            killer.arm(victim, set(wave_ids))
            with phases.time("decide"):
                submitted_at = loop.time()
                for txn in wave:
                    cluster.submit(txn, immediate=True)
                fired = await killer.finished()
                decided = fired and await decisions.wait_for(wave_ids)
            if not decided:
                why = "the wave was not decided" if fired else "the kill never fired"
                gates.append(f"round {index}, victim {victim}: {why}")
                break
            last = max(decisions.decided_at[txn] for txn in wave_ids)
            this_round.append((last - submitted_at) * 1e3)
            wave_ms[kind].append(this_round[-1])
            outage_ms[kind].append((last - killer.killed_at) * 1e3)
            with phases.time("quiesce"):
                await cluster.run(until=cluster.sim.now + RUN_MARGIN)
        with phases.time("finalize"):
            await cluster.finalize()
        phases.samples["round"].append(clock() - round_started)
        if len(this_round) == 2:
            round_wave_ms.append(_mean(this_round))
        if not budget.another():
            break
        preload = preload_stream(budget.done)

    waves = wave_ms["participant"] + wave_ms["coordinator"]
    # The two kinds of outage are set by different timers (~1210 and
    # ~330 ms today); a median over all waves would sit between the two
    # modes, so each round counts once, with the mean of its two waves.
    end_to_end = {"decide_p50_ms": metrics.undisturbed(round_wave_ms)}
    driver = {
        "driver.decide_p90_ms": metrics.percentile(waves, 0.9),
        "driver.decide_p99_ms": metrics.percentile(waves, 0.99),
        "driver.outage_participant_ms": _median(outage_ms["participant"]),
        "driver.outage_coordinator_ms": _median(outage_ms["coordinator"]),
    }
    detail = {"rounds": budget.done, "wave_ms": wave_ms, "outage_ms": outage_ms}
    round_txns = sizes.recover_preload + 2 * sizes.recover_wave
    return await _wrap_up_live(
        ctx, cluster, decisions, phases, setup, end_to_end, driver, detail, gates,
        unit_txns=[round_txns] * len(phases.samples["finalize"]),
        unit_phases=("round",),
    )


# -- sim_storm ----------------------------------------------------------------


def _calibrate_model_counting() -> list[str]:
    """``cost_breakdown`` is exact only for a transaction that has the
    run to itself (it credits every buffered record at a site to the
    next force there, whoever asked for it). So each participant set
    the storm can draw commits once, alone, in a fresh simulator, and
    the library, the closed-form model and the one-pass counter used
    on the storm must agree on it."""
    mix = three_way(3)
    sites = sorted(mix.site_protocols())
    subsets = [[a, b] for i, a in enumerate(sites) for b in sites[i + 1 :]] + [sites]
    problems: list[str] = []
    for index, chosen in enumerate(subsets):
        mdbs = build_mdbs(mix, coordinator="dynamic")
        txn = streams.GlobalTransaction(
            txn_id=f"cal-{index}",
            coordinator=streams.COORDINATOR,
            writes={site: [streams.WriteOp(key=f"cal@{site}", value=index)] for site in chosen},
        )
        mdbs.submit(txn)
        mdbs.run(until=RUN_MARGIN)
        problems += metrics.calibrate_cost_counting(mdbs, [txn])
    return problems


def sim_storm(ctx: Context, setup: dict[str, float]) -> Measured:
    """``build_mdbs`` + a dense transaction stream through the
    simulator in epochs: ``run`` -> ``finalize``, then ``check`` and the
    cost-model gate. The decide phase runs in slices of
    ``sim_slice_txns`` arrivals; ``decide_p50_ms`` is the median slice's
    wall time per transaction, the simulator's analogue of a latency."""
    sizes = ctx.sizes
    mix = three_way(3)
    sites = sorted(mix.site_protocols())

    def epoch_stream(index: int, start_at: float) -> list[Any]:
        return streams.transactions(
            ctx.seed,
            f"s{index}",
            sizes.sim_epoch_txns,
            sites,
            inter_arrival=sizes.sim_inter_arrival,
            start_at=start_at,
        )

    build_s, gen_s = [], []
    for _ in range(SETUP_REPS):
        start = clock()
        stream = epoch_stream(0, 0.0)
        generated = clock()
        mdbs = build_mdbs(mix, coordinator="dynamic")
        gen_s.append(generated - start)
        build_s.append(clock() - start)
    setup.update(build_s=metrics.undisturbed(build_s), gen_ms=metrics.undisturbed(gen_s) * 1e3)

    phases = Phases()
    slice_ms: list[float] = []
    submitted: list[Any] = []
    budget = Budget(ctx.seconds * sizes.sim_epoch_share, sizes.sim_epoch_nominal_s)
    while True:
        with phases.time("decide"):
            for txn in stream:
                mdbs.submit(txn)
            for first in range(0, len(stream), sizes.sim_slice_txns):
                chunk = stream[first : first + sizes.sim_slice_txns]
                slice_started = clock()
                mdbs.run(until=chunk[-1].submit_at)
                slice_ms.append((clock() - slice_started) * 1e3 / len(chunk))
            mdbs.run(until=stream[-1].submit_at + RUN_MARGIN)
        with phases.time("finalize"):
            mdbs.finalize()
        submitted.extend(stream)
        if not budget.another():
            break
        stream = epoch_stream(budget.done, mdbs.sim.now)

    gates: list[str] = []
    with phases.time("check"):
        reports = mdbs.check()
        outcomes = {
            event.details["txn"]: event.details["decision"]
            for event in mdbs.sim.trace.select(category="protocol", name="decide")
        }
        model = metrics.model_residuals(
            mdbs.sim.trace, submitted, outcomes, mix.site_protocols()
        )
        disagreements = _calibrate_model_counting()
    undecided = [txn.txn_id for txn in submitted if txn.txn_id not in outcomes]
    failing = set(undecided) | metrics.report_failures(reports)
    if not reports.all_hold:
        gates.append(f"correctness reports failed:\n{reports}")
    if undecided:
        gates.append(f"{len(undecided)} transactions undecided at quiescence")
    if model["mismatched"]:
        gates.append(
            f"{model['mismatched']} committed transactions off the closed-form "
            f"cost model (forces {model['forces_residual']:+d}, "
            f"messages {model['msgs_residual']:+d})"
        )
    if disagreements:
        gates.append("cost counting disagrees on a lone transaction: " + "; ".join(disagreements))

    txns = len(submitted)
    counts: dict[str, float] = dict(metrics.scan_trace(mdbs.sim.trace))
    counts.update(
        sent=mdbs.network.sent_count,
        deliveries=mdbs.network.delivered_count,
        dropped=mdbs.network.dropped_count,
        sites=len(mdbs.sites),
        begun=txns,
    )
    epoch_s = metrics.undisturbed(phases.per_unit("decide", "finalize"))
    end_to_end = {
        "setup_s": setup["import_s"] + setup["build_s"],
        "txn_per_s": sizes.sim_epoch_txns / epoch_s,
        "decide_p50_ms": metrics.undisturbed(slice_ms),
        "forget_ms_per_txn": metrics.undisturbed(phases.samples["finalize"]) * 1e3 / sizes.sim_epoch_txns,
        "peak_rss_mb": metrics.peak_rss_mb(),
    }
    per_layer = metrics.layer_metrics(ctx.recorder, counts, txns)
    decide_latency_vt = _virtual_decide_latencies(mdbs.sim.trace, submitted)
    per_layer.update(
        {
            "driver.decide_txn_per_s": txns / phases.total("decide"),
            "driver.decide_p90_ms": metrics.percentile(slice_ms, 0.9),
            "driver.decide_p99_ms": metrics.percentile(slice_ms, 0.99),
            "driver.check_ms": phases.total("check") * 1e3,
            "workloads.gen_ms": setup["gen_ms"],
            "sim.steps_per_txn": mdbs.sim.steps_executed / txns,
            "sim.step_us": phases.total("decide") * 1e6 / mdbs.sim.steps_executed,
            "sim.decide_p50_vt": metrics.percentile(decide_latency_vt, 0.5),
            "net.msgs_per_txn": mdbs.network.sent_count / txns,
            "model.forces_residual": float(model["forces_residual"]),
            "model.msgs_residual": float(model["msgs_residual"]),
        }
    )
    detail = {
        "phases_s": {name: sum(samples) for name, samples in phases.samples.items()},
        "unit_phases_s": dict(phases.samples),
        "units": budget.done,
        "undecided": len(undecided),
        "model": model,
        "commits": model["committed"],
        "aborts": model["forced_no_aborts"],
    }
    return Measured(txns, len(failing), gates, end_to_end, per_layer, detail)


def _virtual_decide_latencies(trace: Any, submitted: list[Any]) -> list[float]:
    """Arrival -> decision in virtual time units (repeats exactly)."""
    arrival = {txn.txn_id: txn.submit_at for txn in submitted}
    return [
        event.time - arrival[event.details["txn"]]
        for event in trace.select(category="protocol", name="decide")
        if event.details.get("txn") in arrival
    ]


# -- dispatch -----------------------------------------------------------------

RUNNERS: dict[str, Callable[[Context, dict[str, float]], Any]] = {
    "closed_inproc": closed,
    "closed_multiproc": closed,
    "open_inproc": open_loop,
    "recover_inproc": recover,
    "sim_storm": sim_storm,
}


def run(ctx: Context, import_s: float) -> Measured:
    """Run one workload to completion (set-up, timed region, gates)."""
    setup = {"import_s": import_s}
    runner = RUNNERS[ctx.workload]
    if asyncio.iscoroutinefunction(runner):
        measured = asyncio.run(runner(ctx, setup))
    else:
        measured = runner(ctx, setup)
    measured.detail["setup"] = setup
    return measured

"""The benchmark scenario registry.

Each :class:`Scenario` is a deterministic, end-to-end workload pinned
to a fixed seed: running it twice produces the same event count, the
same message count and the same trace — only the wall-clock time
varies. That is what makes the numbers in ``BENCH_sim.json``
comparable across commits: a change in *work done* (events, messages)
is a behaviour change and is flagged as such, while a change in
*seconds* is a performance change.

The registry covers the paths every future perf PR cares about:

* ``kernel-dispatch`` — the raw event loop of :mod:`repro.sim.kernel`,
  no protocol work at all. The canonical dispatch-overhead number.
* ``trace-record`` — :class:`repro.sim.tracing.TraceRecorder` under a
  record storm, with and without a category filter.
* ``commit-storm-*`` — whole-MDBS commit processing for PrAny, U2PC
  and C2PC coordinators over the paper's heterogeneous PrN+PrA+PrC
  mix.
* ``commit-storm-log`` / ``commit-storm-log-grouped`` — the
  storage-layer commit storm: identical bursts of commit-record force
  requests against a plain :class:`StableLog` vs a
  :class:`GroupCommitLog`. The pair isolates the group-commit engine's
  force amortization with identical work counters.
* ``commit-storm-dense-*`` / ``commit-storm-grouped-*`` — whole-MDBS
  dense storms (PrAny, PrC, C2PC) run with the group-commit engine off
  and on; each pair shares one workload so the grouped member's force /
  kernel-step savings are directly readable from ``detail``.
* ``crash-recovery`` — a commit storm with scheduled site crashes and
  §4.2 recovery in the middle of it.
* ``explore-sweep`` — a fixed-seed in-process slice of the PR 1
  adversarial explorer, the heaviest composite consumer of the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ReproError

#: Seed shared by every registered scenario (pinned; never change it
#: without bumping the report schema version — numbers stop being
#: comparable across the change otherwise).
BENCH_SEED = 7


@dataclass(frozen=True)
class ScenarioResult:
    """What one execution of a scenario did (deterministic per seed).

    Attributes:
        events: kernel events dispatched (``Simulator.steps_executed``),
            or the scenario's natural unit of work where no kernel runs
            (trace records for ``trace-record``) or where the scenario
            is one half of a grouped/ungrouped pair (force requests for
            ``commit-storm-log*``, transactions for the dense storms) —
            pair members must report identical ``events`` so their
            events/sec are directly comparable.
        trace_events: total trace events recorded.
        messages: network messages sent.
        checks_passed: the scenario's own correctness gate — benchmarks
            must never trade correctness for speed silently.
        detail: free-form scenario-specific counters.
    """

    events: int
    trace_events: int
    messages: int
    checks_passed: bool
    detail: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    """A named, seeded benchmark workload.

    Attributes:
        name: registry key, also the key in ``BENCH_sim.json``.
        description: one line for ``repro bench --list`` and the report.
        seed: the pinned seed (always :data:`BENCH_SEED` today).
        tags: coarse grouping (``"micro"``, ``"system"``, ``"composite"``).
        run: executes the workload; ``smoke=True`` shrinks it to a
            CI-friendly size (same shape, fewer iterations).
        deterministic: whether reps must report identical work counters
            (every simulated scenario). Live wall-clock scenarios
            (``repro.rt.bench``) set this False — real sockets make
            trace/message counts rep-dependent — and the runner then
            skips its cross-rep identity assertion.
    """

    name: str
    description: str
    seed: int
    tags: tuple[str, ...]
    run: Callable[[bool], ScenarioResult]
    deterministic: bool = True


SCENARIOS: dict[str, Scenario] = {}


def register(
    name: str,
    description: str,
    tags: tuple[str, ...],
    seed: int = BENCH_SEED,
) -> Callable[[Callable[[bool], ScenarioResult]], Callable[[bool], ScenarioResult]]:
    """Decorator: add a scenario runner to the registry."""

    def installer(fn: Callable[[bool], ScenarioResult]) -> Callable[[bool], ScenarioResult]:
        if name in SCENARIOS:
            raise ReproError(f"duplicate bench scenario {name!r}")
        SCENARIOS[name] = Scenario(
            name=name, description=description, seed=seed, tags=tags, run=fn
        )
        return fn

    return installer


def get_scenarios(selector: str) -> list[Scenario]:
    """Resolve a ``--scenario`` argument to scenarios, in registry order.

    ``"all"`` selects everything; otherwise a comma-separated list of
    registry names (or tags).
    """
    if selector == "all":
        return list(SCENARIOS.values())
    chosen: list[Scenario] = []
    for token in selector.split(","):
        token = token.strip()
        if not token:
            continue
        if token in SCENARIOS:
            if SCENARIOS[token] not in chosen:
                chosen.append(SCENARIOS[token])
            continue
        tagged = [s for s in SCENARIOS.values() if token in s.tags]
        if not tagged:
            raise ReproError(
                f"unknown bench scenario {token!r}; "
                f"expected 'all', a name in {sorted(SCENARIOS)} or a tag"
            )
        for scenario in tagged:
            if scenario not in chosen:
                chosen.append(scenario)
    if not chosen:
        raise ReproError(f"empty scenario selection {selector!r}")
    return chosen


# -- micro scenarios ---------------------------------------------------------


@register(
    "kernel-dispatch",
    "raw event-loop dispatch: chained timers, cancellations, no protocol work",
    tags=("micro", "kernel"),
)
def _kernel_dispatch(smoke: bool = False) -> ScenarioResult:
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


@register(
    "trace-record",
    "trace-recorder storm: typical message/log payloads, half behind a category filter",
    tags=("micro", "tracing"),
)
def _trace_record(smoke: bool = False) -> ScenarioResult:
    from repro.sim.tracing import TraceRecorder

    n_records = 20_000 if smoke else 200_000
    unfiltered = TraceRecorder()
    for i in range(n_records):
        unfiltered.record(
            float(i), "site0_prn", "msg", "send", kind="PREPARE", txn="t0001", to="tm"
        )

    # Same storm with only the category the checkers need enabled: the
    # number every trace-heavy caller (the explorer) gets to pay instead.
    filtered = TraceRecorder()
    set_filter = getattr(filtered, "set_category_filter", None)
    if set_filter is not None:
        set_filter({"protocol"})
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


# -- whole-system scenarios --------------------------------------------------


def _commit_storm(coordinator: str, smoke: bool, expect_atomic: bool) -> ScenarioResult:
    from repro.workloads.generator import WorkloadSpec, build_mdbs, generate_transactions
    from repro.workloads.mixes import MIXES

    mix = MIXES["PrN+PrA+PrC"]
    n_transactions = 40 if smoke else 400
    mdbs = build_mdbs(mix, coordinator=coordinator, seed=BENCH_SEED)
    spec = WorkloadSpec(
        n_transactions=n_transactions,
        abort_fraction=0.2,
        participants_min=2,
        participants_max=3,
        inter_arrival=5.0,
        hot_keys=0,
        seed=BENCH_SEED,
    )
    for txn in generate_transactions(spec, sorted(mix.site_protocols())):
        mdbs.submit(txn)
    mdbs.run(until=spec.inter_arrival * n_transactions + 2_000.0)
    mdbs.finalize()
    reports = mdbs.check()
    decided = {
        event.details["txn"]
        for event in mdbs.sim.trace.select(category="protocol", name="decide")
    }
    if expect_atomic:
        # PrAny must be atomic, full stop.
        checks = reports.atomicity.holds and len(decided) == n_transactions
    else:
        # U2PC/C2PC are the paper's broken integrations: incompatible
        # presumptions mis-answer inquiries about forgotten aborts even
        # failure-free, so atomicity violations are *expected* here —
        # the gate is only that every transaction reached a decision.
        checks = len(decided) == n_transactions
    return ScenarioResult(
        events=mdbs.sim.steps_executed,
        trace_events=len(mdbs.sim.trace),
        messages=mdbs.network.sent_count,
        checks_passed=checks,
        detail={
            "transactions": n_transactions,
            "coordinator": coordinator,
            "messages_dropped": mdbs.network.dropped_count,
            "atomicity_violations": len(reports.atomicity.violations),
        },
    )


@register(
    "commit-storm-prany",
    "400 mixed-presumption transactions under the dynamic PrAny coordinator",
    tags=("system", "protocol"),
)
def _storm_prany(smoke: bool = False) -> ScenarioResult:
    return _commit_storm("dynamic", smoke, expect_atomic=True)


@register(
    "commit-storm-u2pc",
    "the same storm under the naive-union U2PC(PrC) coordinator",
    tags=("system", "protocol"),
)
def _storm_u2pc(smoke: bool = False) -> ScenarioResult:
    return _commit_storm("U2PC(PrC)", smoke, expect_atomic=False)


@register(
    "commit-storm-c2pc",
    "the same storm under the conservative C2PC(PrN) coordinator",
    tags=("system", "protocol"),
)
def _storm_c2pc(smoke: bool = False) -> ScenarioResult:
    return _commit_storm("C2PC(PrN)", smoke, expect_atomic=False)


# -- group-commit pair scenarios ---------------------------------------------
#
# Each pair runs the *same* deterministic workload with the group-commit
# engine off (baseline) and on. Pair members report identical ``events``
# (the shared unit of logical work) so their events/sec medians are
# directly comparable; ``detail`` carries the physical counters the
# engine amortizes (device forces, kernel steps, delivery batches).


# Pre-built commit records for the log storms, shared across reps so
# the warmup rep pays for construction and the timed reps measure the
# log path only. Reuse is safe: append() reassigns lsn and force() only
# sets the forced flag, so a record behaves identically on every rep.
_STORM_RECORDS: dict[int, list] = {}


def _storm_records(n_requests: int) -> list:
    from repro.storage.log_records import LogRecord, RecordType

    records = _STORM_RECORDS.get(n_requests)
    if records is None:
        records = [
            LogRecord(type=RecordType.COMMIT, txn_id=f"t{i:06d}")
            for i in range(n_requests)
        ]
        _STORM_RECORDS[n_requests] = records
    return records


def _log_force_storm(grouped: bool, smoke: bool) -> ScenarioResult:
    """Storm of concurrent commit-record force requests on one log.

    This is the storage-layer commit storm: bursts of transactions all
    asking ``force_append_async`` for their COMMIT record at the same
    instant. The baseline :class:`StableLog` pays one device force per
    request; :class:`GroupCommitLog` coalesces each burst into a single
    force. Work counters (commit records appended, records stable,
    completion callbacks) are identical between the pair — only the
    number of forces differs, which is the optimization.
    """
    from repro.sim.kernel import Simulator
    from repro.storage.group_commit import GroupCommitConfig, GroupCommitLog
    from repro.storage.stable_log import StableLog

    burst = 64
    n_requests = 4_096 if smoke else 40_960
    sim = Simulator(seed=BENCH_SEED)
    log = (
        GroupCommitLog(
            sim, "tm", GroupCommitConfig(max_delay=1.0, max_batch=burst)
        )
        if grouped
        else StableLog(sim, "tm")
    )
    records = _storm_records(n_requests)
    completed = [0]

    def on_stable() -> None:
        completed[0] += 1

    submit = log.force_append_async

    def submit_burst(chunk: list) -> None:
        for record in chunk:
            submit(record, on_stable)

    for tick in range(n_requests // burst):
        sim.schedule(
            float(tick),
            lambda c=records[tick * burst : (tick + 1) * burst]: submit_burst(c),
            label="commit burst",
        )
    sim.run()
    stable = log.stable_records()
    in_lsn_order = all(a.lsn < b.lsn for a, b in zip(stable, stable[1:]))
    return ScenarioResult(
        events=n_requests,
        trace_events=len(sim.trace),
        messages=0,
        checks_passed=(
            completed[0] == n_requests
            and len(stable) == n_requests
            and in_lsn_order
        ),
        detail={
            "counterpart": (
                "commit-storm-log" if grouped else "commit-storm-log-grouped"
            ),
            "force_requests": n_requests,
            "forces_performed": log.force_count,
            "requests_per_force": round(n_requests / log.force_count, 2),
            "kernel_steps": sim.steps_executed,
            "commits_stable": len(stable),
            "callbacks_fired": completed[0],
        },
    )


@register(
    "commit-storm-log",
    "bursts of 64 concurrent commit-record forces against a plain StableLog",
    tags=("micro", "storage", "group-commit"),
)
def _log_storm_plain(smoke: bool = False) -> ScenarioResult:
    return _log_force_storm(grouped=False, smoke=smoke)


@register(
    "commit-storm-log-grouped",
    "the same bursts against GroupCommitLog: one device force per window",
    tags=("micro", "storage", "group-commit"),
)
def _log_storm_grouped(smoke: bool = False) -> ScenarioResult:
    return _log_force_storm(grouped=True, smoke=smoke)


def _dense_storm(
    coordinator: str,
    mix_name: str,
    grouped: bool,
    smoke: bool,
    expect_atomic: bool,
    counterpart: str,
) -> ScenarioResult:
    """Whole-MDBS commit storm dense enough for windows to coalesce.

    Unlike the ``commit-storm-*`` scenarios above (one transaction every
    5 time units), arrivals here are 10x denser so concurrent
    transactions actually share force windows and delivery batches.
    Timeouts are relaxed so the measurement covers the commit path, not
    resend storms triggered by batching delays. ``events`` is the
    transaction count — the unit of logical work both pair members
    complete identically; the simulated resources the engine saves
    (device forces, kernel steps) are in ``detail``.
    """
    from repro.net.batching import NetBatchConfig
    from repro.protocols.base import TimeoutConfig
    from repro.storage.group_commit import GroupCommitConfig
    from repro.workloads.generator import (
        WorkloadSpec,
        build_mdbs,
        generate_transactions,
    )
    from repro.workloads.mixes import MIXES

    mix = MIXES[mix_name]
    n_transactions = 36 if smoke else 360
    timeouts = TimeoutConfig(
        vote_timeout=120.0,
        resend_interval=60.0,
        inquiry_timeout=90.0,
        inquiry_retry=60.0,
        active_timeout=240.0,
    )
    mdbs = build_mdbs(
        mix,
        coordinator=coordinator,
        seed=BENCH_SEED,
        timeouts=timeouts,
        group_commit=(
            GroupCommitConfig(max_delay=1.0, max_batch=32) if grouped else None
        ),
        net_batching=(
            NetBatchConfig(window=0.5, max_batch=32) if grouped else None
        ),
    )
    spec = WorkloadSpec(
        n_transactions=n_transactions,
        abort_fraction=0.2,
        participants_min=min(2, len(mix)),
        participants_max=min(3, len(mix)),
        inter_arrival=0.5,
        hot_keys=0,
        seed=BENCH_SEED,
    )
    for txn in generate_transactions(spec, sorted(mix.site_protocols())):
        mdbs.submit(txn)
    mdbs.run(until=spec.inter_arrival * n_transactions + 2_000.0)
    mdbs.finalize()
    reports = mdbs.check()
    decided = {
        event.details["txn"]
        for event in mdbs.sim.trace.select(category="protocol", name="decide")
    }
    forces = sum(site.log.force_count for site in mdbs.sites.values())
    checks = len(decided) == n_transactions
    if expect_atomic:
        checks = checks and reports.atomicity.holds
    return ScenarioResult(
        events=n_transactions,
        trace_events=len(mdbs.sim.trace),
        messages=mdbs.network.sent_count,
        checks_passed=checks,
        detail={
            "counterpart": counterpart,
            "coordinator": coordinator,
            "mix": mix_name,
            "transactions": n_transactions,
            "decided": len(decided),
            "kernel_steps": mdbs.sim.steps_executed,
            "forces_performed": forces,
            "batches_delivered": getattr(
                mdbs.network, "batches_delivered", 0
            ),
            "piggybacked_messages": getattr(
                mdbs.network, "piggybacked_messages", 0
            ),
            "atomicity_violations": len(reports.atomicity.violations),
        },
    )


@register(
    "commit-storm-dense-prany",
    "dense PrAny storm over PrN+PrA+PrC, group-commit engine off (pair baseline)",
    tags=("system", "protocol", "group-commit"),
)
def _dense_prany(smoke: bool = False) -> ScenarioResult:
    return _dense_storm(
        "dynamic", "PrN+PrA+PrC", False, smoke, True, "commit-storm-grouped-prany"
    )


@register(
    "commit-storm-grouped-prany",
    "the same dense PrAny storm on the group-commit engine",
    tags=("system", "protocol", "group-commit"),
)
def _grouped_prany(smoke: bool = False) -> ScenarioResult:
    return _dense_storm(
        "dynamic", "PrN+PrA+PrC", True, smoke, True, "commit-storm-dense-prany"
    )


@register(
    "commit-storm-dense-prc",
    "dense PrC storm over its own all-PrC mix, group-commit engine off (pair baseline)",
    tags=("system", "protocol", "group-commit"),
)
def _dense_prc(smoke: bool = False) -> ScenarioResult:
    return _dense_storm(
        "PrC", "all-PrC", False, smoke, True, "commit-storm-grouped-prc"
    )


@register(
    "commit-storm-grouped-prc",
    "the same dense PrC storm on the group-commit engine",
    tags=("system", "protocol", "group-commit"),
)
def _grouped_prc(smoke: bool = False) -> ScenarioResult:
    return _dense_storm(
        "PrC", "all-PrC", True, smoke, True, "commit-storm-dense-prc"
    )


@register(
    "commit-storm-dense-c2pc",
    "dense C2PC(PrN) storm over PrN+PrA+PrC, group-commit engine off (pair baseline)",
    tags=("system", "protocol", "group-commit"),
)
def _dense_c2pc(smoke: bool = False) -> ScenarioResult:
    return _dense_storm(
        "C2PC(PrN)", "PrN+PrA+PrC", False, smoke, False, "commit-storm-grouped-c2pc"
    )


@register(
    "commit-storm-grouped-c2pc",
    "the same dense C2PC(PrN) storm on the group-commit engine",
    tags=("system", "protocol", "group-commit"),
)
def _grouped_c2pc(smoke: bool = False) -> ScenarioResult:
    return _dense_storm(
        "C2PC(PrN)", "PrN+PrA+PrC", True, smoke, False, "commit-storm-dense-c2pc"
    )


# -- coordinator-topology pair scenarios -------------------------------------
#
# One dense PrAny storm under each coordinator topology
# (``repro.mdbs.topology``), as two pairs:
#
# * sharding: every transaction routed through the central ``tm`` site
#   vs hash-sharded across every site (``repro.mdbs.placement``);
# * replication: the ``tm`` coordinator alone vs replicated over a
#   3-acceptor Paxos group (``repro.replication``). Every transaction
#   pays a quorum registration before its PREPAREs and a quorum
#   acceptance before its decision is stable — extra messages, extra
#   forces (at the acceptors) and higher decision latency — in exchange
#   for the nonblocking guarantee the explorer's leader-crash scenarios
#   demonstrate.
#
# All four run on :class:`~repro.net.network.ServiceTimeNetwork` — the
# plain network has no receiver-side queuing, so a single coordinator
# never contends, quorum round trips cost nothing, and the comparisons
# would be vacuous. The RNG stream is placement-independent (see
# ``generate_transactions``), so twins run byte-identical workloads.


def _latency_percentiles(values: list[float]) -> dict[str, float]:
    """p50/p95/p99 of ``values`` (linear interpolation, virtual units)."""
    ordered = sorted(values)

    def q(p: float) -> float:
        if not ordered:
            return 0.0
        pos = (len(ordered) - 1) * p
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)

    return {"p50": round(q(0.50), 3), "p95": round(q(0.95), 3), "p99": round(q(0.99), 3)}


def _topology_storm(
    topology, drain: float, smoke: bool, describe
) -> ScenarioResult:
    """Dense PrAny storm over ``topology``.

    ``events`` is the transaction count — the shared unit of logical
    work — so a pair's events/sec stay comparable. The interesting
    numbers are in ``detail``: decision latency percentiles in *virtual*
    time (decide-trace time minus submit time), which expose the central
    coordinator's receive queue or the two quorum round trips, plus
    what ``describe(mdbs, transactions, decided_at)`` adds for the pair.
    ``drain`` is the virtual time granted after the last arrival.
    """
    from repro.protocols.base import TimeoutConfig
    from repro.workloads.generator import (
        WorkloadSpec,
        build_mdbs,
        generate_transactions,
    )
    from repro.workloads.mixes import three_way

    mix = three_way(4)
    n_transactions = 36 if smoke else 360
    # Timeouts sit far above the worst-case receive-queue backlog (the
    # full-size storm queues ~10^3 virtual units at the central
    # coordinator), so every decision is made when the votes are
    # actually processed, not by a timer — otherwise both twins would
    # flat-line at the vote timeout and the comparison would be
    # meaningless.
    timeouts = TimeoutConfig(
        vote_timeout=5_000.0,
        resend_interval=5_000.0,
        inquiry_timeout=5_000.0,
        inquiry_retry=5_000.0,
        active_timeout=20_000.0,
    )
    mdbs = build_mdbs(
        mix,
        coordinator="dynamic",
        seed=BENCH_SEED,
        timeouts=timeouts,
        topology=topology,
        service_time=0.5,
    )
    spec = WorkloadSpec(
        n_transactions=n_transactions,
        abort_fraction=0.2,
        participants_min=2,
        participants_max=3,
        inter_arrival=0.5,
        hot_keys=0,
        seed=BENCH_SEED,
    )
    transactions = generate_transactions(
        spec, sorted(mix.site_protocols()), placement=topology.placement
    )
    for txn in transactions:
        mdbs.submit(txn)
    mdbs.run(until=spec.inter_arrival * n_transactions + drain)
    mdbs.finalize()
    reports = mdbs.check()
    decided_at: dict[str, float] = {}
    for event in mdbs.sim.trace.select(category="protocol", name="decide"):
        decided_at.setdefault(event.details["txn"], event.time)
    latencies = [
        decided_at[txn.txn_id] - txn.submit_at
        for txn in transactions
        if txn.txn_id in decided_at
    ]
    return ScenarioResult(
        events=n_transactions,
        trace_events=len(mdbs.sim.trace),
        messages=mdbs.network.sent_count,
        checks_passed=(
            reports.all_hold and len(decided_at) == n_transactions
        ),
        detail={
            **describe(mdbs, transactions, decided_at),
            "transactions": n_transactions,
            "decided": len(decided_at),
            "decision_latency_vt": _latency_percentiles(latencies),
            "service_time": 0.5,
            "kernel_steps": mdbs.sim.steps_executed,
        },
    )


def _coordinator_storm(topology, smoke: bool) -> ScenarioResult:
    """One half of the sharding pair. ``detail`` adds the peak number of
    concurrently open transactions, which confirms the storm is dense
    enough (pipeline depth >= 8) for the central queue to matter."""
    sharded = topology.coordinator_per_site

    def describe(mdbs, transactions, decided_at) -> dict:
        # Peak concurrently-open transactions: sweep submit/decide endpoints.
        decided = [txn for txn in transactions if txn.txn_id in decided_at]
        endpoints = sorted(
            [(txn.submit_at, 1) for txn in decided]
            + [(decided_at[txn.txn_id], -1) for txn in decided]
        )
        depth = peak_depth = 0
        for _, delta in endpoints:
            depth += delta
            peak_depth = max(peak_depth, depth)
        return {
            "counterpart": (
                "commit-storm-single-prany"
                if sharded
                else "commit-storm-sharded-prany"
            ),
            "sharded": sharded,
            "placement": "hash" if sharded else "tm",
            "coordinators": sorted({txn.coordinator for txn in transactions}),
            "peak_open_transactions": peak_depth,
        }

    return _topology_storm(topology, 5_000.0, smoke, describe)


@register(
    "commit-storm-single-prany",
    "dense PrAny storm, every transaction coordinated by the central tm site (pair baseline)",
    tags=("system", "protocol", "sharding"),
)
def _single_coordinator_storm(smoke: bool = False) -> ScenarioResult:
    from repro.mdbs.topology import Topology

    return _coordinator_storm(Topology.single(), smoke)


@register(
    "commit-storm-sharded-prany",
    "the same dense PrAny storm hash-sharded across per-site coordinators",
    tags=("system", "protocol", "sharding"),
)
def _sharded_coordinator_storm(smoke: bool = False) -> ScenarioResult:
    from repro.mdbs.topology import Topology

    return _coordinator_storm(Topology.sharded(), smoke)


def _replication_storm(acceptors: int, smoke: bool) -> ScenarioResult:
    """One half of the replication pair (``acceptors`` = 0: the plain
    twin). ``detail`` adds the acceptor-side force count (every
    promise/accept is forced before its reply leaves)."""
    import dataclasses

    from repro.mdbs.topology import Topology
    from repro.replication import ReplicationConfig

    topology = Topology.single()
    if acceptors:
        # The liveness timers get the same treatment as the protocol
        # timers. The storm runs the acceptors past saturation (two
        # 0.5-unit services per 0.5-unit arrival), so receive queues —
        # including the leader's heartbeats — back up far beyond the
        # 40-unit default; a mid-storm takeover would measure failover
        # churn, not the quorum round trip.
        topology = Topology.replicated(
            dataclasses.replace(
                ReplicationConfig.for_group(acceptors),
                heartbeat_interval=1_000.0,
                failover_timeout=50_000.0,
                failover_stagger=5_000.0,
                retry_interval=10_000.0,
            )
        )

    def describe(mdbs, transactions, decided_at) -> dict:
        return {
            "counterpart": (
                "commit-storm-plain-prany"
                if acceptors
                else "commit-storm-replicated-prany"
            ),
            "replicated": acceptors,
            "acceptor_forces": sum(
                site.log.force_count
                for site_id, site in mdbs.sites.items()
                if site_id.startswith("acc")
            ),
        }

    # Drain window: presumed-abort participants that voted Yes after
    # the No already decided only learn the outcome from their own
    # inquiry, one inquiry_timeout after PREPARE. Replication delays
    # PREPARE by the registration round trip (up to ~1.2k units deep
    # in the storm), so the window must cover storm + that delay +
    # inquiry_timeout or the run gets cut off mid-drain.
    return _topology_storm(topology, 11_000.0, smoke, describe)


@register(
    "commit-storm-plain-prany",
    "dense PrAny storm under the plain single tm coordinator (pair baseline)",
    tags=("system", "protocol", "replication"),
)
def _plain_coordinator_storm(smoke: bool = False) -> ScenarioResult:
    return _replication_storm(0, smoke)


@register(
    "commit-storm-replicated-prany",
    "the same dense PrAny storm with tm replicated over 3 Paxos acceptors",
    tags=("system", "protocol", "replication"),
)
def _replicated_coordinator_storm(smoke: bool = False) -> ScenarioResult:
    return _replication_storm(3, smoke)


@register(
    "crash-recovery",
    "commit storm with scheduled participant/coordinator crashes and §4.2 recovery",
    tags=("system", "recovery"),
)
def _crash_recovery(smoke: bool = False) -> ScenarioResult:
    from repro.net.failures import CrashSchedule
    from repro.workloads.generator import WorkloadSpec, build_mdbs, generate_transactions
    from repro.workloads.mixes import MIXES

    mix = MIXES["PrN+PrA+PrC"]
    n_transactions = 20 if smoke else 200
    mdbs = build_mdbs(mix, coordinator="dynamic", seed=BENCH_SEED)
    spec = WorkloadSpec(
        n_transactions=n_transactions,
        abort_fraction=0.1,
        participants_min=2,
        participants_max=3,
        inter_arrival=8.0,
        seed=BENCH_SEED,
    )
    transactions = generate_transactions(spec, sorted(mix.site_protocols()))
    for txn in transactions:
        mdbs.submit(txn)
    horizon = spec.inter_arrival * n_transactions
    # Deterministic rolling crashes: every participant goes down once,
    # spread across the run; the coordinator crashes mid-run too.
    sites = sorted(mix.site_protocols())
    for index, site_id in enumerate(sites):
        at = horizon * (index + 1) / (len(sites) + 2)
        mdbs.failures.schedule(CrashSchedule(site_id, at=at, down_for=40.0))
    mdbs.failures.schedule(
        CrashSchedule("tm", at=horizon * (len(sites) + 1) / (len(sites) + 2), down_for=40.0)
    )
    mdbs.run(until=horizon + 3_000.0)
    mdbs.finalize()
    reports = mdbs.check()
    return ScenarioResult(
        events=mdbs.sim.steps_executed,
        trace_events=len(mdbs.sim.trace),
        messages=mdbs.network.sent_count,
        checks_passed=reports.atomicity.holds and reports.safe_state.holds,
        detail={
            "transactions": n_transactions,
            "crashes_injected": mdbs.failures.crashes_injected,
        },
    )


@register(
    "explore-sweep",
    "fixed-seed in-process slice of the adversarial explorer (PrAny, seeds 0:24)",
    tags=("composite", "explore"),
)
def _explore_sweep(smoke: bool = False) -> ScenarioResult:
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

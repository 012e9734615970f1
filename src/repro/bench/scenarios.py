"""The bench scenario table: every row ``repro bench`` can run, and the
one way to select from it.

A row is a :class:`~repro.bench.rows.Scenario`: a name, a description,
tags and a ``run``. Most rows are values of a row type —
:class:`~repro.bench.sim.SimStorm` (a generated workload through one
simulated MDBS), :class:`~repro.bench.live.ClosedBatch` (the same
through a live cluster) or :class:`~repro.experiments.table.Experiment`
(a measured experiment, ``experiment-<name>``) — that declare only what
differs from their family's base row; the micro workloads are plain
functions. A row reports into the suite its tags name
(:attr:`Scenario.suite`): the ``live``-tagged rows into
``BENCH_live.json``, the rest into ``BENCH_sim.json``.

Pairs (``_pair``) run the *same* workload with one mechanism off
(baseline, first) and on. Pair members report identical ``events`` (the
shared unit of logical work), so their other counters are directly
comparable, and name each other in ``detail["counterpart"]``.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

from repro.bench import live, sim
from repro.bench.live import (
    OPENLOOP_RATES,
    OPENLOOP_TRANSACTIONS,
    PIPELINE_DEPTH,
    REPLICATION_GROUP,
    SHARDED_PIPELINE_DEPTH,
    ClosedBatch,
)
from repro.bench.rows import Scenario, ScenarioResult
from repro.bench.sim import SimStorm
from repro.errors import ReproError
from repro.experiments import EXPERIMENTS
from repro.experiments.table import Experiment
from repro.mdbs.topology import Topology
from repro.protocols.base import RELAXED_TIMEOUTS, TimeoutConfig
from repro.replication import ReplicationConfig
from repro.workloads.mixes import three_way


def _pair(baseline: Scenario, name: str, description: str, run) -> list[Scenario]:
    """``baseline`` and its twin — the same row (tags, seed) under
    another name, running ``run`` — each recording the other's name as
    its ``detail["counterpart"]``."""

    def naming(scenario: Scenario, counterpart: str) -> Scenario:
        def named(smoke: bool = False) -> ScenarioResult:
            result = scenario.run(smoke)
            return replace(
                result, detail={**result.detail, "counterpart": counterpart}
            )

        return replace(scenario, run=named)

    twin = replace(baseline, name=name, description=description, run=run)
    return [naming(baseline, name), naming(twin, baseline.name)]


def _experiment(row: Experiment) -> Scenario:
    """A measured experiment as a bench row, at the experiment's own
    seed: every cell's measured values by cell label, gated on every
    claim holding. It has one size: smoke runs the whole grid."""

    def run(smoke: bool = False) -> ScenarioResult:
        result = row.run()
        return ScenarioResult(
            events=result.steps, checks_passed=result.holds, detail=result.detail
        )

    return Scenario(
        f"experiment-{row.name}", row.heading, ("experiment",), run, seed=row.seed
    )


# -- simulated storm families ------------------------------------------------

#: One transaction every 5 units: sparse enough that nothing coalesces.
#: Rolling crashes put the storm on the paper's failure model: a
#: failure-free run leaves no participant in doubt after a forget, so it
#: could not tell U2PC's incompatible presumptions from PrAny's.
_SPARSE = SimStorm(
    sim.storm_detail,
    transactions=(40, 400),
    inter_arrival=5.0,
    crashes=True,
    count_steps=True,
)

#: Arrivals 10x denser, so transactions overlap. Timeouts are relaxed so
#: the measurement covers the commit path, not resend storms triggered
#: by queueing delays.
_DENSE = SimStorm(
    sim.dense_detail,
    transactions=(36, 360),
    inter_arrival=0.5,
    timeouts=RELAXED_TIMEOUTS,
)

#: The dense PrAny storm over four sites on
#: :class:`~repro.net.network.ServiceTimeNetwork` — the plain network
#: has no receiver-side queuing, so a single coordinator never contends,
#: quorum round trips cost nothing, and the topology comparisons would
#: be vacuous. The RNG stream is placement-independent (see
#: ``generate_transactions``), so twins run byte-identical workloads.
#: Timeouts sit far above the worst-case receive-queue backlog (the
#: full-size storm queues ~10^3 virtual units at the central
#: coordinator), so every decision is made when the votes are actually
#: processed, not by a timer — otherwise both twins would flat-line at
#: the vote timeout.
_QUEUED = replace(
    _DENSE,
    mix=three_way(4),
    timeouts=TimeoutConfig(
        vote_timeout=5_000.0,
        resend_interval=5_000.0,
        inquiry_timeout=5_000.0,
        inquiry_retry=5_000.0,
        active_timeout=20_000.0,
    ),
)


def _queued(describe, topology: Topology, drain: float) -> SimStorm:
    return replace(
        _QUEUED,
        describe=describe,
        drain=drain,
        build={"topology": topology, "service_time": 0.5},
    )


#: The liveness timers get the same treatment as the protocol timers.
#: The storm runs the acceptors past saturation (two 0.5-unit services
#: per 0.5-unit arrival), so receive queues — including the leader's
#: heartbeats — back up far beyond the 40-unit default; a mid-storm
#: takeover would measure failover churn, not the quorum round trip.
_PATIENT_GROUP = replace(
    ReplicationConfig.for_group(REPLICATION_GROUP),
    heartbeat_interval=1_000.0,
    failover_timeout=50_000.0,
    failover_stagger=5_000.0,
    retry_interval=10_000.0,
)

#: Drain of the replication pair. Replication delays PREPARE by the
#: registration round trip (up to ~1.2k units deep in the storm); the
#: replicated twin forgets its last transaction near unit 1.8k, the
#: plain one near 0.8k, with no protocol timer on the way (a Yes that
#: loses the race with a No is answered on arrival). The horizon is
#: wider than that because the leader's heartbeats tick until it and
#: their kernel steps are pinned counts.
_REPLICATION_DRAIN = 11_000.0

# -- live families -----------------------------------------------------------

_PIPELINED = ClosedBatch(transactions=(8, 64), pipeline=PIPELINE_DEPTH)
_MULTIPROC = replace(_PIPELINED, multiprocess=True)
_FOUR_SITES = replace(
    _MULTIPROC,
    n_sites=4,
    pipeline=SHARDED_PIPELINE_DEPTH,
    describe=live.coordinator_placement,
)


# -- the table ---------------------------------------------------------------

_ROWS: tuple[Scenario, ...] = (
    Scenario(
        "kernel-dispatch",
        "raw event-loop dispatch: chained timers, cancellations, no protocol work",
        ("micro", "kernel"),
        sim.kernel_dispatch,
    ),
    Scenario(
        "trace-record",
        "trace-recorder storm: typical message/log payloads, half behind a category filter",
        ("micro", "tracing"),
        sim.trace_record,
    ),
    Scenario(
        "commit-storm-prany",
        "400 mixed-presumption transactions under the dynamic PrAny "
        "coordinator, every site crashing once",
        ("system", "protocol"),
        _SPARSE.run,
    ),
    Scenario(
        "commit-storm-u2pc",
        "the same storm under the naive-union U2PC(PrC) coordinator",
        ("system", "protocol"),
        replace(_SPARSE, coordinator="U2PC(PrC)", atomic=False).run,
    ),
    Scenario(
        "commit-storm-c2pc",
        "the same storm under the conservative C2PC(PrN) coordinator",
        ("system", "protocol"),
        replace(_SPARSE, coordinator="C2PC(PrN)", atomic=False).run,
    ),
    Scenario(
        "commit-storm-dense-prany",
        "dense PrAny storm over PrN+PrA+PrC",
        ("system", "protocol"),
        _DENSE.run,
    ),
    Scenario(
        "commit-storm-dense-prc",
        "dense PrC storm over its own all-PrC mix",
        ("system", "protocol"),
        replace(_DENSE, coordinator="PrC", mix="all-PrC").run,
    ),
    Scenario(
        "commit-storm-dense-c2pc",
        "dense C2PC(PrN) storm over PrN+PrA+PrC",
        ("system", "protocol"),
        replace(_DENSE, coordinator="C2PC(PrN)", atomic=False).run,
    ),
    # Sharding: every transaction routed through the central tm site vs
    # hash-sharded across every site (repro.mdbs.placement).
    *_pair(
        Scenario(
            "commit-storm-single-prany",
            "dense PrAny storm, every transaction coordinated by the central tm site (pair baseline)",
            ("system", "protocol", "sharding"),
            _queued(sim.sharding_detail, Topology.single(), 5_000.0).run,
        ),
        "commit-storm-sharded-prany",
        "the same dense PrAny storm hash-sharded across per-site coordinators",
        _queued(sim.sharding_detail, Topology.sharded(), 5_000.0).run,
    ),
    # Replication: the tm coordinator alone vs replicated over a
    # 3-acceptor Paxos group (repro.replication). Every transaction
    # pays a quorum registration before its PREPAREs and a quorum
    # acceptance before its decision is stable — extra messages, extra
    # forces (at the acceptors) and higher decision latency — in
    # exchange for the nonblocking guarantee the explorer's leader-crash
    # scenarios demonstrate.
    *_pair(
        Scenario(
            "commit-storm-plain-prany",
            "dense PrAny storm under the plain single tm coordinator (pair baseline)",
            ("system", "protocol", "replication"),
            _queued(
                sim.replication_detail, Topology.single(), _REPLICATION_DRAIN
            ).run,
        ),
        "commit-storm-replicated-prany",
        "the same dense PrAny storm with tm replicated over 3 Paxos acceptors",
        _queued(
            sim.replication_detail,
            Topology.replicated(_PATIENT_GROUP),
            _REPLICATION_DRAIN,
        ).run,
    ),
    Scenario(
        "crash-recovery",
        "commit storm with scheduled participant/coordinator crashes and §4.2 recovery",
        ("system", "recovery"),
        SimStorm(
            sim.crash_detail,
            transactions=(20, 200),
            inter_arrival=8.0,
            abort_fraction=0.1,
            drain=3_000.0,
            crashes=True,
            count_steps=True,
        ).run,
    ),
    Scenario(
        "explore-sweep",
        "fixed-seed in-process slice of the adversarial explorer (PrAny, seeds 0:24)",
        ("composite", "explore"),
        sim.explore_sweep,
    ),
    *(_experiment(row) for row in EXPERIMENTS),
    # The baseline shape — paced arrivals (one transaction per virtual
    # unit), no pipelining — kept unchanged release over release.
    Scenario(
        "live-prany-commit",
        "PrAny commit workload over real TCP sockets and fsync'd "
        "logs (wall clock; transactions/sec)",
        ("live", "system"),
        ClosedBatch(
            transactions=(8, 24),
            measure=lambda c: {"timers_fired": c.sim.steps_executed},
        ).run,
    ),
    # The same workload with transactions pipelined.
    Scenario(
        "live-prany-throughput",
        "PrAny commit workload over real TCP sockets, fsync on: "
        f"{PIPELINE_DEPTH} pipelined transactions in flight, "
        "batched socket writes "
        "(wall clock; transactions/sec + decision-latency percentiles)",
        ("live", "system", "throughput"),
        replace(_PIPELINED, transactions=(16, 128)).run,
    ),
    # Process isolation's price tag: control-plane round trips per
    # transaction plus cross-process scheduling. Tagged "replication"
    # because it is also the plain-coordinator member of the
    # replication pair, the way the sharding pair shares its tag.
    Scenario(
        "live-prany-multiproc",
        "PrAny commit workload with one supervised OS process per "
        "site: fsync on, "
        f"{PIPELINE_DEPTH} pipelined transactions in flight "
        "(wall clock; transactions/sec + decision-latency percentiles)",
        ("live", "system", "multiprocess", "replication"),
        _MULTIPROC.run,
    ),
    # Every transaction pays a quorum registration round before its
    # PREPAREs and a quorum acceptance round before its decision is
    # stable — three more fsync'ing processes on the commit path — in
    # exchange for the nonblocking guarantee (a leader SIGKILL
    # mid-prepare no longer wedges in-flight transactions; see
    # ``tests/rt/test_replicated_live.py``).
    Scenario(
        "live-prany-replicated",
        "the live-prany-multiproc workload with tm replicated over "
        f"{REPLICATION_GROUP} Paxos acceptor processes: every "
        "decision is stable only at a quorum of acceptor WALs "
        "(the nonblocking price tag; counterpart "
        "live-prany-multiproc)",
        ("live", "system", "multiprocess", "replication"),
        replace(
            _MULTIPROC,
            topology=Topology.replicated(REPLICATION_GROUP),
            describe=lambda c: {
                "replicated": REPLICATION_GROUP,
                "counterpart": "live-prany-multiproc",
            },
        ).run,
    ),
    # The sharding pair: identical workload (same spec, same seed,
    # byte-identical RNG stream) over 4 site processes. The single
    # coordinator serializes every decision fsync and control round
    # trip through one process — the contention the latency
    # percentiles expose at depth SHARDED_PIPELINE_DEPTH.
    *_pair(
        Scenario(
            "live-prany-single",
            "PrAny commit workload, 4 site processes + one tm "
            "coordinator process: every decision funnels through tm "
            f"({SHARDED_PIPELINE_DEPTH} pipelined in flight; the "
            "single-coordinator twin of live-prany-sharded)",
            ("live", "system", "multiprocess", "sharding"),
            _FOUR_SITES.run,
        ),
        "live-prany-sharded",
        "PrAny commit workload, coordinator role sharded across all "
        "4 site processes by hash(txn_id) placement — identical "
        "transaction stream to live-prany-single "
        f"({SHARDED_PIPELINE_DEPTH} pipelined in flight; "
        "decision-latency percentiles quantify the fan-out win)",
        replace(_FOUR_SITES, topology=Topology.sharded()).run,
    ),
    # The open-loop codec pair (PR-10 ledger): identical transaction
    # bodies and arrival clocks, curves comparable point by point.
    *_pair(
        Scenario(
            "live-prany-openloop-json",
            "open-loop latency-vs-offered-load sweep "
            f"({len(OPENLOOP_RATES)} Poisson rates x "
            f"{OPENLOOP_TRANSACTIONS} txns, hot keys, aborts, read-only "
            "mix) over the json wire/WAL codec; detail records the "
            "p50/p95/p99 curve and the saturation knee",
            ("live", "system", "openloop", "codec"),
            partial(live.run_openloop, "json"),
        ),
        "live-prany-openloop-binary",
        "the live-prany-openloop-json sweep over the binary codec — "
        "identical transaction bodies and arrival clocks, "
        "struct-packed frames and WAL records (the fast-path twin; "
        "curves comparable point by point)",
        partial(live.run_openloop, "binary"),
    ),
    # The encode/decode microbenchmark pair; socketless, so its work
    # counters are fixed like a simulated row's.
    *_pair(
        Scenario(
            "live-codec-json",
            "wire-codec microbenchmark: encode+decode round trips of a "
            "representative protocol-message mix through the json codec "
            "(no sockets; events/sec = round trips/sec)",
            ("live", "micro", "codec"),
            partial(live.run_codec, "json"),
        ),
        "live-codec-binary",
        "wire-codec microbenchmark over the binary codec: "
        "struct-packed header, handshake-interned site/kind ids, "
        "hand-rolled value packing (counterpart live-codec-json)",
        partial(live.run_codec, "binary"),
    ),
)

#: Every row by name, in report order.
SCENARIOS: dict[str, Scenario] = {row.name: row for row in _ROWS}
if len(SCENARIOS) != len(_ROWS):
    raise ReproError("duplicate bench scenario name in the table")


def get_scenarios(selector: str, suite: str = "sim") -> list[Scenario]:
    """Resolve a ``--scenario`` argument to rows of ``suite``, in table
    order.

    ``"all"`` selects the whole suite; otherwise a comma-separated list
    of names or tags.
    """
    rows = [row for row in _ROWS if row.suite == suite]
    if selector == "all":
        return rows
    chosen: list[Scenario] = []
    for token in selector.split(","):
        token = token.strip()
        if not token:
            continue
        matched = [row for row in rows if token == row.name or token in row.tags]
        if not matched:
            raise ReproError(
                f"unknown bench scenario {token!r}; expected 'all', a name "
                f"in {sorted(row.name for row in rows)} or a tag"
            )
        chosen.extend(row for row in matched if row not in chosen)
    if not chosen:
        raise ReproError(f"empty scenario selection {selector!r}")
    return chosen

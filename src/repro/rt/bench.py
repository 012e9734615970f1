"""Live wall-clock benchmark scenarios.

The sim-bench registry (``repro.bench.scenarios``) measures how fast
the simulator burns virtual work; this module measures the same commit
workload end to end over real sockets and fsync'd logs — seconds of
wall clock per committed transaction, not events per second.

The scenarios:

* ``live-prany-commit`` — the PR-4 baseline shape: paced arrivals
  (one transaction per virtual unit), no durability batching, no
  pipelining. Kept unchanged so ``BENCH_live.json`` regressions stay
  comparable release over release.
* ``live-prany-throughput`` — the optimized hot path: open-loop
  pipelined arrival (:data:`PIPELINE_DEPTH` transactions in flight),
  group-commit fsync coalescing on every WAL, socket write batching
  (always on), fsync **on**. Its ``detail`` records decision-latency
  percentiles (p50/p95/p99 ms) and the fsync amortization counters.
* ``live-prany-multiproc`` — the throughput workload with every site
  a supervised OS process; the delta against ``live-prany-throughput``
  is the price of real process isolation.
* ``live-prany-replicated`` — the multiproc workload with the ``tm``
  coordinator replicated over 3 Paxos acceptor processes
  (``repro.replication``); the delta against ``live-prany-multiproc``
  prices the nonblocking guarantee — two quorum rounds and three more
  fsync'ing WALs per transaction.
* ``live-prany-single`` / ``live-prany-sharded`` — the
  sharded-coordinator pair: the identical 64-transaction workload over
  4 site processes at :data:`SHARDED_PIPELINE_DEPTH` in flight,
  coordinated either by one extra ``tm`` process or by all four sites
  under ``hash(txn_id)`` placement. The pair's decision-latency
  percentiles quantify what coordinator fan-out buys.

The scenarios reuse the sim-bench runner plumbing
(:class:`~repro.bench.runner.BenchConfig` /
:func:`~repro.bench.runner.measure_scenario`) through two seams added
for it: the config's ``clock`` source and the scenario's
``deterministic`` flag (live trace/message counts vary per rep, so the
runner's cross-rep identity assertion is skipped). They are
deliberately NOT in the global ``SCENARIOS`` registry: ``repro bench``
stays the deterministic simulator baseline; ``repro live --bench`` runs
these and writes ``BENCH_live.json``.

``repro live --bench --check`` compares a fresh run against the
committed ``BENCH_live.json`` via :func:`compare_live_reports`.
Transactions/sec is *not* size-invariant (cluster startup and the
abort-path inquiry tail are fixed costs a small workload cannot
amortize — the smoke variant measures ~0.2x the full-size number on
the same machine), so scenarios whose workload sizes differ are noted
and skipped, mirroring the sim comparison; the CI gate therefore runs
the full-size workload (a few wall seconds) under a deliberately
generous threshold (:data:`LIVE_CHECK_THRESHOLD`; wall-clock numbers
on shared CI hosts are noisy).
"""

from __future__ import annotations

import asyncio
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Optional

from repro.bench.report import Regression
from repro.bench.runner import _quantile
from repro.bench.scenarios import BENCH_SEED, Scenario, ScenarioResult
from repro.mdbs.topology import Topology
from repro.storage.group_commit import GroupCommitConfig
from repro.workloads.generator import WorkloadSpec
from repro.workloads.mixes import three_way

#: Offered rates (transactions per wall second) of the open-loop sweep
#: pair; ascending so the knee search reads left to right.
OPENLOOP_RATES = (25.0, 50.0, 100.0, 200.0)

#: The smoke sweep keeps the endpoints only (fast CI cell, still a
#: curve with a below-knee and an at/over-knee point).
OPENLOOP_SMOKE_RATES = (25.0, 200.0)

#: Transactions per offered rate in the full open-loop sweep.
OPENLOOP_TRANSACTIONS = 32

#: Concurrency cap of the throughput scenario's open-loop driver.
PIPELINE_DEPTH = 8

#: Concurrency cap of the sharded-coordinator pair. Deeper than
#: :data:`PIPELINE_DEPTH` on purpose: the single-coordinator contention
#: the pair quantifies (every decision force and control round trip
#: funneling through the one tm process) only dominates scheduling
#: noise past depth ~8, which is exactly the regime the ROADMAP item
#: calls out.
SHARDED_PIPELINE_DEPTH = 16

#: Acceptor-group size of the replicated-coordinator scenario: the
#: smallest group that survives one failure (majority 2 of 3).
REPLICATION_GROUP = 3

#: Group-commit window of the throughput scenario. The delay bound is
#: deliberately tight (0.1 units = 1 ms at the default time scale):
#: with 8 transactions in flight, concurrent force requests land within
#: a window anyway (~4x fsync amortization), while a wide window would
#: sit on every force's critical path — at the default 0.5-unit delay
#: the added latency outweighs the coalescing gain on fast-fsync disks.
THROUGHPUT_GROUP_COMMIT = GroupCommitConfig(max_delay=0.1, max_batch=8)

#: ``--check`` fails when the live median txns/sec drops below this
#: fraction of the committed baseline. Generous on purpose: the gate
#: compares a single-rep run on a shared CI host against the
#: reference-machine median.
LIVE_CHECK_THRESHOLD = 0.5

#: Pinned before/after measurements for the live-runtime hot paths
#: optimized in PR 5, all in median transactions/sec of the
#: ``live-prany-throughput`` workload (128 transactions, fsync on,
#: reference machine). Each row toggles exactly one optimization off
#: while keeping the other two on, so ``before`` is the ablated run and
#: ``after`` the full configuration. Historical records — regenerating
#: the report carries them forward unchanged.
LIVE_OPTIMIZATION_HISTORY: list[dict[str, Any]] = [
    {
        "path": "src/repro/storage/file_log.py",
        "change": (
            "group-commit fsync coalescing: GroupCommitFileLog layers the "
            "PR-3 window engine over the JSONL WAL — concurrent "
            "force_append_async requests within one 0.1-unit window are "
            "persisted by a single blob write + one os.fsync "
            "(all-or-nothing under crash), cutting device forces ~4x "
            "(661 force requests -> 167 fsyncs in this workload). before "
            "= the same pipelined run with a plain FileStableLog (one "
            "fsync per force request); the wall-clock gain is modest on "
            "the reference machine's ~0.2 ms fsyncs and grows with fsync "
            "cost"
        ),
        "scenario": "live-prany-throughput",
        "metric": "events_per_second.median",
        "before": 77.5,
        "after": 81.3,
        "speedup": 1.05,
    },
    {
        "path": "src/repro/rt/transport.py",
        "change": (
            "socket write batching: each per-peer writer wakeup drains the "
            "whole outbound queue — every pending frame written back to "
            "back, flushed by a single drain() — and frames are encoded "
            "once, reused by the reconnect retry. before = one "
            "get/write/drain round trip per message; within noise on "
            "loopback RTTs, the syscall reduction is the point on real "
            "links"
        ),
        "scenario": "live-prany-throughput",
        "metric": "events_per_second.median",
        "before": 80.0,
        "after": 81.3,
        "speedup": 1.02,
    },
    {
        "path": "src/repro/rt/cluster.py",
        "change": (
            "pipelined in-flight transactions + event-driven completion: "
            "run_pipelined keeps PIPELINE_DEPTH transactions outstanding "
            "(slot freed by each decision's asyncio.Event) and run()/"
            "finalize() wake on trace events instead of sleep-polling. "
            "before = same batched run at pipeline depth 1 (closed loop); "
            "vs the PR-4 paced, polling baseline (live-prany-commit at "
            "16.9 txn/s) the full configuration is ~4.8x"
        ),
        "scenario": "live-prany-throughput",
        "metric": "events_per_second.median",
        "before": 59.2,
        "after": 81.3,
        "speedup": 1.37,
    },
    {
        "path": "src/repro/rt/codec.py",
        "change": (
            "binary wire/WAL codec behind the codec seam: struct-packed "
            "length-prefixed frames with handshake-interned routing "
            "strings and msgpack-style value packing (src/repro/packing.py "
            "with bounded string memoization) replace UTF-8 JSON bodies "
            "when --codec binary is selected. before/after are the "
            "live-codec-json and live-codec-binary members of the "
            "microbenchmark pair — the same protocol-message mix encoded "
            "and decoded through each codec; binary frames are also "
            "3.3x smaller (100.8 -> 30.8 bytes/message), which the "
            "socketless microbenchmark does not credit"
        ),
        "scenario": "live-codec-binary",
        "baseline_scenario": "live-codec-json",
        "metric": "events_per_second.median",
        "before": 31401.5,
        "after": 41930.2,
        "speedup": 1.34,
    },
]


@dataclass(frozen=True)
class ClosedBatch:
    """One closed-batch scenario: a generated PrAny workload (abort
    fraction 0.25, 2-3 participants, seed :data:`BENCH_SEED`) run to
    quiescence over one cluster shape.

    Attributes:
        transactions: workload size, ``(smoke, full)``.
        multiprocess: one supervised OS process per site instead of
            in-process hosts.
        n_sites: participant sites in the three-way mix.
        pipeline: concurrency cap of the open-loop driver; ``None``
            paces arrivals one per virtual unit.
        group_commit: WAL fsync coalescing window, if any.
        topology: where the coordinators live.
        describe: ``cluster -> dict`` of what this row adds to the
            common ``detail`` keys.
    """

    transactions: tuple[int, int]
    multiprocess: bool = False
    n_sites: int = 3
    pipeline: Optional[int] = None
    group_commit: Optional[GroupCommitConfig] = None
    topology: Topology = Topology()
    describe: Callable[[Any], dict[str, Any]] = lambda cluster: {}

    def run(self, smoke: bool = False) -> ScenarioResult:
        """Run the row and fold the finished cluster into a scenario
        result.

        ``messages`` is the cluster-wide sent total of the sites' transport
        counters (each child of a process cluster ships its own in its
        ``summary`` reply), so rows are comparable on message volume across
        runtimes.
        """
        from repro.rt.cluster import LiveCluster, run_workload
        from repro.rt.proc import ProcessCluster

        n_transactions = self.transactions[0 if smoke else 1]
        spec = WorkloadSpec(
            n_transactions=n_transactions,
            abort_fraction=0.25,
            participants_min=2,
            participants_max=3,  # < 4 sites: a sharded owner always exists
            inter_arrival=1.0,  # ignored by the pipelined (open-loop) driver
            hot_keys=0,
            seed=BENCH_SEED,
        )
        with tempfile.TemporaryDirectory() as tmp:
            cluster = asyncio.run(
                run_workload(
                    ProcessCluster if self.multiprocess else LiveCluster,
                    three_way(self.n_sites),
                    "dynamic",
                    spec,
                    tmp,
                    pipeline=self.pipeline,
                    group_commit=self.group_commit,
                    topology=self.topology,
                )
            )
        outcomes = cluster.outcomes()
        reports = cluster.check()
        counts = cluster.message_counts()
        detail: dict[str, Any] = {
            "transactions": n_transactions,
            "decided": len(outcomes),
            "committed": sum(1 for d in outcomes.values() if d == "commit"),
        }
        if self.multiprocess:
            detail["processes"] = len(cluster.sites)
        if self.pipeline is not None:
            latencies = sorted(cluster.decision_latencies().values())
            detail["pipeline_depth"] = self.pipeline
            detail["latency_ms"] = {
                "p50": _latency_ms(latencies, 0.50),
                "p95": _latency_ms(latencies, 0.95),
                "p99": _latency_ms(latencies, 0.99),
            }
        detail.update(
            virtual_units=round(cluster.sim.now, 1),
            messages_dropped=counts["dropped"],
            codec=cluster.codec,
            **self.describe(cluster),
        )
        return ScenarioResult(
            events=n_transactions,
            trace_events=len(cluster.sim.trace),
            messages=counts["sent"],
            checks_passed=reports.all_hold and len(outcomes) == n_transactions,
            detail=detail,
        )


def _fsync_counters(cluster) -> dict[str, Any]:
    """Force requests vs device forces over an in-process cluster's
    WALs: the group-commit amortization."""
    logs = [site.log for site in cluster.sites.values()]
    return {
        "fsync_forces": sum(log.force_count for log in logs),
        "force_requests": sum(getattr(log, "force_requests", 0) for log in logs),
    }


def _coordinator_pair(counterpart: str) -> Callable[[Any], dict[str, Any]]:
    """``describe`` of the sharding pair's members."""

    def describe(cluster) -> dict[str, Any]:
        sharded = cluster.topology.coordinator_per_site
        return {
            "sharded": sharded,
            "placement": "hash" if sharded else "tm",
            "coordinators": sorted(
                {txn.coordinator for txn in cluster.submitted}
            ),
            "counterpart": counterpart,
        }

    return describe


def _run_openloop_scenario(codec: str, smoke: bool = False) -> ScenarioResult:
    """One half of the open-loop codec pair: the latency-vs-offered-load
    sweep (:mod:`repro.workloads.openloop`) over an in-process live
    cluster running ``codec``. Identical transaction bodies and arrival
    clocks on both halves — the only degree of freedom is the encoding
    on the wire and in the WALs, so the two curves (and the headline
    transactions/sec over the whole sweep) quantify the binary fast
    path under load."""
    from repro.rt.cluster import LIVE_TIMEOUTS, LiveCluster
    from repro.workloads.openloop import OpenLoopSpec, run_rate_sweep

    rates = OPENLOOP_SMOKE_RATES if smoke else OPENLOOP_RATES
    spec = OpenLoopSpec(
        rate=rates[0],
        n_transactions=8 if smoke else OPENLOOP_TRANSACTIONS,
        clients=4,
        arrival="poisson",
        hot_keys=4,
        hot_fraction=0.25,
        abort_fraction=0.25,
        read_only_fraction=0.25,
        seed=BENCH_SEED,
    )
    mix = three_way(3)
    sites = sorted(mix.site_protocols())

    async def go(tmp: str) -> dict[str, Any]:
        async def factory(rate: float):
            cluster = LiveCluster(
                mix,
                Path(tmp) / f"rate{rate:g}",
                coordinator="dynamic",
                seed=BENCH_SEED,
                timeouts=LIVE_TIMEOUTS,
                group_commit=THROUGHPUT_GROUP_COMMIT,
                codec=codec,
            )
            await cluster.start()
            return cluster

        return await run_rate_sweep(factory, spec, rates, sites)

    with tempfile.TemporaryDirectory() as tmp:
        sweep = asyncio.run(go(tmp))
    rows = sweep["rows"]
    total = sum(row["transactions"] for row in rows)
    decided = sum(row["decided"] for row in rows)
    return ScenarioResult(
        events=total,
        trace_events=0,
        messages=0,
        checks_passed=decided == total and all(r["checks_ok"] for r in rows),
        detail={
            "codec": codec,
            "rates": list(rates),
            "transactions_per_rate": spec.n_transactions,
            "clients": spec.clients,
            "arrival": spec.arrival,
            "rows": rows,
            "knee": sweep["knee"],
            "counterpart": (
                "live-prany-openloop-binary"
                if codec == "json"
                else "live-prany-openloop-json"
            ),
        },
    )


def _run_codec_scenario(codec: str, smoke: bool = False) -> ScenarioResult:
    """One half of the encode/decode microbenchmark pair: a
    representative protocol-message mix pushed through one wire codec —
    encode to the framed bytes, decode back, assert the round trip —
    with no sockets or engines in the loop. The headline events/sec is
    message round trips per second of pure codec work; ``detail``
    records the framed bytes per message, which is the wire-volume half
    of the win."""
    from repro.net.message import Message
    from repro.rt.codec import HEADER, wire_codec

    n_messages = 2_000 if smoke else 20_000
    sites = ["site0_prn", "site1_pra", "site2_prc", "tm"]
    shapes = [
        Message("PREPARE", "tm", "site0_prn", "t0042"),
        Message("VOTE_YES", "site1_pra", "tm", "t0042"),
        Message(
            "COMMIT", "tm", "site2_prc", "t0042", {"participants": sites[:3]}
        ),
        Message("ACK", "site2_prc", "tm", "t0042", {"lsn": 17}),
        Message("INQUIRY", "site0_prn", "tm", "t0041", {"reason": "timeout"}),
    ]
    encoder = wire_codec(codec, intern=sites)
    decode = encoder.body_decoder()
    if encoder.preamble:
        # The handshake rides ahead of the first frame on a real
        # connection; feed it through the decoder the same way.
        decode(encoder.preamble[HEADER.size :])
    frames = bytes_total = 0
    ok = True
    start = time.perf_counter()
    for index in range(n_messages):
        message = shapes[index % len(shapes)]
        frame = encoder.encode_frame(message)
        bytes_total += len(frame)
        decoded = decode(frame[HEADER.size :])
        ok = ok and decoded == message
        frames += 1
    elapsed = time.perf_counter() - start
    return ScenarioResult(
        events=n_messages,
        trace_events=0,
        messages=n_messages,
        checks_passed=ok,
        detail={
            "codec": codec,
            "message_shapes": len(shapes),
            "bytes_per_message": round(bytes_total / frames, 1),
            "round_trips_per_second": round(frames / elapsed)
            if elapsed > 0
            else 0,
            "counterpart": (
                "live-codec-binary" if codec == "json" else "live-codec-json"
            ),
        },
    )


def _latency_ms(ordered_seconds: list[float], q: float) -> float:
    """Quantile of sorted decision latencies, in milliseconds."""
    if not ordered_seconds:
        return 0.0
    return round(_quantile(ordered_seconds, q) * 1000.0, 3)


def _live(
    name: str,
    description: str,
    tags: tuple[str, ...],
    run: Callable[..., ScenarioResult],
    deterministic: bool = False,
) -> Scenario:
    """A live scenario row (events = transactions, so the headline
    number is transactions/second of wall clock)."""
    return Scenario(
        name=name,
        description=description,
        seed=BENCH_SEED,
        tags=("live",) + tags,
        run=run,
        deterministic=deterministic,
    )


#: Everything ``repro live --bench`` measures, in report order.
LIVE_SCENARIOS: tuple[Scenario, ...] = (
    # The PR-4 baseline shape, kept unchanged release over release.
    _live(
        "live-prany-commit",
        "PrAny commit workload over real TCP sockets and fsync'd "
        "logs (wall clock; transactions/sec)",
        ("system",),
        ClosedBatch(
            transactions=(8, 24),
            describe=lambda c: {"timers_fired": c.sim.steps_executed},
        ).run,
    ),
    # The optimized path measured for the PR-5 ledger.
    _live(
        "live-prany-throughput",
        "PrAny commit workload over real TCP sockets, fsync on: "
        f"{PIPELINE_DEPTH} pipelined transactions in flight, "
        "group-commit fsync coalescing, batched socket writes "
        "(wall clock; transactions/sec + decision-latency percentiles)",
        ("system", "throughput"),
        ClosedBatch(
            transactions=(16, 128),
            pipeline=PIPELINE_DEPTH,
            group_commit=THROUGHPUT_GROUP_COMMIT,
            describe=_fsync_counters,
        ).run,
    ),
    # Process isolation's price tag: control-plane round trips per
    # transaction plus cross-process scheduling. Tagged "replication"
    # because it is also the plain-coordinator member of the
    # replication pair, the way the sharding pair shares its tag.
    _live(
        "live-prany-multiproc",
        "PrAny commit workload with one supervised OS process per "
        "site: fsync on, group-commit WALs, "
        f"{PIPELINE_DEPTH} pipelined transactions in flight "
        "(wall clock; transactions/sec + decision-latency percentiles)",
        ("system", "multiprocess", "replication"),
        ClosedBatch(
            transactions=(8, 64),
            multiprocess=True,
            pipeline=PIPELINE_DEPTH,
            group_commit=THROUGHPUT_GROUP_COMMIT,
        ).run,
    ),
    # Every transaction pays a quorum registration round before its
    # PREPAREs and a quorum acceptance round before its decision is
    # stable — three more fsync'ing processes on the commit path — in
    # exchange for the nonblocking guarantee (a leader SIGKILL
    # mid-prepare no longer wedges in-flight transactions; see
    # ``tests/rt/test_replicated_live.py``).
    _live(
        "live-prany-replicated",
        "the live-prany-multiproc workload with tm replicated over "
        f"{REPLICATION_GROUP} Paxos acceptor processes: every "
        "decision is stable only at a quorum of acceptor WALs "
        "(the nonblocking price tag; counterpart "
        "live-prany-multiproc)",
        ("system", "multiprocess", "replication"),
        ClosedBatch(
            transactions=(8, 64),
            multiprocess=True,
            pipeline=PIPELINE_DEPTH,
            group_commit=THROUGHPUT_GROUP_COMMIT,
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
    _live(
        "live-prany-single",
        "PrAny commit workload, 4 site processes + one tm "
        "coordinator process: every decision funnels through tm "
        f"({SHARDED_PIPELINE_DEPTH} pipelined in flight; the "
        "single-coordinator twin of live-prany-sharded)",
        ("system", "multiprocess", "sharding"),
        ClosedBatch(
            transactions=(8, 64),
            multiprocess=True,
            n_sites=4,
            pipeline=SHARDED_PIPELINE_DEPTH,
            group_commit=THROUGHPUT_GROUP_COMMIT,
            describe=_coordinator_pair("live-prany-sharded"),
        ).run,
    ),
    _live(
        "live-prany-sharded",
        "PrAny commit workload, coordinator role sharded across all "
        "4 site processes by hash(txn_id) placement — identical "
        "transaction stream to live-prany-single "
        f"({SHARDED_PIPELINE_DEPTH} pipelined in flight; "
        "decision-latency percentiles quantify the fan-out win)",
        ("system", "multiprocess", "sharding"),
        ClosedBatch(
            transactions=(8, 64),
            multiprocess=True,
            n_sites=4,
            pipeline=SHARDED_PIPELINE_DEPTH,
            group_commit=THROUGHPUT_GROUP_COMMIT,
            topology=Topology.sharded(),
            describe=_coordinator_pair("live-prany-single"),
        ).run,
    ),
    # The open-loop codec pair (PR-10 ledger): identical transaction
    # bodies and arrival clocks, curves comparable point by point.
    _live(
        "live-prany-openloop-json",
        "open-loop latency-vs-offered-load sweep "
        f"({len(OPENLOOP_RATES)} Poisson rates x "
        f"{OPENLOOP_TRANSACTIONS} txns, hot keys, aborts, read-only "
        "mix) over the json wire/WAL codec; detail records the "
        "p50/p95/p99 curve and the saturation knee",
        ("system", "openloop", "codec"),
        partial(_run_openloop_scenario, "json"),
    ),
    _live(
        "live-prany-openloop-binary",
        "the live-prany-openloop-json sweep over the binary codec — "
        "identical transaction bodies and arrival clocks, "
        "struct-packed frames and WAL records (the fast-path twin; "
        "curves comparable point by point)",
        ("system", "openloop", "codec"),
        partial(_run_openloop_scenario, "binary"),
    ),
    # The encode/decode microbenchmark pair.
    _live(
        "live-codec-json",
        "wire-codec microbenchmark: encode+decode round trips of a "
        "representative protocol-message mix through the json codec "
        "(no sockets; events/sec = round trips/sec)",
        ("micro", "codec"),
        partial(_run_codec_scenario, "json"),
        deterministic=True,
    ),
    _live(
        "live-codec-binary",
        "wire-codec microbenchmark over the binary codec: "
        "struct-packed header, handshake-interned site/kind ids, "
        "hand-rolled value packing (counterpart live-codec-json)",
        ("micro", "codec"),
        partial(_run_codec_scenario, "binary"),
        deterministic=True,
    ),
)


def live_scenarios() -> list[Scenario]:
    """Everything ``repro live --bench`` measures, in report order."""
    return list(LIVE_SCENARIOS)


def compare_live_reports(
    current: dict[str, Any],
    baseline: dict[str, Any],
    threshold: float = LIVE_CHECK_THRESHOLD,
) -> tuple[list[Regression], list[str]]:
    """Regressions and notes comparing two live bench reports.

    Like the sim :func:`~repro.bench.report.compare_reports`, scenarios
    whose workload sizes differ are skipped with a note rather than
    compared: live transactions/sec is not size-invariant (cluster
    startup and the abort-path inquiry tail are fixed costs), so a
    smoke run against a full-size baseline would always read as a
    regression. The threshold is generous to absorb host noise.
    """
    regressions: list[Regression] = []
    notes: list[str] = []
    for name, base_entry in baseline["scenarios"].items():
        cur_entry = current["scenarios"].get(name)
        if cur_entry is None:
            notes.append(f"{name}: in baseline but not measured now (skipped)")
            continue
        if cur_entry["events"] != base_entry["events"]:
            notes.append(
                f"{name}: workload sizes differ "
                f"({base_entry['events']} baseline vs "
                f"{cur_entry['events']} current transactions) — skipped"
            )
            continue
        base_eps = float(base_entry["events_per_second"]["median"])
        cur_eps = float(cur_entry["events_per_second"]["median"])
        if base_eps > 0 and cur_eps < base_eps * (1.0 - threshold):
            regressions.append(
                Regression(
                    scenario=name, baseline_eps=base_eps, current_eps=cur_eps
                )
            )
    return regressions, notes

"""Live bench rows: the closed-batch row type, the open-loop sweep and
the codec microbenchmark.

The simulator rows (:mod:`repro.bench.sim`) run a commit workload in
virtual time; these run the same workload end to end over real sockets
and fsync'd logs. What such a run *counts* from its seed (transactions,
outcomes, topology, frame sizes) goes into ``detail`` and the golden
``BENCH_live.json``; what it *times* (latency percentiles, rates, a
real cluster's trace and message totals, which its scheduling decides)
goes into ``timed`` and is only printed.

* :class:`ClosedBatch` — a generated PrAny workload run to quiescence
  over one cluster shape: in-process or one OS process per site, paced
  or pipelined, plain / sharded / replicated coordinators. Six table
  rows are values of it.
* :func:`run_openloop` — the latency-vs-offered-load sweep
  (:mod:`repro.workloads.openloop`) over one wire/WAL codec.
* :func:`run_codec` — encode/decode round trips of a protocol-message
  mix through one codec, no sockets.

Nothing here imports :mod:`repro.rt` at module level: the table
(:mod:`repro.bench.scenarios`) stays importable without the asyncio
transport or the process supervisor, which load when a row runs.
"""

from __future__ import annotations

import asyncio
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from repro.bench.rows import BENCH_SEED, ScenarioResult, latency_percentiles
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
        measure: ``cluster -> dict`` of what it adds to ``timed``.
    """

    transactions: tuple[int, int]
    multiprocess: bool = False
    n_sites: int = 3
    pipeline: Optional[int] = None
    group_commit: Optional[GroupCommitConfig] = None
    topology: Topology = Topology()
    describe: Callable[[Any], dict[str, Any]] = lambda cluster: {}
    measure: Callable[[Any], dict[str, Any]] = lambda cluster: {}

    def run(self, smoke: bool = False) -> ScenarioResult:
        """Run the row and fold the finished cluster into a scenario
        result.

        The timed ``messages`` is the cluster-wide sent total of the
        sites' transport counters (each child of a process cluster ships
        its own in its ``summary`` reply), so rows are comparable on
        message volume across runtimes.
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
            "codec": cluster.codec,
        }
        timed: dict[str, Any] = {}
        if self.multiprocess:
            detail["processes"] = len(cluster.sites)
        if self.pipeline is not None:
            detail["pipeline_depth"] = self.pipeline
            timed["latency_ms"] = latency_percentiles(
                list(cluster.decision_latencies().values()), scale=1000.0
            )
        timed.update(
            virtual_units=round(cluster.sim.now, 1),
            trace_events=len(cluster.sim.trace),
            messages=counts["sent"],
            messages_dropped=counts["dropped"],
            **self.measure(cluster),
        )
        return ScenarioResult(
            events=n_transactions,
            checks_passed=reports.all_hold and len(outcomes) == n_transactions,
            detail={**detail, **self.describe(cluster)},
            timed=timed,
        )


def fsync_counters(cluster) -> dict[str, Any]:
    """``measure`` of the throughput row: force requests vs device
    forces over an in-process cluster's WALs, the group-commit
    amortization."""
    logs = [site.log for site in cluster.sites.values()]
    return {
        "fsync_forces": sum(log.force_count for log in logs),
        "force_requests": sum(getattr(log, "force_requests", 0) for log in logs),
    }


def coordinator_placement(cluster) -> dict[str, Any]:
    """``describe`` of the sharding pair's members."""
    sharded = cluster.topology.coordinator_per_site
    return {
        "sharded": sharded,
        "placement": "hash" if sharded else "tm",
        "coordinators": sorted({txn.coordinator for txn in cluster.submitted}),
    }


def run_openloop(codec: str, smoke: bool = False) -> ScenarioResult:
    """One half of the open-loop codec pair: the latency-vs-offered-load
    sweep (:mod:`repro.workloads.openloop`) over an in-process live
    cluster running ``codec``. Identical transaction bodies and arrival
    clocks on both halves — the only degree of freedom is the encoding
    on the wire and in the WALs, so the two curves (and the headline
    transactions/sec over the whole sweep) quantify the binary fast
    path under load. The curve and the knee are timed; the sweep's
    shape is what the golden file pins."""
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
        checks_passed=decided == total and all(r["checks_ok"] for r in rows),
        detail={
            "codec": codec,
            "rates": list(rates),
            "transactions_per_rate": spec.n_transactions,
            "clients": spec.clients,
            "arrival": spec.arrival,
        },
        timed={
            "p95_ms_by_rate": {f"{r['rate']:g}": r["p95_ms"] for r in rows},
            "achieved_by_rate": {f"{r['rate']:g}": r["achieved"] for r in rows},
            "knee": sweep["knee"],
        },
    )


def run_codec(codec: str, smoke: bool = False) -> ScenarioResult:
    """One half of the encode/decode microbenchmark pair: a
    representative protocol-message mix pushed through one wire codec —
    encode to the framed bytes, decode back, assert the round trip —
    with no sockets or engines in the loop. ``detail`` records the
    framed bytes per message, the wire-volume half of the binary codec's
    win; round trips per second of pure codec work is timed."""
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
        },
        timed={
            "round_trips_per_second": round(frames / elapsed) if elapsed > 0 else 0
        },
    )



"""Metric derivations: percentiles, trace counts, the cost-model gate
and the per-layer table built from spans, trace counts and phase times.
"""

from __future__ import annotations

import math
import resource
import statistics
from collections import Counter
from typing import Any, Iterable, Mapping, Optional, Sequence

from repro.analysis.metrics import cost_breakdown
from repro.analysis.model import predict_costs
from repro.core.events import Outcome

from spans import SpanRecorder, SpanStat

#: Handler spans whose self time is the protocol layer's own work.
HANDLER_SPANS = (
    "protocols.begin_commit",
    "protocols.on_vote",
    "protocols.on_ack",
    "protocols.on_inquiry",
    "protocols.on_prepare",
    "protocols.on_decision",
)


#: Spans of the write-ahead log (as opposed to the store snapshot).
WAL_SPANS = ("storage.force", "storage.flush", "storage.gc")


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


#: Share of a run's units that :func:`undisturbed` keeps.
UNDISTURBED_SHARE = 0.25


def undisturbed(values: Sequence[float]) -> float:
    """Median of the fastest quarter (at least one) of a run's units.

    ``values`` are wall times of like units of one run (epochs, ladder
    steps, ``finalize()`` calls) or medians taken inside them. On a
    shared host other tenants slow the machine by 10-60 % for 5-60 s at
    a time; that only ever adds time, and the median over *all* units
    follows it as soon as it covers half the run. The fastest quarter
    is what the program does when the machine is its own, and it is
    there as long as a quarter of the run was left alone. 0.0 for an
    empty sample.
    """
    if not values:
        return 0.0
    kept = max(1, math.ceil(len(values) * UNDISTURBED_SHARE))
    return statistics.median(sorted(values)[:kept])


def peak_rss_mb(site_pids: Iterable[int] = ()) -> float:
    """Peak resident set of this process plus that of each running site
    process in ``site_pids`` (``VmHWM``, read while they are alive).

    Not ``RUSAGE_CHILDREN``: that is the largest child ever reaped, and
    every run reaps the import-probe interpreters of ``setup_s`` first,
    which would add their constant to workloads that have no children.
    """
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in site_pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            fields = dict(line.split(":", 1) for line in status)
        total_kb += int(fields["VmHWM"].split()[0])
    return total_kb / 1024.0


# -- trace counts ------------------------------------------------------------


def scan_trace(trace: Iterable[Any]) -> Counter:
    """Event counts by ``category.name``, plus ``presumed`` (inquiries
    answered from a presumption instead of a protocol-table entry)."""
    pairs: Counter = Counter()
    presumed = 0
    for event in trace:
        pairs[event.category, event.name] += 1
        if (
            event.name == "respond"
            and event.category == "protocol"
            and event.details.get("presumed")
        ):
            presumed += 1
    counts = Counter(
        {f"{category}.{name}": count for (category, name), count in pairs.items()}
    )
    counts["events"] = sum(pairs.values())
    counts["presumed"] = presumed
    return counts


def report_failures(reports: Any) -> set[str]:
    """Transactions named by a failing atomicity / SafeState /
    operational-correctness report."""
    named: set[str] = set()
    named.update(v.txn_id for v in reports.atomicity.violations)
    named.update(v.txn_id for v in reports.safe_state.violations)
    if not reports.operational.holds:
        for txns in reports.operational.retained_entries.values():
            named.update(txns)
        for txns in reports.operational.uncollected_logs.values():
            named.update(txns)
    return named


# -- the cost-model gate (sim_storm) -----------------------------------------


def per_txn_costs(trace: Iterable[Any]) -> dict[str, tuple[int, int]]:
    """``txn -> (forced protocol records, messages sent)`` in one pass.

    A record counts as forced when the next log event at its site is a
    force, which is how the engines write a forced record
    (``force_append``: append, then force, atomically within one
    handler). ``repro.analysis.metrics.cost_breakdown`` credits *every*
    buffered record to the next force at the site, so under concurrent
    transactions it also counts a lazy record swept out by a
    neighbour's force; for a transaction alone in its run the two
    definitions agree, which :func:`calibrate_cost_counting` asserts. UPDATE records are
    data-plane cost and excluded, as in the model.
    """
    forced: Counter = Counter()
    messages: Counter = Counter()
    last_append: dict[str, Optional[str]] = {}
    for event in trace:
        category = event.category
        if category == "log":
            if event.name == "append":
                is_protocol = event.details.get("type") != "update"
                last_append[event.site] = (
                    event.details.get("txn") if is_protocol else None
                )
            else:
                if event.name == "force":
                    txn = last_append.get(event.site)
                    if txn is not None:
                        forced[txn] += 1
                last_append[event.site] = None
        elif category == "msg" and event.name == "send":
            messages[event.details.get("txn")] += 1
    return {
        txn: (forced[txn], messages[txn]) for txn in set(forced) | set(messages)
    }


def model_residuals(
    trace: Iterable[Any],
    transactions: Iterable[Any],
    outcomes: Mapping[str, str],
    site_protocols: Mapping[str, str],
) -> dict[str, int]:
    """Measured minus predicted forced writes and messages, summed over
    committed transactions. Forced-No aborts are outside the closed-form
    model (it prices coordinator-side aborts only) and are only counted.
    """
    measured = per_txn_costs(trace)
    result = {
        "committed": 0,
        "forced_no_aborts": 0,
        "mismatched": 0,
        "forces_residual": 0,
        "msgs_residual": 0,
    }
    for txn in transactions:
        if outcomes.get(txn.txn_id) != "commit":
            result["forced_no_aborts"] += 1
            continue
        result["committed"] += 1
        predicted = predict_costs(
            {site: site_protocols[site] for site in txn.participants},
            Outcome.COMMIT,
        )
        forces, messages = measured.get(txn.txn_id, (0, 0))
        forces_off = forces - predicted.total_forces
        messages_off = messages - predicted.messages
        result["forces_residual"] += forces_off
        result["msgs_residual"] += messages_off
        if forces_off or messages_off:
            result["mismatched"] += 1
    return result


def calibrate_cost_counting(mdbs: Any, transactions: Sequence[Any]) -> list[str]:
    """On a finished run whose committed ``transactions`` never shared
    a site's log buffer, :func:`per_txn_costs`, the library's
    ``cost_breakdown`` and ``predict_costs`` must all agree. Returns
    the disagreements (empty = agree)."""
    problems = []
    fast = per_txn_costs(mdbs.sim.trace)
    protocols = {site_id: site.protocol for site_id, site in mdbs.sites.items()}
    for txn in transactions:
        breakdown = cost_breakdown(mdbs.sim.trace, txn.txn_id, txn.coordinator)
        predicted = predict_costs(
            {site: protocols[site] for site in txn.participants}, Outcome.COMMIT
        )
        library = (breakdown.total_forced, breakdown.messages)
        model = (predicted.total_forces, predicted.messages)
        if not library == model == fast.get(txn.txn_id):
            problems.append(
                f"{txn.txn_id}: cost_breakdown={library} predict_costs={model} "
                f"per_txn_costs={fast.get(txn.txn_id)}"
            )
    return problems


# -- the per-layer table -----------------------------------------------------


def layer_metrics(
    recorder: Optional[SpanRecorder],
    counts: Mapping[str, float],
    txns: int,
) -> dict[str, float]:
    """Span- and count-derived per-layer metrics (names as in
    BENCHMARK.json). ``counts`` carries what the workload counted from
    the trace and the layers' own counters; ``txns`` is the number of
    transactions the timed region attempted. A layer the workload never
    enters reads 0, which is the bypass prediction made measurable.
    """
    if recorder is None:
        recorder = SpanRecorder()
    stats = recorder.stats()

    def stat(name: str) -> SpanStat:
        return stats.get(name, SpanStat())

    def per_txn(value: float) -> float:
        return value / txns if txns else 0.0

    handlers = [stat(name) for name in HANDLER_SPANS]
    encode_persist = recorder.size_under(
        "storage.encode", ("storage.force", "storage.flush")
    )
    encode_compact = recorder.size_under("storage.encode", ("storage.gc",))
    encode, replay = stat("codec.encode"), stat("storage.replay")
    site_gc = stat("site.flush_and_gc")
    finalize = stat("driver.finalize")
    up_sites = counts.get("sites", 0)
    return {
        "protocols.handler_calls_per_txn": per_txn(
            counts.get("deliveries", 0) + counts.get("begun", 0)
        ),
        "protocols.self_us_per_txn": per_txn(sum(h.self_s for h in handlers) * 1e6),
        "protocols.inquiries_per_txn": per_txn(counts.get("protocol.inquiry", 0)),
        "protocols.presumed_answers": counts.get("presumed", 0),
        "tracing.records_per_txn": per_txn(counts.get("events", 0)),
        "tracing.record_us": stat("tracing.record").per_call_us,
        "storage.forces_per_txn": per_txn(counts.get("log.force", 0)),
        "storage.fsyncs_per_txn": per_txn(recorder.count_under("os.fsync", WAL_SPANS)),
        "storage.force_ms": stat("storage.force").per_call_ms,
        "storage.append_us": stat("storage.append").per_call_us,
        "storage.wal_bytes_per_txn": per_txn(encode_persist),
        "storage.gc_calls_per_txn": per_txn(stat("storage.gc").count),
        "storage.gc_ms": stat("storage.gc").per_call_ms,
        "storage.compact_bytes_per_txn": per_txn(encode_compact),
        "storage.replay_ms": replay.per_call_ms,
        "storage.replay_records": replay.size_sum,
        "codec.encode_us": encode.per_call_us,
        "codec.decode_us": stat("codec.decode").per_call_us,
        "codec.bytes_per_msg": encode.size_sum / encode.count if encode.count else 0.0,
        "transport.msgs_per_txn": per_txn(counts.get("sent", 0)),
        "transport.send_us": stat("transport.send").per_call_us,
        "transport.backlog_max": stat("transport.send").size_max,
        "transport.dropped": counts.get("dropped", 0),
        "runtime.timers_set_per_txn": per_txn(stat("runtime.schedule").count),
        "runtime.timers_fired_per_txn": per_txn(counts.get("timers_fired", 0)),
        "driver.finalize_rounds": (
            site_gc.count / up_sites / finalize.count
            if up_sites and finalize.count
            else 0.0
        ),
        "driver.submit_us": stat("driver.submit").per_call_us,
        "proc.collect_ms": stat("proc.collect").per_call_ms,
        "site.deliver_us": stat("site.deliver").per_call_us,
        "site.flush_and_gc_ms": site_gc.per_call_ms,
        "site.cold_recover_ms": stat("site.cold_recover").per_call_ms,
        "db.prepare_us": stat("db.prepare").per_call_us,
        "db.commit_us": stat("db.commit").per_call_us,
        "db.checkpoint_ms": stat("db.checkpoint").per_call_ms,
        "core.history_build_ms": stat("core.history_build").per_call_ms,
        "core.check_ms": stat("driver.check").per_call_ms,
    }

"""Metric extraction from runs.

The cost comparison the presumed protocols compete on (experiment C1)
is measured here: forced log writes (the dominant latency cost), total
log writes, and message counts, split by site role.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.mdbs.system import MDBS
from repro.sim.tracing import TraceRecorder


@dataclass(frozen=True)
class MessageCounts:
    """Messages sent in (part of) a run, by kind."""

    by_kind: dict[str, int]

    @property
    def total(self) -> int:
        return sum(self.by_kind.values())

    def of(self, kind: str) -> int:
        return self.by_kind.get(kind, 0)


def message_counts(
    trace: TraceRecorder,
    txn_id: Optional[str] = None,
    since_seq: int = 0,
) -> MessageCounts:
    """Count sent messages, optionally restricted to one transaction."""
    counts: dict[str, int] = {}
    only = {} if txn_id is None else {"txn": txn_id}
    for event in trace.select(category="msg", name="send", **only):
        if event.seq < since_seq:
            continue
        kind = event.details.get("kind", "?")
        counts[kind] = counts.get(kind, 0) + 1
    return MessageCounts(counts)


def site_force_counts(mdbs: MDBS) -> dict[str, int]:
    """Forced log writes per site over the whole run."""
    return {site_id: site.log.force_count for site_id, site in mdbs.sites.items()}


@dataclass
class CostBreakdown:
    """Per-transaction commit-processing costs, split by role.

    ``coordinator_forced`` / ``coordinator_writes`` count the
    coordinator's log activity for the transaction;
    ``participant_forced`` / ``participant_writes`` aggregate over all
    participants; ``messages`` counts every protocol message of the
    transaction (prepares, votes, decisions, acks, inquiries).
    """

    txn_id: str
    coordinator: str
    coordinator_forced: int = 0
    coordinator_writes: int = 0
    participant_forced: int = 0
    participant_writes: int = 0
    messages: int = 0
    message_kinds: dict[str, int] = field(default_factory=dict)

    @property
    def total_forced(self) -> int:
        return self.coordinator_forced + self.participant_forced


def cost_breakdown(
    trace: TraceRecorder,
    txn_id: str,
    coordinator: str,
    exclude_update_records: bool = True,
) -> CostBreakdown:
    """Measure one transaction's commit-processing costs from the trace.

    A log append is counted as *forced* if the next log event on the
    same site is a force — which is exactly how the engines write
    records (``force_append_async``: append, then force). A lazy record
    that a later force sweeps out along with another record is written,
    not forced, also when the force is a neighbour transaction's.
    UPDATE records are excluded by default: they are data-plane cost,
    identical across protocols, and the paper's comparison is about
    protocol records.

    On a live trace the file log records the ``log.force`` events of a
    tick after all of that tick's appends, so there only the last
    forced record of each tick counts as forced.
    """
    breakdown = CostBreakdown(txn_id=txn_id, coordinator=coordinator)
    # site -> whether its last log event appended a counted record of
    # this transaction.
    last_is_ours: dict[str, bool] = {}
    for event in trace.select(category="log"):
        site = event.site
        ours = False
        if event.name == "append" and event.details.get("txn") == txn_id:
            record_type = event.details.get("type", "")
            ours = not (exclude_update_records and record_type == "update")
            if ours and site == coordinator:
                breakdown.coordinator_writes += 1
            elif ours:
                breakdown.participant_writes += 1
        elif event.name == "force" and last_is_ours.get(site):
            if site == coordinator:
                breakdown.coordinator_forced += 1
            else:
                breakdown.participant_forced += 1
        last_is_ours[site] = ours
    counts = message_counts(trace, txn_id=txn_id)
    breakdown.messages = counts.total
    breakdown.message_kinds = dict(counts.by_kind)
    return breakdown


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; 0.0 for an empty iterable."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def quantile(ordered: list[float], q: float) -> float:
    """Linear-interpolation quantile of an already-sorted sample; 0.0
    for an empty one."""
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction

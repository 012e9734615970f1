"""A failure-free run does the protocol's work and no timer-driven work.

Every protocol timer guards a failure: ``vote_timeout`` a lost vote,
``inquiry_timeout`` a lost decision, ``active_timeout`` a lost PREPARE,
``resend_interval`` a lost ack. On a run where nothing fails, none of
them may end a wait — if one does, the run is paying a timer for work
the paper prices in messages and forced writes.

The stream is the benchmark's shape: 2-3 participants per transaction,
a quarter of them aborted by a No vote from their first participant.
That No routinely overtakes another participant's Yes, which is exactly
where a presumed-abort participant used to sit prepared until its
inquiry timer fired.

It runs through the simulator (``build_mdbs``) and through real sockets
(``LiveCluster``) for PrAny and U2PC(PrC) over the three-way mix, and
for PrN, PrA and PrC each over its own homogeneous mix. C2PC is left
out: by Theorem 2 it retains every abort with a PrA participant and
every commit with a PrC participant forever, resending the decision
each ``resend_interval`` — timer work is its defining defect, not a
regression.
"""

from __future__ import annotations

import asyncio
from collections import Counter

import pytest

from repro.rt import cluster as live
from repro.workloads.generator import WorkloadSpec, run_workload
from repro.workloads.mixes import homogeneous, three_way

CASES = {
    "PrAny": ("dynamic", three_way(3)),
    "U2PC(PrC)": ("U2PC(PrC)", three_way(3)),
    "PrN": ("PrN", homogeneous("PrN", 3)),
    "PrA": ("PrA", homogeneous("PrA", 3)),
    "PrC": ("PrC", homogeneous("PrC", 3)),
}

#: Trace events only a firing protocol timer records.
TIMER_EVENTS = {
    ("protocol", "inquiry"),
    ("protocol", "vote_timeout"),
    ("protocol", "active_timeout"),
}


def stream(n_transactions: int, inter_arrival: float) -> WorkloadSpec:
    return WorkloadSpec(
        n_transactions=n_transactions,
        abort_fraction=0.25,
        participants_min=2,
        participants_max=3,
        inter_arrival=inter_arrival,
        seed=7,
    )


def timer_work(trace) -> list[str]:
    """Every trace sign of a protocol timer having fired. A decision
    sent twice to one participant is a resend: without a failure each
    participant is sent a decision at most once."""
    found = [
        f"{event.category}.{event.name} {event.details.get('txn')}"
        for event in trace
        if (event.category, event.name) in TIMER_EVENTS
    ]
    decisions = Counter(
        (event.details["txn"], event.details["to"])
        for event in trace.select(category="msg", name="send")
        if event.details["kind"] in ("COMMIT", "ABORT")
    )
    found += [
        f"decision resent to {to} for {txn}"
        for (txn, to), sent in sorted(decisions.items())
        if sent > 1
    ]
    return found


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulated_run_fires_no_protocol_timer(case):
    coordinator, mix = CASES[case]
    spec = stream(200, inter_arrival=2.0)
    mdbs, transactions = run_workload(mix, coordinator, spec, drain=500.0)
    assert spec.abort_fraction and any(t.force_no_vote_at for t in transactions)
    assert timer_work(mdbs.sim.trace) == []
    if case != "U2PC(PrC)":
        assert mdbs.check().all_hold


@pytest.mark.parametrize("case", sorted(CASES))
def test_live_run_fires_no_protocol_timer(case, tmp_path):
    coordinator, mix = CASES[case]
    cluster = asyncio.run(
        live.run_workload(
            live.LiveCluster,
            mix,
            coordinator,
            stream(40, inter_arrival=1.0),
            str(tmp_path),
            pipeline=8,
            fsync=False,
        )
    )
    assert len(cluster.outcomes()) == 40
    assert timer_work(cluster.sim.trace) == []
    if case != "U2PC(PrC)":
        assert cluster.check().all_hold

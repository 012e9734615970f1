"""The compact trace store against a plain list of events.

``TraceRecorder`` keeps rows and builds events on read. Whatever is
recorded, every read must give what a plain list of ``TraceEvent``\\ s
gives: iteration, ``len``, ``trace[i]``, ``select``/``first`` under any
criteria, ``replace``, the JSON Lines round trip and the digest. Events
are compared by ``repr``, so an ``int`` time that came back as ``1.0``
would fail.
"""

from __future__ import annotations

import tempfile
import tracemalloc
from pathlib import Path
from typing import Any, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.explore.runner import trace_digest
from repro.sim.export import dump_trace, load_trace
from repro.sim.tracing import TraceEvent, TraceRecorder
from repro.workloads.generator import WorkloadSpec, run_workload
from repro.workloads.mixes import three_way


class ListTrace:
    """The reference: the trace as a plain list of events."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def record(self, time, site, category, name, details) -> TraceEvent:
        event = TraceEvent(time, len(self.events), site, category, name, dict(details))
        self.events.append(event)
        return event

    def replace(self, events) -> None:
        self.events = []
        for event in events:
            self.record(event.time, event.site, event.category, event.name, event.details)

    def select(self, category=None, name=None, site=None, **details):
        return [e for e in self.events if e.matches(category, name, site, **details)]

    def first(self, category=None, name=None, site=None, **details) -> Optional[TraceEvent]:
        return next(iter(self.select(category, name, site, **details)), None)


SITES = ("", "tm", "site0", "site1")
CATEGORIES = ("log", "msg", "protocol")
NAMES = ("append", "send", "decide")
KEYS = ("txn", "kind", "details", "lsn", "odd key'\"")

times = st.one_of(st.integers(0, 50), st.floats(0, 50, allow_nan=False))
values = st.one_of(
    st.none(),
    st.integers(-2, 300),
    st.floats(-1, 1, allow_nan=False),
    st.sampled_from(("t1", "t2", "COMMIT")),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.sampled_from(("a", "b")), st.integers(0, 2), max_size=2),
)
# Drawn keys come in any order, so one key set recurs in several orders.
details = st.lists(st.sampled_from(KEYS), unique=True, max_size=4).flatmap(
    lambda keys: st.fixed_dictionaries({key: values for key in keys})
)
records = st.tuples(
    st.just("record"), times, st.sampled_from(SITES),
    st.sampled_from(CATEGORIES), st.sampled_from(NAMES), details,
)
criteria = st.fixed_dictionaries(
    {},
    optional={
        "category": st.sampled_from(CATEGORIES + ("db",)),
        "name": st.sampled_from(NAMES),
        "site": st.sampled_from(SITES),
    },
)
queries = st.tuples(
    st.sampled_from(("select", "first")),
    criteria,
    st.dictionaries(st.sampled_from(KEYS + ("missing",)), values, max_size=2),
)
operations = st.lists(st.one_of(records, records, queries), max_size=40)


def reprs(events) -> list[str]:
    return [repr(event) for event in events]


def assert_same(trace: TraceRecorder, reference: ListTrace, data) -> None:
    assert len(trace) == len(reference)
    assert reprs(trace) == reprs(reference)
    if len(reference):
        index = data.draw(st.integers(-len(reference), len(reference) - 1))
        assert repr(trace[index]) == repr(reference.events[index])
    assert trace.render() == "\n".join(str(event) for event in reference)
    assert trace_digest(trace) == trace_digest(reference)


def query(trace, reference, kind: str, where: dict[str, Any], filters: dict[str, Any]):
    if kind == "select":
        assert reprs(trace.select(**where, **filters)) == reprs(
            reference.select(**where, **filters)
        )
    else:
        assert repr(trace.first(**where, **filters)) == repr(
            reference.first(**where, **filters)
        )


@settings(max_examples=150, deadline=None)
@given(operations, st.booleans(), st.data())
def test_store_reads_like_a_list_of_events(ops, subscribed, data):
    trace, reference = TraceRecorder(), ListTrace()
    dispatched: list[TraceEvent] = []
    if subscribed:
        trace.subscribe(dispatched.append)
    for op in ops:
        if op[0] == "record":
            _, time, site, category, name, payload = op
            returned = trace.record(time, site, category, name, dict(payload))
            expected = reference.record(time, site, category, name, payload)
            assert repr(returned) == repr(expected if subscribed else None)
        else:
            query(trace, reference, *op)
    if subscribed:
        assert reprs(dispatched) == reprs(reference)
    assert_same(trace, reference, data)
    for op in data.draw(st.lists(queries, max_size=6)):
        query(trace, reference, *op)

    with tempfile.TemporaryDirectory() as directory:
        ours, theirs = Path(directory, "ours.jsonl"), Path(directory, "theirs.jsonl")
        assert dump_trace(trace, ours) == dump_trace(reference, theirs)
        assert ours.read_bytes() == theirs.read_bytes()
        loaded = load_trace(ours)
    # A dump sorts each event's keys, so compare details as dicts.
    assert [(repr(e.time), e) for e in loaded] == [(repr(e.time), e) for e in reference]
    assert trace_digest(loaded) == trace_digest(reference)

    order = data.draw(st.permutations(reference.events))
    trace.replace(order)
    reference.replace(order)
    assert_same(trace, reference, data)
    for op in data.draw(st.lists(queries, max_size=6)):
        query(trace, reference, *op)


def test_same_keys_in_two_orders_are_two_shapes():
    trace = TraceRecorder()
    trace.record(0, "s", "msg", "send", {"kind": "VOTE", "txn": "t1"})
    trace.record(1.0, "s", "msg", "send", {"txn": "t1", "kind": "ACK"})
    assert [list(event.details) for event in trace] == [["kind", "txn"], ["txn", "kind"]]
    assert [event.details["kind"] for event in trace.select(txn="t1")] == ["VOTE", "ACK"]
    assert repr(trace[0].time) == "0" and repr(trace[1].time) == "1.0"


def test_empty_details_and_a_detail_named_details():
    trace = TraceRecorder()
    trace.record(0.0, "s", "c", "n")
    trace.record(1.0, "s", "c", "n", details={"nested": [1]})
    assert trace[0].details == {}
    assert trace.select(details={"nested": [1]}) == [trace[1]]
    assert trace.select(details=None) == [trace[0]]


#: A trace retains at most this many bytes per event. A slotted
#: ``TraceEvent`` with its own dict, boxed time and boxed seq held ~316.
MAX_BYTES_PER_EVENT = 64


def test_a_storm_trace_stays_compact():
    """Replay 50 000 events of a simulated commit storm into a fresh
    recorder and count what it allocates and keeps. The detail values
    already exist (the runtimes made them); the times are made fresh,
    one float per instant, as the simulator's clock makes them."""
    mdbs, _ = run_workload(
        three_way(3),
        "dynamic",
        WorkloadSpec(n_transactions=1000, inter_arrival=5.0, seed=7),
        drain=1000.0,
    )
    events = [
        (event.time, event.site, event.category, event.name, event.details)
        for event in mdbs.sim.trace
    ][:50_000]
    assert len(events) == 50_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = TraceRecorder()
        instants: dict[float, float] = {}
        for time, site, category, name, payload in events:
            stamp = instants.get(time)
            if stamp is None:
                stamp = instants[time] = time + 0.0
            trace.record(stamp, site, category, name, dict(payload))
        del instants, stamp
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace) == 50_000
    assert retained / 50_000 <= MAX_BYTES_PER_EVENT, f"{retained / 50_000:.1f} B per event"

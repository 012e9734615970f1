"""Unit tests for the trace recorder."""

import asyncio
import sys

import pytest

from repro.rt.runtime import LiveRuntime
from repro.sim.kernel import Simulator
from repro.sim.tracing import TraceEvent, TraceRecorder


def make_trace():
    trace = TraceRecorder()
    trace.record(1.0, "a", "log", "force", txn="t1")
    trace.record(2.0, "b", "msg", "send", kind="PREPARE", txn="t1")
    trace.record(3.0, "a", "log", "force", txn="t2")
    return trace


class TestRecording:
    def test_sequence_numbers_are_monotonic(self):
        trace = make_trace()
        assert [e.seq for e in trace] == [0, 1, 2]

    def test_len(self):
        assert len(make_trace()) == 3

    def test_index_builds_the_event(self):
        trace = make_trace()
        assert trace[1] == TraceEvent(
            2.0, 1, "b", "msg", "send", {"kind": "PREPARE", "txn": "t1"}
        )
        assert trace[-1].seq == 2
        with pytest.raises(IndexError):
            trace[3]

    def test_details_are_copied(self):
        trace = TraceRecorder()
        payload = {"txn": "t"}
        trace.record(0.0, "s", "c", "n", payload)
        payload["txn"] = "mutated"
        assert trace[0].details["txn"] == "t"

    def test_record_returns_the_event_only_to_a_subscriber(self):
        trace = TraceRecorder()
        assert trace.record(0.0, "s", "c", "n") is None
        seen = []
        trace.subscribe(seen.append)
        assert trace.record(1.0, "s", "c", "n") is seen[0]


def fresh(text):
    """An equal string that is not the interned literal."""
    return "".join(list(text))


def assert_same_event(event, reference):
    assert (event.seq, event.time, event.details) == (
        reference.seq,
        reference.time,
        reference.details,
    )
    for field in ("site", "category", "name"):
        value = getattr(event, field)
        assert value == getattr(reference, field)
        assert value is sys.intern(value)


class TestOneDict:
    """The runtimes hand their keyword dict over as the payload."""

    def test_simulator_record_matches_keyword_record(self):
        sim = Simulator(seed=1)
        reference = TraceRecorder()
        sim.record("a", "log", "force")
        reference.record(0.0, "a", "log", "force")
        sim.schedule(
            2.5,
            lambda: sim.record(fresh("s1"), fresh("msg"), fresh("send"), kind="VOTE", to="tm"),
        )
        sim.run()
        reference.record(2.5, "s1", "msg", "send", kind="VOTE", to="tm")
        assert_same_event(sim.trace[1], reference[1])
        assert sim.trace[1].seq == 1

    def test_live_record_matches_keyword_record(self):
        async def scenario():
            rt = LiveRuntime()
            before = rt.now
            rt.record(fresh("s1"), fresh("msg"), fresh("send"), kind="VOTE")
            return before, rt.trace[0], rt.now

        before, event, after = asyncio.run(scenario())
        assert before <= event.time <= after
        expected = TraceRecorder()
        expected.record(event.time, "s1", "msg", "send", kind="VOTE")
        assert_same_event(event, expected[0])

    def test_positional_dict_is_adopted(self):
        payload = {"txn": "t1"}
        trace = TraceRecorder()
        seen = []
        trace.subscribe(seen.append)
        trace.record(0.0, "s", "c", "n", payload)
        assert seen[0].details is payload

    def test_keyword_detail_named_details_survives(self):
        trace = TraceRecorder()
        trace.record(0.0, "s", "c", "n", details="x", txn="t1")
        assert trace[0].details == {"details": "x", "txn": "t1"}
        sim = Simulator(seed=1)
        sim.record("s", "c", "n", details="x")
        assert sim.trace[0].details == {"details": "x"}

    def test_dict_and_keywords_together_are_rejected(self):
        trace = TraceRecorder()
        with pytest.raises(TypeError):
            trace.record(0.0, "s", "c", "n", {"txn": "t1"}, kind="VOTE")
        assert len(trace) == 0

    def test_filtered_event_consumes_nothing(self):
        sim = Simulator(seed=1)
        seen = []
        sim.trace.subscribe(seen.append)
        sim.trace.set_category_filter({"protocol"})
        assert sim.record("s", "msg", "send", kind="VOTE") is None
        assert sim.trace.record(0.0, "s", "msg", "send", {"kind": "VOTE"}) is None
        kept = sim.record("s", "protocol", "decide")
        assert kept.seq == 0 and seen == [kept] and len(sim.trace) == 1


class TestSelection:
    def test_select_by_category(self):
        assert len(make_trace().select(category="log")) == 2

    def test_select_by_site(self):
        assert len(make_trace().select(site="b")) == 1

    def test_select_by_detail(self):
        assert len(make_trace().select(txn="t1")) == 2

    def test_select_combined(self):
        trace = make_trace()
        hits = trace.select(category="log", txn="t2")
        assert len(hits) == 1
        assert hits[0].time == 3.0

    def test_first_returns_earliest_match(self):
        assert make_trace().first(category="log").time == 1.0

    def test_first_returns_none_when_absent(self):
        assert make_trace().first(category="db") is None

    def test_matches_rejects_wrong_detail(self):
        event = make_trace()[0]
        assert not event.matches(txn="other")


class TestSubscription:
    def test_subscriber_sees_subsequent_events(self):
        trace = TraceRecorder()
        seen = []
        trace.subscribe(seen.append)
        trace.record(0.0, "s", "c", "n")
        assert len(seen) == 1

    def test_subscriber_added_during_dispatch_misses_that_event(self):
        trace = TraceRecorder()
        late = []

        def subscribe_late(event):
            if event.seq == 0:
                trace.subscribe(lambda e: late.append(e.seq))

        trace.subscribe(subscribe_late)
        trace.record(0.0, "s", "c", "n")
        trace.record(1.0, "s", "c", "n")
        assert late == [1]

    def test_subscriber_does_not_see_past_events(self):
        trace = make_trace()
        seen = []
        trace.subscribe(seen.append)
        assert seen == []


class TestRendering:
    def test_render_contains_all_events(self):
        rendered = make_trace().render()
        assert rendered.count("\n") == 2

    def test_render_limit(self):
        rendered = make_trace().render(limit=1)
        assert "\n" not in rendered

    def test_str_includes_site_and_name(self):
        text = str(make_trace()[0])
        assert "a" in text and "log.force" in text

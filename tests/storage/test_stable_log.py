"""Unit tests for the stable log — force, crash truncation, GC."""

import pytest

from repro.errors import LogClosedError, StorageError
from repro.storage.log_records import (
    LogRecord,
    RecordType,
    decision_record,
    end_record,
    initiation_record,
    prepared_record,
    update_record,
)
from repro.storage.stable_log import StableLog, count_forced


def rec(txn="t1", type_=RecordType.PREPARED):
    return LogRecord(type_, txn)


class TestAppendForce:
    def test_append_assigns_increasing_lsns(self, log):
        a = log.append(rec())
        b = log.append(rec())
        assert b.lsn == a.lsn + 1

    def test_append_is_buffered_not_stable(self, log):
        log.append(rec())
        assert log.stable_record_count == 0
        assert log.buffered_record_count == 1

    def test_force_makes_buffer_stable(self, log):
        log.append(rec())
        log.append(rec())
        log.force()
        assert log.stable_record_count == 2
        assert log.buffered_record_count == 0

    def test_force_marks_records_forced(self, log):
        record = log.append(rec())
        assert not record.forced
        log.force()
        assert record.forced

    def test_force_append_is_atomic_pairing(self, log):
        record = log.force_append(rec())
        assert record.forced
        assert log.stable_record_count == 1

    def test_counters(self, log):
        log.force_append(rec())
        log.append(rec())
        assert log.force_count == 1
        assert log.append_count == 2

    def test_count_forced_helper(self, log):
        a = log.force_append(rec())
        b = log.append(rec())
        assert count_forced([a, b]) == 1


class TestFlush:
    def test_flush_stabilizes_without_force_count(self, log):
        log.append(rec())
        flushed = log.flush()
        assert flushed == 1
        assert log.stable_record_count == 1
        assert log.force_count == 0
        assert log.flush_count == 1

    def test_empty_flush_is_free(self, log):
        assert log.flush() == 0
        assert log.flush_count == 0


class TestBufferedVsStableCounterSemantics:
    """The documented contract of buffered/stable counters vs force/flush.

    ``buffered_record_count`` is exactly what a crash right now would
    lose; ``stable + buffered`` is the total record population; a force
    is a protocol cost even when the buffer is empty, while a flush is
    only an event when records actually move.
    """

    def test_buffered_count_is_exactly_the_crash_loss(self, log):
        log.force_append(rec("t1"))
        log.append(rec("t2"))
        log.append(rec("t3"))
        expected_loss = log.buffered_record_count
        assert log.crash() == expected_loss == 2

    def test_population_is_conserved_by_force_and_flush(self, log):
        log.append(rec("t1"))
        log.append(rec("t2"))
        total = log.stable_record_count + log.buffered_record_count
        log.force()
        assert log.stable_record_count + log.buffered_record_count == total
        log.append(rec("t3"))
        log.flush()
        assert log.stable_record_count + log.buffered_record_count == total + 1

    def test_empty_force_is_still_a_counted_protocol_cost(self, log, sim):
        log.force()
        assert log.force_count == 1
        forces = sim.trace.select(category="log", name="force")
        assert len(forces) == 1
        assert forces[0].details["flushed"] == 0

    def test_empty_flush_leaves_no_trace(self, log, sim):
        log.flush()
        assert log.flush_count == 0
        assert not sim.trace.select(category="log", name="flush")

    def test_flush_traces_only_when_records_moved(self, log, sim):
        log.append(rec())
        log.flush()
        log.flush()
        events = sim.trace.select(category="log", name="flush")
        assert len(events) == 1
        assert events[0].details["flushed"] == 1
        assert log.flush_count == 1

    def test_gc_shrinks_the_stable_side_only(self, log):
        log.force_append(rec("t1"))
        log.append(rec("t2"))
        log.garbage_collect("t1")
        assert log.stable_record_count == 0
        assert log.buffered_record_count == 1


class TestForceAppendAsync:
    def test_base_log_notifies_before_returning(self, log):
        fired = []
        record = log.force_append_async(rec("t1"), on_stable=lambda: fired.append("now"))
        assert record.forced
        assert fired == ["now"]

    def test_base_log_callback_runs_synchronously(self, log):
        order = []
        log.force_append_async(rec("t1"), on_stable=lambda: order.append("cb"))
        order.append("returned")
        assert order == ["cb", "returned"]

    def test_behaves_like_force_append(self, log):
        log.force_append_async(rec("t1"))
        assert log.stable_record_count == 1
        assert log.buffered_record_count == 0
        assert log.force_count == 1


class TestCrash:
    def test_crash_loses_buffered_records(self, log):
        log.force_append(rec("t1"))
        log.append(rec("t2"))
        lost = log.crash()
        assert lost == 1
        log.reopen()
        assert log.transactions() == {"t1"}

    def test_crash_preserves_stable_records(self, log):
        log.force_append(rec("t1"))
        log.crash()
        assert log.stable_record_count == 1

    def test_write_while_crashed_raises(self, log):
        log.crash()
        with pytest.raises(LogClosedError):
            log.append(rec())
        with pytest.raises(LogClosedError):
            log.force()
        with pytest.raises(LogClosedError):
            log.flush()

    def test_reopen_allows_writing_again(self, log):
        log.crash()
        log.reopen()
        log.force_append(rec())
        assert log.stable_record_count == 1

    def test_reopen_of_open_log_raises(self, log):
        with pytest.raises(StorageError):
            log.reopen()

    def test_stable_records_readable_while_down(self, log):
        log.force_append(rec("t1"))
        log.crash()
        # Recovery analysis reads stable records of a closed log.
        assert len(log.stable_records()) == 1


class TestQueries:
    def test_records_for_filters_by_txn(self, log):
        log.force_append(rec("t1"))
        log.force_append(rec("t2"))
        log.force_append(rec("t1", RecordType.COMMIT))
        assert len(log.records_for("t1")) == 2

    def test_has_record(self, log):
        log.force_append(decision_record("t1", "commit"))
        assert log.has_record("t1", RecordType.COMMIT)
        assert not log.has_record("t1", RecordType.ABORT)

    def test_last_record_returns_latest(self, log):
        log.force_append(rec("t1", RecordType.PREPARED))
        last = log.force_append(rec("t1", RecordType.COMMIT))
        assert log.last_record("t1") is last

    def test_last_record_with_type_filter(self, log):
        first = log.force_append(rec("t1", RecordType.PREPARED))
        log.force_append(rec("t1", RecordType.COMMIT))
        assert log.last_record("t1", RecordType.PREPARED) is first

    def test_last_record_absent(self, log):
        assert log.last_record("nope") is None

    def test_transactions_set(self, log):
        log.force_append(rec("t1"))
        log.force_append(rec("t2"))
        assert log.transactions() == {"t1", "t2"}


class TestGarbageCollection:
    def test_gc_removes_all_txn_records(self, log):
        log.force_append(rec("t1"))
        log.force_append(rec("t1", RecordType.COMMIT))
        log.force_append(rec("t2"))
        collected = log.garbage_collect("t1")
        assert collected == 2
        assert log.transactions() == {"t2"}

    def test_gc_counts_records(self, log):
        log.force_append(rec("t1"))
        log.garbage_collect("t1")
        assert log.gc_record_count == 1

    def test_gc_of_unknown_txn_is_zero(self, log):
        assert log.garbage_collect("ghost") == 0


class TestRecordFactories:
    def test_initiation_record_payload(self):
        record = initiation_record("t", ["a", "b"], {"a": "PrA", "b": "PrC"})
        assert record.get("participants") == ["a", "b"]
        assert record.get("protocols") == {"a": "PrA", "b": "PrC"}

    def test_initiation_record_without_protocols(self):
        record = initiation_record("t", ["a"])
        assert record.get("protocols") is None

    def test_prepared_record_remembers_coordinator(self):
        assert prepared_record("t", "tm").get("coordinator") == "tm"

    def test_decision_record_types(self):
        assert decision_record("t", "commit").type is RecordType.COMMIT
        assert decision_record("t", "abort").type is RecordType.ABORT

    def test_decision_record_rejects_garbage(self):
        with pytest.raises(ValueError):
            decision_record("t", "maybe")

    def test_decision_record_role_tag(self):
        assert decision_record("t", "commit").get("by") == "participant"
        assert (
            decision_record("t", "commit", role="coordinator").get("by")
            == "coordinator"
        )

    def test_is_decision_property(self):
        assert decision_record("t", "commit").is_decision
        assert not end_record("t").is_decision

    def test_update_record_images(self):
        record = update_record("t", "k", 1, 2)
        assert record.get("before") == 1
        assert record.get("after") == 2

    def test_record_ids_unique(self):
        assert rec().record_id != rec().record_id

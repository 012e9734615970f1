"""Model-based equivalence: the indexed stable log against a naive list.

:class:`NaiveLog` below is the log as it was before it indexed its
stable records by transaction: one list, scanned for every read and
rebuilt for every collection. It is kept here as the reference. Random
operation sequences drive it and the real log side by side; after every
step both must agree on everything a caller can observe — the stable
records in LSN order, each transaction's records, the transaction set,
the counters and the ``log.*`` trace events — on the in-memory log and
on the file log under both codecs, where the file must also reload to
the same records once compacted.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LogClosedError
from repro.sim.kernel import Simulator
from repro.storage.file_log import FileStableLog
from repro.storage.log_records import LogRecord, RecordType
from repro.storage.stable_log import StableLog

TXNS = ["", "t1", "t2", "t3", "t4"]
TYPES = [RecordType.PREPARED, RecordType.COMMIT, RecordType.END]


class NaiveLog:
    """The reference: records are ``(lsn, type, txn)`` in plain lists."""

    def __init__(self) -> None:
        self.stable: list[tuple] = []
        self.buffer: list[tuple] = []
        self.open = True
        self.next_lsn = 1
        self.gc_record_count = 0
        self.events: list[tuple] = []

    def append(self, type_: RecordType, txn: str) -> None:
        lsn, self.next_lsn = self.next_lsn, self.next_lsn + 1
        self.buffer.append((lsn, type_, txn))
        self.events.append(("append", {"type": type_.value, "txn": txn, "lsn": lsn}))

    def force(self) -> None:
        self.events.append(("force", {"flushed": len(self.buffer)}))
        self.stable += self.buffer
        self.buffer = []

    def flush(self) -> None:
        if self.buffer:
            self.events.append(("flush", {"flushed": len(self.buffer)}))
            self.stable += self.buffer
            self.buffer = []

    def crash(self) -> None:
        self.events.append(("crash", {"lost_records": len(self.buffer)}))
        self.buffer = []
        self.open = False

    def reopen(self) -> None:
        self.events.append(("reopen", {}))
        self.open = True

    def garbage_collect(self, txn: str) -> int:
        before = len(self.stable)
        self.stable = [r for r in self.stable if r[2] != txn]
        collected = before - len(self.stable)
        if collected:
            self.gc_record_count += collected
            self.events.append(("gc", {"txn": txn, "collected": collected}))
        return collected

    def records_for(self, txn: str) -> list[tuple]:
        return [r for r in self.stable if r[2] == txn]

    def transactions(self) -> set[str]:
        return {r[2] for r in self.stable if r[2]}


def view(records) -> list[tuple]:
    return [(r.lsn, r.type, r.txn_id) for r in records]


OPS = st.one_of(
    st.tuples(st.just("append"), st.sampled_from(TYPES), st.sampled_from(TXNS)),
    st.tuples(st.just("force")),
    st.tuples(st.just("flush")),
    st.tuples(st.just("crash")),
    st.tuples(st.just("reopen")),
    st.tuples(st.just("gc"), st.sampled_from(TXNS)),
)


def apply(op: tuple, log: StableLog, model: NaiveLog) -> None:
    name = op[0]
    if name == "gc":
        assert log.garbage_collect(op[1]) == model.garbage_collect(op[1])
    elif name == "crash":
        if model.open:  # a crashed site cannot crash again
            assert log.crash() == len(model.buffer)
            model.crash()
    elif name == "reopen":
        if not model.open:
            log.reopen()
            model.reopen()
    else:  # append, force, flush: refused while crashed
        args = (LogRecord(*op[1:]),) if name == "append" else ()
        if model.open:
            getattr(log, name)(*args)
            getattr(model, name)(*op[1:])
        else:
            with pytest.raises(LogClosedError):
                getattr(log, name)(*args)


def assert_agree(log: StableLog, model: NaiveLog, sim: Simulator) -> None:
    assert view(log.stable_records()) == model.stable
    assert log.stable_record_count == len(model.stable)
    assert log.buffered_record_count == len(model.buffer)
    assert log.gc_record_count == model.gc_record_count
    assert log.transactions() == model.transactions()
    assert log.uncollected_transactions() == model.transactions()
    for txn in TXNS:
        mine = model.records_for(txn)
        assert view(log.records_for(txn)) == mine
        last = log.last_record(txn)
        assert (view([last]) if last else []) == mine[-1:]
        for type_ in TYPES:
            typed = [r for r in mine if r[1] is type_]
            assert log.has_record(txn, type_) == bool(typed)
            last = log.last_record(txn, type_)
            assert (view([last]) if last else []) == typed[-1:]
    assert [
        (event.name, event.details) for event in sim.trace.select(category="log")
    ] == model.events


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(OPS, max_size=40))
def test_indexed_memory_log_matches_the_naive_list(ops):
    sim = Simulator(seed=5)
    log, model = StableLog(sim, "s1"), NaiveLog()
    for op in ops:
        apply(op, log, model)
        assert_agree(log, model, sim)


@pytest.mark.parametrize("codec", ["json", "binary"])
@settings(max_examples=60, deadline=None)
@given(ops=st.lists(OPS, max_size=40), compact_every=st.integers(1, 8))
def test_indexed_file_log_matches_the_naive_list(codec, ops, compact_every):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wal"
        sim = Simulator(seed=5)
        log, model = FileStableLog(sim, "s1", path, fsync=False, codec=codec), NaiveLog()
        for step, op in enumerate(ops):
            apply(op, log, model)
            if step % compact_every == 0:
                log.compact()  # a sweep's end: never changes what memory holds
            assert_agree(log, model, sim)
        # What a restarted process would see: before the compaction a
        # superset of memory in the same order; after it, memory.
        stale = FileStableLog(Simulator(seed=6), "s1", path, fsync=False, codec=codec)
        reloaded = view(stale.stable_records())
        stale.close()
        assert [r for r in reloaded if r in model.stable] == model.stable
        log.compact()
        log.close()
        reborn = FileStableLog(Simulator(seed=6), "s1", path, fsync=False, codec=codec)
        assert view(reborn.stable_records()) == model.stable

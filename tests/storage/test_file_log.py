"""File-backed durability: FileStableLog and FileBackedStore.

The restart story under test: everything the protocol layer was told
is stable must be reloadable by a *new* instance on the same path (a
fresh process), and nothing that was merely buffered may reappear.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.rt.store import FileBackedStore
from repro.sim.kernel import Simulator
from repro.storage.file_log import FileStableLog, record_from_json, record_to_json
from repro.storage.log_records import (
    LogRecord,
    RecordType,
    prepared_record,
    update_record,
)


@pytest.fixture
def sim() -> Simulator:
    return Simulator(seed=7)


@pytest.fixture
def path(tmp_path):
    return tmp_path / "wal.jsonl"


def rec(txn="t1", type_=RecordType.PREPARED, **payload):
    return LogRecord(type_, txn, dict(payload))


def on_disk_txns(path):
    return [json.loads(line)["txn"] for line in path.read_text().splitlines()]


class TestRecordJson:
    def test_round_trip(self):
        record = LogRecord(
            RecordType.COMMIT, "t9", {"by": "coordinator", "sites": ["a", "b"]}
        )
        record.lsn = 17
        twin = record_from_json(record_to_json(record))
        assert twin.type is RecordType.COMMIT
        assert twin.txn_id == "t9"
        assert twin.payload == record.payload
        assert twin.lsn == 17
        assert twin.forced  # everything on disk got there via force/flush

    def test_malformed_dict_rejected(self):
        with pytest.raises(StorageError, match="malformed log record"):
            record_from_json({"type": "no-such-type", "txn": "t1"})
        with pytest.raises(StorageError, match="malformed log record"):
            record_from_json({"txn": "t1"})


class TestPersistence:
    def test_forced_records_reload_in_new_instance(self, sim, path):
        log = FileStableLog(sim, "s1", path, fsync=False)
        log.force_append(rec("t1", RecordType.PREPARED, coordinator="tm"))
        log.force_append(rec("t1", RecordType.COMMIT))
        log.close()

        reborn = FileStableLog(sim, "s1", path, fsync=False)
        records = reborn.stable_records()
        assert [(r.type, r.txn_id) for r in records] == [
            (RecordType.PREPARED, "t1"),
            (RecordType.COMMIT, "t1"),
        ]
        assert records[0].payload == {"coordinator": "tm"}
        assert all(r.forced for r in records)

    def test_lsns_continue_after_reload(self, sim, path):
        log = FileStableLog(sim, "s1", path, fsync=False)
        last = log.force_append(rec())
        log.close()
        reborn = FileStableLog(sim, "s1", path, fsync=False)
        fresh = reborn.force_append(rec("t2"))
        assert fresh.lsn == last.lsn + 1

    def test_flush_also_persists(self, sim, path):
        log = FileStableLog(sim, "s1", path, fsync=False)
        log.append(rec())
        log.flush()
        log.close()
        assert len(FileStableLog(sim, "s1", path, fsync=False).stable_records()) == 1

    def test_file_is_jsonl(self, sim, path):
        log = FileStableLog(sim, "s1", path, fsync=False)
        log.force_append(rec("t1"))
        log.force_append(rec("t2"))
        lines = path.read_text().splitlines()
        assert [json.loads(line)["txn"] for line in lines] == ["t1", "t2"]

    def test_fsync_mode_writes_identically(self, sim, path):
        log = FileStableLog(sim, "s1", path, fsync=True)
        log.force_append(rec("t1"))
        log.close()
        assert len(FileStableLog(sim, "s1", path).stable_records()) == 1


class TestCrashRecovery:
    def test_crash_loses_buffer_keeps_stable(self, sim, path):
        log = FileStableLog(sim, "s1", path, fsync=False)
        log.force_append(rec("t1"))
        log.append(rec("t2"))  # buffered, never forced
        lost = log.crash()
        assert lost == 1

        reborn = FileStableLog(sim, "s1", path, fsync=False)
        assert [r.txn_id for r in reborn.stable_records()] == ["t1"]

    def test_reopen_same_instance_appends_again(self, sim, path):
        log = FileStableLog(sim, "s1", path, fsync=False)
        log.force_append(rec("t1"))
        log.crash()
        log.reopen()
        log.force_append(rec("t2"))
        log.close()
        reborn = FileStableLog(sim, "s1", path, fsync=False)
        assert [r.txn_id for r in reborn.stable_records()] == ["t1", "t2"]

    def test_closed_log_refuses_persist(self, sim, path):
        log = FileStableLog(sim, "s1", path, fsync=False)
        log.close()
        log._buffer.append(rec())
        with pytest.raises(StorageError, match="closed"):
            log._persist_buffer()


class TestGarbageCollection:
    def test_gc_compacts_the_file(self, sim, path):
        log = FileStableLog(sim, "s1", path, fsync=False)
        log.force_append(rec("t1"))
        log.force_append(rec("t2"))
        collected = log.garbage_collect("t1")
        assert collected == 1
        # Collection edits memory only: until the sweep's compaction
        # the file holds a superset of it.
        assert on_disk_txns(path) == ["t1", "t2"]
        log.compact()
        assert on_disk_txns(path) == ["t2"]
        # The rewrite is atomic: no tmp residue.
        assert not path.with_suffix(path.suffix + ".tmp").exists()

    def test_compact_of_a_fresh_file_does_not_rewrite(self, sim, path):
        log = FileStableLog(sim, "s1", path, fsync=False)
        log.force_append(rec("t1"))
        log.garbage_collect("ghost")
        before = os.stat(path).st_ino
        log.compact()
        assert os.stat(path).st_ino == before

    def test_gc_survives_reload(self, sim, path):
        log = FileStableLog(sim, "s1", path, fsync=False)
        log.force_append(rec("t1"))
        log.force_append(rec("t2", RecordType.COMMIT))
        log.garbage_collect("t1")
        log.compact()
        log.close()
        reborn = FileStableLog(sim, "s1", path, fsync=False)
        assert [r.txn_id for r in reborn.stable_records()] == ["t2"]

    def test_gc_after_close_still_compacts(self, sim, path):
        log = FileStableLog(sim, "s1", path, fsync=False)
        log.force_append(rec("t1"))
        log.force_append(rec("t2"))
        log.close()
        log.garbage_collect("t1")
        log.compact()
        assert on_disk_txns(path) == ["t2"]

    def test_appends_between_collection_and_compaction_survive(self, sim, path):
        log = FileStableLog(sim, "s1", path, fsync=False)
        log.force_append(rec("t1"))
        log.garbage_collect("t1")
        log.force_append(rec("t2"))
        assert on_disk_txns(path) == ["t1", "t2"]
        log.compact()
        log.force_append(rec("t3"))
        assert on_disk_txns(path) == ["t2", "t3"]

    def test_leftover_tmp_file_removed_at_open(self, sim, path):
        log = FileStableLog(sim, "s1", path, fsync=False)
        log.force_append(rec("t1"))
        log.close()
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_bytes(b"half a compaction")
        reborn = FileStableLog(sim, "s1", path, fsync=False)
        assert not tmp.exists()
        assert [r.txn_id for r in reborn.stable_records()] == ["t1"]


class TestMalformedFiles:
    def test_malformed_interior_line_rejected(self, sim, path):
        # A bad line *followed by further records* cannot be a crash
        # artifact: refuse to boot rather than silently drop history.
        path.write_text(
            'not json\n'
            '{"type": "prepared", "txn": "t1", "payload": {}, "lsn": 1}\n'
        )
        with pytest.raises(StorageError, match="malformed JSONL"):
            FileStableLog(sim, "s1", path, fsync=False)

    def test_malformed_record_rejected(self, sim, path):
        path.write_text('{"type": "zzz", "txn": "t1", "payload": {}, "lsn": 1}\n')
        with pytest.raises(StorageError, match="malformed log record"):
            FileStableLog(sim, "s1", path, fsync=False)

    def test_blank_lines_ignored(self, sim, path):
        path.write_text(
            '\n{"type": "prepared", "txn": "t1", "payload": {}, "lsn": 1}\n\n'
        )
        log = FileStableLog(sim, "s1", path, fsync=False)
        assert [r.txn_id for r in log.stable_records()] == ["t1"]


class TestTornTail:
    GOOD = '{"type": "prepared", "txn": "t1", "payload": {}, "lsn": 1}\n'

    def test_torn_final_line_discarded_and_truncated(self, sim, path):
        path.write_text(self.GOOD + '{"type": "com')
        log = FileStableLog(sim, "s1", path, fsync=False)
        assert [r.txn_id for r in log.stable_records()] == ["t1"]
        # The partial bytes are gone from the file, so later appends
        # never concatenate onto them.
        assert path.read_text() == self.GOOD
        torn = sim.trace.first("log", "torn_tail")
        assert torn is not None
        assert torn.details["discarded_bytes"] > 0

    def test_append_after_torn_tail_reloads_cleanly(self, sim, path):
        path.write_text(self.GOOD + "garbage tail")
        log = FileStableLog(sim, "s1", path, fsync=False)
        log.force_append(rec("t2", RecordType.COMMIT))
        log.close()
        reborn = FileStableLog(sim, "s1", path, fsync=False)
        assert [r.txn_id for r in reborn.stable_records()] == ["t1", "t2"]

    def test_entirely_torn_file_loads_empty(self, sim, path):
        path.write_text('{"type": "pre')
        log = FileStableLog(sim, "s1", path, fsync=False)
        assert log.stable_records() == ()
        assert path.read_text() == ""

    def test_lsns_continue_from_last_good_record(self, sim, path):
        path.write_text(self.GOOD + '{"type": "commit", "txn":')
        log = FileStableLog(sim, "s1", path, fsync=False)
        fresh = log.force_append(rec("t2", RecordType.COMMIT))
        assert fresh.lsn == 2


class SimulatedProcessKill(BaseException):
    """Stands in for the process dying at a precise point in the force."""


@settings(max_examples=40, deadline=None)
@given(
    n_stable=st.integers(min_value=0, max_value=2),
    n_updates=st.integers(min_value=1, max_value=5),
    crash_point=st.sampled_from(["before_force", "during_fsync", "after_force"]),
    codec=st.sampled_from(["json", "binary"]),
)
def test_crash_anywhere_in_persist_is_all_or_nothing(
    n_stable, n_updates, crash_point, codec
):
    """Kill the process at any point around a multi-record persist —
    before the force, between the blob write and the fsync, or after
    the force completes — and what a cold restart reloads is the
    pre-batch log plus either the WHOLE batch (a subtransaction's
    update records and its forced PREPARED record) or none of it.
    Never a torn prefix."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wal"
        log = FileStableLog(Simulator(seed=11), "s1", path, fsync=True, codec=codec)
        pre_ids = [f"pre{i}" for i in range(n_stable)]
        for txn in pre_ids:
            log.force_append(rec(txn))
        batch = [
            update_record("t1", f"k{i}", None, i) for i in range(n_updates)
        ] + [prepared_record("t1", "tm")]
        for record in batch[:-1]:
            log.append(record)
        fired = []

        def force_prepared():
            log.force_append_async(batch[-1], lambda: fired.append("t1"))

        if crash_point == "before_force":
            log.crash()  # died with the updates still buffered
        elif crash_point == "during_fsync":
            real_fsync = os.fsync

            def dying_fsync(fd):
                raise SimulatedProcessKill()

            os.fsync = dying_fsync
            try:
                with pytest.raises(SimulatedProcessKill):
                    force_prepared()  # dies between flush and fsync
            finally:
                os.fsync = real_fsync
            log.crash()
        else:
            force_prepared()
            log.crash()

        reborn = FileStableLog(
            Simulator(seed=12), "s1", path, fsync=False, codec=codec
        )
        on_disk = [(r.type, r.txn_id) for r in reborn.stable_records()]
        pre = [(RecordType.PREPARED, txn) for txn in pre_ids]
        whole = pre + [(r.type, r.txn_id) for r in batch]
        # The property: all-or-nothing, at every crash point.
        assert on_disk in (pre, whole), crash_point
        if crash_point == "before_force":
            assert on_disk == pre
        else:
            # In both remaining cases the blob write+flush reached the
            # OS, so the batch is durable; only a completed force
            # acknowledges it.
            assert on_disk == whole
        assert fired == (["t1"] if crash_point == "after_force" else [])


@settings(max_examples=80, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=5),
    collect=st.sets(st.integers(min_value=0, max_value=4), min_size=1),
    kill_at=st.sampled_from(["tmp_fsync", "rename", "after_rename", "dir_fsync"]),
    codec=st.sampled_from(["json", "binary"]),
)
def test_crash_anywhere_in_compaction_is_all_or_nothing(sizes, collect, kill_at, codec):
    """Kill the process at every step inside a sweep's compaction — tmp
    file written but not fsynced, about to rename, renamed, about to
    fsync the directory — and a cold restart reloads the whole
    pre-sweep or the whole post-sweep record set: never part of a
    transaction, and never the tmp file."""
    collect = {i for i in collect if i < len(sizes)}
    assume(collect)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wal"
        log = FileStableLog(Simulator(seed=11), "s1", path, fsync=True, codec=codec)
        # Interleave the transactions' records, as concurrent ones do.
        for round_no in range(max(sizes)):
            for i, size in enumerate(sizes):
                if round_no < size:
                    log.append(rec(f"t{i}", n=round_no))
        log.force()
        pre = [(r.lsn, r.txn_id) for r in log.stable_records()]
        for i in sorted(collect):
            log.garbage_collect(f"t{i}")
        post = [(r.lsn, r.txn_id) for r in log.stable_records()]

        real_fsync, real_replace = os.fsync, os.replace
        fsyncs = []

        def fsync(fd):
            fsyncs.append(fd)
            if (kill_at, len(fsyncs)) in (("tmp_fsync", 1), ("dir_fsync", 2)):
                raise SimulatedProcessKill()
            real_fsync(fd)

        def replace(src, dst):
            if kill_at == "after_rename":
                real_replace(src, dst)
            raise SimulatedProcessKill()

        os.fsync = fsync
        if kill_at in ("rename", "after_rename"):
            os.replace = replace
        try:
            with pytest.raises(SimulatedProcessKill):
                log.compact()
        finally:
            os.fsync, os.replace = real_fsync, real_replace

        renamed = kill_at in ("after_rename", "dir_fsync")
        tmp_file = path.with_suffix(path.suffix + ".tmp")
        assert tmp_file.exists() == (not renamed)
        reborn = FileStableLog(Simulator(seed=12), "s1", path, fsync=False, codec=codec)
        reloaded = [(r.lsn, r.txn_id) for r in reborn.stable_records()]
        assert reloaded == (post if renamed else pre), kill_at
        assert not tmp_file.exists()


class HeldTicks(Simulator):
    """A simulator whose ticks end only when :meth:`end_tick` runs them,
    under :meth:`~repro.rt.runtime.LiveRuntime.after_tick`'s contract:
    an action added twice runs once, first added first, and one added
    while the end runs joins it."""

    def __init__(self) -> None:
        super().__init__(seed=11)
        self.pending: dict = {}

    def after_tick(self, action) -> None:
        self.pending[action] = action

    def end_tick(self) -> None:
        while self.pending:
            self.pending.pop(next(iter(self.pending)))()


@settings(max_examples=400, deadline=None)
@given(
    ops=st.lists(
        st.sampled_from(
            ["append", "force_async", "force", "flush", "tick", "gc", "compact"]
        ),
        max_size=25,
    ),
    codec=st.sampled_from(["json", "binary"]),
)
def test_kill_anywhere_in_an_interleaving_of_forces_ticks_and_compactions(
    ops, codec
):
    """Random interleavings of appends, forces requested for the end of
    the tick, synchronous forces, flushes, ticks, collections and
    compactions, then a process death: a restart reloads exactly the
    records that reached the file and were not compacted away after
    their collection — every written record, acknowledged or not, and
    no record that was only buffered. A completion runs only in a tick,
    after an fsync that followed its request, and sees its record
    stable (unless collected already)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wal"
        sim = HeldTicks()
        log = FileStableLog(sim, "s1", path, fsync=True, codec=codec)
        real_fsync = os.fsync
        fsyncs = []

        def counting_fsync(fd):
            fsyncs.append(fd)
            real_fsync(fd)

        # The model: where each record (one per transaction) is.
        buffered, written, stable = [], [], []
        on_file, collected, acked = [], set(), []
        stale = False
        os.fsync = counting_fsync
        try:
            for index, op in enumerate(ops):
                txn = f"t{index}"
                if op in ("append", "force_async"):
                    record = LogRecord(RecordType.PREPARED, txn, {})
                    buffered.append(txn)
                if op == "append":
                    log.append(record)
                elif op == "force_async":
                    requested_at = len(fsyncs)

                    def done(txn=txn, requested_at=requested_at):
                        assert len(fsyncs) > requested_at
                        assert txn in collected or log.has_record(
                            txn, RecordType.PREPARED
                        )
                        acked.append(txn)

                    log.force_append_async(record, done)
                    on_file += buffered
                    written += buffered
                    buffered = []
                elif op in ("force", "flush"):
                    getattr(log, op)()
                    on_file += buffered
                    stable += written + buffered
                    written, buffered = [], []
                elif op == "tick":
                    sim.end_tick()
                    stable += written
                    written = []
                elif op == "gc" and stable:
                    victim = [t for t in stable if t not in collected][:1]
                    for t in victim:
                        log.garbage_collect(t)
                        collected.add(t)
                        stale = True
                elif op == "compact":
                    log.compact()
                    if stale:
                        stable += written
                        written = []
                        on_file = [t for t in on_file if t not in collected]
                        stale = False
            requested = [op == "force_async" for op in ops].count(True)
            log.crash()
            sim.end_tick()  # a tick left pending fires on the dead log
        finally:
            os.fsync = real_fsync
        reborn = FileStableLog(Simulator(seed=12), "s1", path, fsync=False, codec=codec)
        assert [r.txn_id for r in reborn.stable_records()] == on_file
        assert set(acked) <= set(on_file) | collected
        assert len(acked) <= requested
        # The order of completions is the order of the requests.
        assert acked == sorted(acked, key=lambda t: int(t[1:]))


class TestFileBackedStore:
    def test_checkpoint_persists_and_reloads(self, tmp_path):
        path = tmp_path / "store.json"
        store = FileBackedStore(path, fsync=False)
        store.checkpoint({"x": "t1", "y": "t2"})
        reborn = FileBackedStore(path, fsync=False)
        assert reborn.snapshot() == {"x": "t1", "y": "t2"}

    def test_uncheckpointed_writes_die_with_process(self, tmp_path):
        path = tmp_path / "store.json"
        store = FileBackedStore(path, fsync=False)
        store.checkpoint({"x": "t1"})
        store.write("y", "t2")  # volatile working state only
        reborn = FileBackedStore(path, fsync=False)
        assert reborn.snapshot() == {"x": "t1"}

    def test_checkpoint_is_atomic(self, tmp_path):
        path = tmp_path / "store.json"
        store = FileBackedStore(path, fsync=True)
        store.checkpoint({"x": "t1"})
        assert not path.with_suffix(path.suffix + ".tmp").exists()
        assert json.loads(path.read_text()) == {"x": "t1"}

    def test_malformed_snapshot_rejected(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text("{broken")
        with pytest.raises(StorageError, match="cannot load store snapshot"):
            FileBackedStore(path)

    def test_non_object_snapshot_rejected(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text("[1, 2]")
        with pytest.raises(StorageError, match="not a JSON object"):
            FileBackedStore(path)

    def test_missing_file_starts_empty(self, tmp_path):
        store = FileBackedStore(tmp_path / "fresh" / "store.json", fsync=False)
        assert store.snapshot() == {}


# -- the binary WAL codec ----------------------------------------------------

from repro.storage.file_log import (  # noqa: E402  (grouped with binary tests)
    WAL_CODECS,
    WAL_MAGIC,
    encode_records,
    load_wal_records,
    sniff_wal_codec,
)


def forced(txn, type_=RecordType.PREPARED, lsn=None, **payload):
    record = LogRecord(type_, txn, dict(payload))
    if lsn is not None:
        record.lsn = lsn
    record.forced = True
    return record


class TestEncodeRecords:
    def test_unknown_codec_rejected(self):
        with pytest.raises(StorageError, match="unknown WAL codec"):
            encode_records([rec()], codec="msgpack")
        assert set(WAL_CODECS) == {"json", "binary"}

    def test_json_blob_is_jsonl(self):
        blob = encode_records([forced("t1", lsn=1), forced("t2", lsn=2)], "json")
        assert [json.loads(line)["txn"] for line in blob.splitlines()] == [
            "t1",
            "t2",
        ]

    def test_binary_blob_never_includes_magic(self):
        blob = encode_records([forced("t1", lsn=1)], "binary")
        assert not blob.startswith(WAL_MAGIC)

    def test_unencodable_payload_raises(self):
        bad = LogRecord(RecordType.PREPARED, "t1", {"keys": {1, 2}})
        with pytest.raises(StorageError, match="not binary-encodable"):
            encode_records([bad], "binary")

    def test_sniff(self):
        assert sniff_wal_codec(WAL_MAGIC + b"anything") == "binary"
        assert sniff_wal_codec(b'{"type": ...}') == "json"
        assert sniff_wal_codec(b"") == "json"


class TestBinaryPersistence:
    def test_forced_records_reload_in_new_instance(self, sim, path):
        log = FileStableLog(sim, "s1", path, fsync=False, codec="binary")
        log.force_append(rec("t1", RecordType.PREPARED, coordinator="tm"))
        log.force_append(rec("t1", RecordType.COMMIT))
        log.close()

        reborn = FileStableLog(sim, "s1", path, fsync=False, codec="binary")
        records = reborn.stable_records()
        assert [(r.type, r.txn_id) for r in records] == [
            (RecordType.PREPARED, "t1"),
            (RecordType.COMMIT, "t1"),
        ]
        assert records[0].payload == {"coordinator": "tm"}
        assert all(r.forced for r in records)
        assert path.read_bytes().startswith(WAL_MAGIC)

    def test_lsns_continue_after_reload(self, sim, path):
        log = FileStableLog(sim, "s1", path, fsync=False, codec="binary")
        last = log.force_append(rec())
        log.close()
        reborn = FileStableLog(sim, "s1", path, fsync=False, codec="binary")
        assert reborn.force_append(rec("t2")).lsn == last.lsn + 1

    def test_unknown_codec_rejected(self, sim, path):
        with pytest.raises(StorageError, match="unknown WAL codec"):
            FileStableLog(sim, "s1", path, codec="msgpack")

    def test_binary_smaller_than_json(self, sim, tmp_path):
        records = [
            rec(f"t{i}", RecordType.PREPARED, coordinator="tm", keys=["a", "b"])
            for i in range(8)
        ]
        for codec in ("json", "binary"):
            log = FileStableLog(
                sim, "s1", tmp_path / f"wal-{codec}", fsync=False, codec=codec
            )
            for record in records:
                log.force_append(
                    LogRecord(record.type, record.txn_id, dict(record.payload))
                )
            log.close()
        json_size = (tmp_path / "wal-json").stat().st_size
        binary_size = (tmp_path / "wal-binary").stat().st_size
        assert binary_size < json_size


class TestWalCodecMismatch:
    def test_json_site_refuses_binary_file(self, sim, path):
        log = FileStableLog(sim, "s1", path, fsync=False, codec="binary")
        log.force_append(rec("t1"))
        log.close()
        with pytest.raises(StorageError, match="written by the binary codec"):
            FileStableLog(sim, "s1", path, fsync=False, codec="json")

    def test_binary_site_refuses_json_file(self, sim, path):
        log = FileStableLog(sim, "s1", path, fsync=False, codec="json")
        log.force_append(rec("t1"))
        log.close()
        with pytest.raises(StorageError, match="written by the json codec"):
            FileStableLog(sim, "s1", path, fsync=False, codec="binary")

    def test_binary_site_accepts_empty_file(self, sim, path):
        path.write_bytes(b"")
        log = FileStableLog(sim, "s1", path, fsync=False, codec="binary")
        log.force_append(rec("t1"))
        log.close()
        assert path.read_bytes().startswith(WAL_MAGIC)

    def test_torn_magic_loads_empty(self, sim, path):
        # A crash during the very first blob can tear mid-magic:
        # nothing was ever stable, so boot empty rather than refuse.
        path.write_bytes(WAL_MAGIC[:3])
        log = FileStableLog(sim, "s1", path, fsync=False, codec="binary")
        assert log.stable_records() == ()


class TestBinaryTornTail:
    def write_wal(self, path, records, tail=b""):
        path.write_bytes(WAL_MAGIC + encode_records(records, "binary") + tail)

    def test_truncated_final_frame_discarded_and_truncated(self, sim, path):
        good = [forced("t1", lsn=1)]
        torn_frame = encode_records([forced("t2", RecordType.COMMIT, lsn=2)], "binary")
        self.write_wal(path, good, tail=torn_frame[:-3])
        log = FileStableLog(sim, "s1", path, fsync=False, codec="binary")
        assert [r.txn_id for r in log.stable_records()] == ["t1"]
        assert path.read_bytes() == WAL_MAGIC + encode_records(good, "binary")
        torn = sim.trace.first("log", "torn_tail")
        assert torn is not None
        assert torn.details["discarded_bytes"] > 0

    def test_corrupt_final_crc_discarded(self, sim, path):
        good = [forced("t1", lsn=1)]
        frame = bytearray(
            encode_records([forced("t2", RecordType.COMMIT, lsn=2)], "binary")
        )
        frame[-1] ^= 0xFF  # body flips, CRC doesn't
        self.write_wal(path, good, tail=bytes(frame))
        log = FileStableLog(sim, "s1", path, fsync=False, codec="binary")
        assert [r.txn_id for r in log.stable_records()] == ["t1"]

    def test_interior_corruption_raises(self, sim, path):
        blob = bytearray(
            encode_records([forced("t1", lsn=1), forced("t2", lsn=2)], "binary")
        )
        blob[10] ^= 0xFF  # inside the first frame's body
        path.write_bytes(WAL_MAGIC + bytes(blob))
        with pytest.raises(StorageError, match="corruption, not a crash tail"):
            FileStableLog(sim, "s1", path, fsync=False, codec="binary")

    def test_append_after_torn_tail_reloads_cleanly(self, sim, path):
        good = [forced("t1", lsn=1)]
        self.write_wal(path, good, tail=b"\x00\x00")
        log = FileStableLog(sim, "s1", path, fsync=False, codec="binary")
        log.force_append(rec("t2", RecordType.COMMIT))
        log.close()
        reborn = FileStableLog(sim, "s1", path, fsync=False, codec="binary")
        assert [r.txn_id for r in reborn.stable_records()] == ["t1", "t2"]

    @given(
        n_records=st.integers(min_value=1, max_value=5),
        cut=st.integers(min_value=0, max_value=400),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_truncation_point_recovers_the_good_prefix(self, n_records, cut):
        """The torn-tail property: truncating a binary WAL at ANY byte
        offset must recover exactly the records whose frames end at or
        before the cut — never a partial record, never a refusal."""
        records = [
            forced(f"t{i}", RecordType.PREPARED, lsn=i + 1, n=i)
            for i in range(n_records)
        ]
        # Frame boundaries: prefix sums of each record's encoded size.
        boundaries = [len(WAL_MAGIC)]
        for record in records:
            boundaries.append(
                boundaries[-1] + len(encode_records([record], "binary"))
            )
        full = WAL_MAGIC + encode_records(records, "binary")
        cut = min(cut, len(full))
        with tempfile.TemporaryDirectory() as tmp:
            wal = Path(tmp) / "wal.bin"
            wal.write_bytes(full[:cut])
            sim = Simulator(seed=7)
            log = FileStableLog(sim, "s1", wal, fsync=False, codec="binary")
            survivors = sum(1 for end in boundaries[1:] if end <= cut)
            assert [r.txn_id for r in log.stable_records()] == [
                f"t{i}" for i in range(survivors)
            ]
            log.close()


class TestBinaryGarbageCollection:
    def test_gc_compacts_to_one_shared_encoding(self, sim, path):
        log = FileStableLog(sim, "s1", path, fsync=False, codec="binary")
        log.force_append(rec("t1"))
        log.force_append(rec("t2"))
        assert log.garbage_collect("t1") == 1
        log.compact()
        # The compacted file is exactly the shared helper's encoding of
        # the survivors — persist and compaction can never drift.
        assert path.read_bytes() == WAL_MAGIC + encode_records(
            log.stable_records(), "binary"
        )
        assert not path.with_suffix(path.suffix + ".tmp").exists()
        reborn = FileStableLog(sim, "s1", path, fsync=False, codec="binary")
        assert [r.txn_id for r in reborn.stable_records()] == ["t2"]

    def test_json_gc_also_uses_shared_encoding(self, sim, path):
        log = FileStableLog(sim, "s1", path, fsync=False, codec="json")
        log.force_append(rec("t1"))
        log.force_append(rec("t2"))
        log.garbage_collect("t1")
        log.compact()
        assert path.read_bytes() == encode_records(log.stable_records(), "json")


class TestLoadWalRecords:
    def test_sniffs_codec(self, sim, tmp_path):
        for codec in ("json", "binary"):
            wal = tmp_path / f"wal-{codec}"
            log = FileStableLog(sim, "s1", wal, fsync=False, codec=codec)
            log.force_append(rec("t1"))
            log.close()
            assert [r.txn_id for r in load_wal_records(wal)] == ["t1"]

    def test_tolerates_torn_tail_without_truncating(self, sim, path):
        log = FileStableLog(sim, "s1", path, fsync=False, codec="binary")
        log.force_append(rec("t1"))
        log.close()
        raw = path.read_bytes()
        path.write_bytes(raw + b"\x01\x02")
        assert [r.txn_id for r in load_wal_records(path)] == ["t1"]
        # Read-only: the supervisor's view must not rewrite a dead
        # child's WAL behind its back.
        assert path.read_bytes() == raw + b"\x01\x02"

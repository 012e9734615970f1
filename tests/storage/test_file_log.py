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
from repro.storage.file_log import (
    FileStableLog,
    GroupCommitFileLog,
    record_from_json,
    record_to_json,
)
from repro.storage.group_commit import GroupCommitConfig
from repro.storage.log_records import LogRecord, RecordType


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


class TestGroupCommitFileLog:
    def make(self, sim, path, **kw):
        config = GroupCommitConfig(max_delay=1.0, max_batch=8)
        return GroupCommitFileLog(sim, "s1", path, config, **kw)

    def test_window_coalesces_into_one_persist(self, sim, path):
        log = self.make(sim, path, fsync=False)
        order = []
        for i in range(3):
            log.force_append_async(rec(f"t{i}"), lambda i=i: order.append(i))
        assert path.read_text() == ""  # nothing on disk until the window closes
        sim.run()
        assert order == [0, 1, 2]
        assert log.force_count == 1
        assert log.force_requests == 3
        log.close()
        reborn = FileStableLog(sim, "s1", path, fsync=False)
        assert [r.txn_id for r in reborn.stable_records()] == ["t0", "t1", "t2"]

    def test_crash_mid_window_leaves_disk_at_pre_batch_state(self, sim, path):
        log = self.make(sim, path, fsync=False)
        log.force_append(rec("t0"))
        for i in range(3):
            log.force_append_async(rec(f"b{i}"))
        log.crash()
        reborn = FileStableLog(sim, "s1", path, fsync=False)
        assert [r.txn_id for r in reborn.stable_records()] == ["t0"]

    def test_batch_bound_forces_early(self, sim, path):
        config = GroupCommitConfig(max_delay=50.0, max_batch=2)
        log = GroupCommitFileLog(sim, "s1", path, config, fsync=False)
        log.force_append_async(rec("t1"))
        log.force_append_async(rec("t2"))
        sim.run()
        assert sim.now == 0.0
        assert log.force_count == 1
        assert len(path.read_text().splitlines()) == 2

    def test_synchronous_force_drains_the_open_window(self, sim, path):
        log = self.make(sim, path, fsync=False)
        fired = []
        log.force_append_async(rec("t1"), lambda: fired.append("t1"))
        log.force_append(rec("t2", RecordType.COMMIT))
        assert fired == ["t1"]
        assert log.force_count == 1
        assert len(path.read_text().splitlines()) == 2

    def test_repr_mentions_amortization_counters(self, sim, path):
        log = self.make(sim, path, fsync=False)
        log.force_append_async(rec())
        assert "requests=1" in repr(log)
        assert "forces=0" in repr(log)


class SimulatedProcessKill(BaseException):
    """Stands in for the process dying at a precise point in the force."""


@settings(max_examples=40, deadline=None)
@given(
    n_stable=st.integers(min_value=0, max_value=2),
    n_batch=st.integers(min_value=1, max_value=5),
    crash_point=st.sampled_from(["mid_window", "during_fsync", "after_close"]),
)
def test_crash_anywhere_in_window_is_all_or_nothing(n_stable, n_batch, crash_point):
    """Satellite property: kill the process at any point around a live
    group-commit window — before the flusher runs, between the buffer
    write and the fsync, or after the force completes — and what a cold
    restart reloads is the pre-batch log plus either the WHOLE batch or
    none of it. Never a torn prefix."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wal.jsonl"
        sim = Simulator(seed=11)
        log = GroupCommitFileLog(
            sim, "s1", path, GroupCommitConfig(max_delay=1.0, max_batch=100),
            fsync=True,
        )
        pre_ids = [f"pre{i}" for i in range(n_stable)]
        for txn in pre_ids:
            log.force_append(rec(txn))
        batch_ids = [f"batch{i}" for i in range(n_batch)]
        fired = []
        for txn in batch_ids:
            log.force_append_async(rec(txn), lambda t=txn: fired.append(t))

        if crash_point == "mid_window":
            log.crash()  # died before the window-close flusher ran
        elif crash_point == "during_fsync":
            real_fsync = os.fsync

            def dying_fsync(fd):
                raise SimulatedProcessKill()

            os.fsync = dying_fsync
            try:
                with pytest.raises(SimulatedProcessKill):
                    sim.run()  # flusher fires; dies between flush and fsync
            finally:
                os.fsync = real_fsync
            log.crash()
        else:
            sim.run()  # window closes cleanly, then the process dies
            log.crash()

        reborn = FileStableLog(Simulator(seed=12), "s1", path, fsync=False)
        on_disk = [r.txn_id for r in reborn.stable_records()]
        # The property: all-or-nothing, at every crash point.
        assert on_disk in (pre_ids, pre_ids + batch_ids), crash_point
        if crash_point == "mid_window":
            assert on_disk == pre_ids
            assert fired == []
        elif crash_point == "during_fsync":
            # The blob write+flush reached the OS before the kill, so the
            # batch is durable — but unacknowledged: no callback fired.
            assert on_disk == pre_ids + batch_ids
            assert fired == []
        else:
            assert on_disk == pre_ids + batch_ids
            assert fired == batch_ids


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


class TestBinaryGroupCommit:
    def test_window_coalesces_into_one_binary_blob(self, sim, path):
        config = GroupCommitConfig(max_delay=1.0, max_batch=8)
        log = GroupCommitFileLog(
            sim, "s1", path, config, fsync=False, codec="binary"
        )
        for i in range(3):
            log.force_append_async(rec(f"t{i}"))
        assert path.read_bytes() == b""  # nothing until the window closes
        sim.run()
        assert log.force_count == 1
        assert log.force_requests == 3
        log.close()
        reborn = FileStableLog(sim, "s1", path, fsync=False, codec="binary")
        assert [r.txn_id for r in reborn.stable_records()] == ["t0", "t1", "t2"]


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

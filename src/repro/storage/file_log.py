"""File-backed stable log: fsync'd append-only WAL (JSONL or binary).

:class:`FileStableLog` gives :class:`~repro.storage.stable_log.StableLog`
a real durable medium so a *live* site (``repro.rt``) survives process
restarts: every force writes the buffered records as one blob and
``fsync``\\ s the file before the in-memory stable transition happens —
the on-disk suffix is always at least as fresh as what the protocol
layer believes is stable. A new instance opened on the same path
reloads the stable records, which is exactly the view a restarted
process gets.

Forces of one tick share one fsync. :meth:`FileStableLog.force_append_async`
writes its record to the file at once and adds the log's tick to the
runtime's end of the event-loop iteration (``after_tick``). The tick
fsyncs once for every force requested since the last one, then records
their ``log.force`` events and runs their completions (votes, acks,
PREPAREs, decision messages), in request order; what they send leaves
in the same end of tick. No window, no knob: a lone force still costs
one fsync and waits for nothing but it. The synchronous :meth:`~FileStableLog.force`
and :meth:`~FileStableLog.flush` write and sync at once, taking any
record a pending tick wrote along.

The simulator keeps using the in-memory base class by default. Its
``after_tick`` runs the tick at once, so under the simulator this
subclass changes *where* stable records live, never *when* they become
stable (the unit tests rely on it): byte-identical protocol behaviour.

Two on-disk encodings sit behind one seam (``codec=``):

* ``json`` — the original JSONL: one ``record_to_json`` dict per line.
* ``binary`` — a :data:`WAL_MAGIC` file header, then one frame per
  record: a ``>II`` header (body length, CRC-32 of the body) followed
  by the packed ``[type, txn, lsn, payload]`` tuple
  (:mod:`repro.packing`). The magic's first byte is invalid UTF-8, so
  a json-configured site opening a binary WAL (or vice versa) fails
  loudly at load time instead of misparsing records.

Garbage collection removes records from memory and marks the file
stale; :meth:`FileStableLog.compact`, called once at the end of a GC
sweep, rewrites a stale file atomically (tmp + rename) from the
surviving records, encoded by the same :func:`encode_records` helper as
the persist path and written as a single blob. Until then the file
holds a superset of memory, so a process that dies in between restarts
as one that died before the sweep.

Crash-tail discipline: each persist writes its whole batch as ONE blob
(one buffered write, one flush; the fsync follows, now or at the end of
the tick), so under process-crash semantics — the failure model of the
live runtime, where whatever reached the OS page cache survives the
process — a batch is on disk either whole or not at all. The same
semantics make the write-to-fsync window of a tick invisible to a
process death: a written record survives it, and nothing was
acknowledged on it before the fsync. A *torn tail* (a trailing JSONL
line that does not parse, or a trailing binary frame that is
incomplete or fails its CRC — the residue of a device-level crash
mid-write) is discarded and truncated away at load time instead of
refusing to boot; a bad record anywhere *before* the tail still means
corruption and raises.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from repro.errors import StorageError
from repro.packing import PackError, pack_value, unpack_value
from repro.storage.log_records import LogRecord, RecordType
from repro.storage.stable_log import StableLog

#: The WAL codec vocabulary (mirrors the wire's ``--codec`` values).
WAL_CODECS = ("json", "binary")

#: File header of a binary WAL. The leading byte is invalid UTF-8 (and
#: invalid JSON), so codec/file mismatches are detected, not misparsed.
WAL_MAGIC = b"\xb2RWAL1\r\n"

#: Per-record binary frame header: body length + CRC-32 of the body.
_REC_HEADER = struct.Struct(">II")


def record_to_json(record: LogRecord) -> dict[str, Any]:
    """The JSON form of one log record (payload must be JSON-safe)."""
    return {
        "type": record.type.value,
        "txn": record.txn_id,
        "payload": record.payload,
        "lsn": record.lsn,
    }


def record_from_json(data: dict[str, Any]) -> LogRecord:
    """Rebuild a stable record from its JSON form.

    Raises:
        StorageError: on a malformed record dict.
    """
    try:
        record = LogRecord(
            type=RecordType(data["type"]),
            txn_id=data["txn"],
            payload=dict(data["payload"]),
            lsn=data["lsn"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(f"malformed log record {data!r}: {exc}")
    # Everything on disk got there through a force or flush.
    record.forced = True
    return record


# -- record batch encoding (shared by persist and compaction) ----------------


def encode_records(records: Sequence[LogRecord], codec: str = "json") -> bytes:
    """Encode a batch of records as one appendable blob.

    This is THE encode path: both the persist blob and
    the GC compaction rewrite go through it, so the two can never
    drift. The blob never includes the binary :data:`WAL_MAGIC` — the
    caller owns the file header.
    """
    if codec == "json":
        return "".join(
            json.dumps(record_to_json(record)) + "\n" for record in records
        ).encode("utf-8")
    if codec == "binary":
        parts = []
        for record in records:
            try:
                body = pack_value(
                    [record.type.value, record.txn_id, record.lsn, record.payload]
                )
            except PackError as exc:
                raise StorageError(
                    f"record of {record.txn_id!r} is not binary-encodable: {exc}"
                )
            parts.append(_REC_HEADER.pack(len(body), zlib.crc32(body)))
            parts.append(body)
        return b"".join(parts)
    raise StorageError(f"unknown WAL codec {codec!r} (expected one of {WAL_CODECS})")


def _record_from_binary(value: Any) -> LogRecord:
    if not isinstance(value, list) or len(value) != 4:
        raise StorageError(f"malformed log record {value!r}: not a 4-tuple")
    type_value, txn_id, lsn, payload = value
    if not isinstance(payload, dict):
        raise StorageError(f"malformed log record {value!r}: payload not a dict")
    return record_from_json(
        {"type": type_value, "txn": txn_id, "payload": payload, "lsn": lsn}
    )


def sniff_wal_codec(raw: bytes) -> str:
    """Which codec wrote these WAL bytes (binary is magic-marked)."""
    return "binary" if raw[: len(WAL_MAGIC)] == WAL_MAGIC else "json"


def decode_wal(
    raw: bytes, codec: str, origin: str = "WAL"
) -> tuple[list[LogRecord], int, Optional[tuple[str, int]]]:
    """Decode a whole WAL image.

    Returns:
        ``(records, good_end, torn)`` — the records up to the last
        clean boundary, the byte offset of that boundary (truncate the
        file there to drop the tail), and ``None`` or a
        ``(description, position)`` pair describing the torn tail.

    Raises:
        StorageError: on a codec/file mismatch, or corruption *before*
            the tail (which cannot be a crash artifact of whole-blob
            appends and must not be silently dropped).
    """
    sniffed = sniff_wal_codec(raw)
    if codec == "json":
        if sniffed == "binary":
            raise StorageError(
                f"{origin} was written by the binary codec but this site is "
                f"configured codec='json'; restart with --codec binary"
            )
        return _decode_jsonl(raw, origin)
    if codec != "binary":
        raise StorageError(
            f"unknown WAL codec {codec!r} (expected one of {WAL_CODECS})"
        )
    if sniffed == "json":
        if not raw:
            return [], 0, None
        if WAL_MAGIC.startswith(raw):
            # A crash tore the very first blob mid-magic: nothing was
            # ever stable, truncate to empty.
            return [], 0, ("torn file header", 0)
        raise StorageError(
            f"{origin} was written by the json codec but this site is "
            f"configured codec='binary'; restart with --codec json"
        )
    return _decode_binary(raw, origin)


def _decode_jsonl(
    raw: bytes, origin: str
) -> tuple[list[LogRecord], int, Optional[tuple[str, int]]]:
    records: list[LogRecord] = []
    offset = 0
    good_end = 0
    torn: Optional[tuple[int, str]] = None
    for line_no, line in enumerate(raw.split(b"\n"), start=1):
        start, offset = offset, offset + len(line) + 1
        text = line.strip()
        if not text:
            continue
        if torn is not None:
            raise StorageError(
                f"{origin}:{torn[0]}: malformed JSONL: {torn[1]}"
            )
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            torn = (line_no, str(exc))
            continue
        records.append(record_from_json(data))
        good_end = min(start + len(line) + 1, len(raw))
    if torn is not None:
        return records, good_end, (f"line {torn[0]}: {torn[1]}", torn[0])
    return records, len(raw), None


def _decode_binary(
    raw: bytes, origin: str
) -> tuple[list[LogRecord], int, Optional[tuple[str, int]]]:
    records: list[LogRecord] = []
    offset = len(WAL_MAGIC)
    good_end = offset
    frame_no = 0
    while offset < len(raw):
        frame_no += 1
        header_end = offset + _REC_HEADER.size
        if header_end > len(raw):
            return records, good_end, (f"frame {frame_no}: truncated header", frame_no)
        length, crc = _REC_HEADER.unpack_from(raw, offset)
        body_end = header_end + length
        if body_end > len(raw):
            return records, good_end, (f"frame {frame_no}: truncated body", frame_no)
        body = raw[header_end:body_end]
        if zlib.crc32(body) != crc:
            if body_end == len(raw):
                return records, good_end, (f"frame {frame_no}: CRC mismatch", frame_no)
            raise StorageError(
                f"{origin}: frame {frame_no} fails its CRC with further "
                f"records after it — corruption, not a crash tail"
            )
        try:
            value = unpack_value(body)
        except PackError as exc:
            if body_end == len(raw):
                return records, good_end, (f"frame {frame_no}: {exc}", frame_no)
            raise StorageError(f"{origin}: frame {frame_no} malformed: {exc}")
        records.append(_record_from_binary(value))
        offset = good_end = body_end
    return records, good_end, None


def load_wal_records(path: Path | str) -> list[LogRecord]:
    """Read a WAL file without opening a log on it (codec-sniffing).

    Tolerates a torn tail (the partial record is skipped, the file is
    left untouched); raises :class:`StorageError` on interior
    corruption. Used by the multiprocess supervisor to reconstruct a
    dead child's stable view from disk.
    """
    path = Path(path)
    raw = path.read_bytes()
    records, _, _ = decode_wal(raw, sniff_wal_codec(raw), origin=str(path))
    return records


class FileStableLog(StableLog):
    """A stable log whose stable portion is an fsync'd WAL file.

    A forced record passes through three states: buffered (in memory,
    lost by a crash), written (in the file, not yet fsynced: survives a
    process death, counted in neither :attr:`buffered_record_count` nor
    :attr:`stable_record_count`) and stable. It is written when its
    force is requested and stable after the fsync of that tick, and
    only then do :meth:`force_append_async` completions run.

    Args:
        sim: simulator or live runtime (anything with ``record``).
        site_id: owning site.
        path: the WAL file; created (with parents) if absent, loaded
            if present — loading *is* the restart story.
        fsync: whether to ``os.fsync`` in each tick, force, flush and
            compaction. On by default; tests may disable it for speed.
            Off skips the call and nothing else: forces still complete
            at the end of the tick.
        codec: on-disk encoding, ``"json"`` (JSONL) or ``"binary"``.
            Opening a file written by the other codec raises.
    """

    def __init__(
        self,
        sim,
        site_id: str,
        path: Path | str,
        fsync: bool = True,
        codec: str = "json",
    ) -> None:
        super().__init__(sim, site_id)
        if codec not in WAL_CODECS:
            raise StorageError(
                f"unknown WAL codec {codec!r} (expected one of {WAL_CODECS})"
            )
        self._path = Path(path)
        self._tmp_path = self._path.with_suffix(self._path.suffix + ".tmp")
        self._fsync = fsync
        self._codec = codec
        # Records were collected from memory since the file was written.
        self._stale = False
        # Records in the file whose fsync is still to come.
        self._written: list[LogRecord] = []
        # Forces requested since the last tick: (records the request
        # wrote, its completion).
        self._forces: list[tuple[int, Optional[Callable[[], None]]]] = []
        self._path.parent.mkdir(parents=True, exist_ok=True)
        # A crash inside compaction, before the rename, leaves this.
        self._tmp_path.unlink(missing_ok=True)
        if self._path.exists():
            self._load()
        self._fh: Optional[Any] = open(self._path, "ab")

    @property
    def path(self) -> Path:
        return self._path

    @property
    def codec(self) -> str:
        return self._codec

    def _load(self) -> None:
        """Install the on-disk records as the stable portion.

        A torn tail — the residue of a crash mid-write — is discarded
        (and truncated from the file, so later appends never
        concatenate onto partial bytes). Corruption *before* the tail
        cannot be a crash artifact and still raises.
        """
        raw = self._path.read_bytes()
        records, good_end, torn = decode_wal(
            raw, self._codec, origin=str(self._path)
        )
        self._stabilise(records)
        max_lsn = max(
            (record.lsn for record in records if record.lsn is not None), default=0
        )
        if torn is not None:
            description, position = torn
            with open(self._path, "r+b") as fh:
                fh.truncate(good_end)
                fh.flush()
                if self._fsync:
                    os.fsync(fh.fileno())
            self._sim.record(
                self._site_id,
                "log",
                "torn_tail",
                line=position,
                discarded_bytes=len(raw) - good_end,
            )
        self._next_lsn = max_lsn + 1

    # -- durability ----------------------------------------------------------

    def _persist_buffer(self) -> int:
        """Write the volatile buffer to the file; no fsync.

        The whole buffer goes down as one blob — one buffered write,
        one flush — so a process crash anywhere inside this method
        leaves the batch on disk either whole (the write reached the
        OS) or absent, never a torn prefix of complete records. The
        records are then *written*: :meth:`_sync` makes them stable.

        Returns:
            The number of records written.
        """
        if not self._buffer:
            return 0
        if self._fh is None:
            raise StorageError(f"log file of {self._site_id!r} is closed")
        blob = encode_records(self._buffer, self._codec)
        if self._codec == "binary" and self._fh.tell() == 0:
            blob = WAL_MAGIC + blob
        self._fh.write(blob)
        self._fh.flush()
        written = len(self._buffer)
        self._written.extend(self._buffer)
        self._buffer.clear()
        return written

    def _sync(self) -> None:
        """One fsync for every written record; they become stable."""
        if not self._written:
            return
        if self._fsync:
            os.fsync(self._fh.fileno())
        self._stabilise(self._written)
        self._written.clear()

    def force(self) -> None:
        """The synchronous force: write the buffer and fsync now, with
        whatever a pending tick has written."""
        self._require_open()
        flushed = self._persist_buffer()
        self._sync()
        self._count_force(flushed)

    def force_append_async(
        self,
        record: LogRecord,
        on_stable: Optional[Callable[[], None]] = None,
    ) -> LogRecord:
        """Append ``record``, write the buffer to the file now, and
        fsync at the end of the current tick.

        Every force requested in one tick shares that fsync; its
        ``log.force`` event, its ``force_count`` and then ``on_stable``
        follow the fsync, in request order.
        """
        self.append(record)
        self._forces.append((self._persist_buffer(), on_stable))
        self._sim.after_tick(self._tick)
        return record

    def _tick(self) -> None:
        """One fsync for the forces requested since the last tick, then
        their ``log.force`` events, then their completions. A crash or
        close in between dropped them."""
        forces, self._forces = self._forces, []
        if not forces:
            return
        self._sync()
        for flushed, _ in forces:
            self._count_force(flushed)
        for _, on_stable in forces:
            if on_stable is not None:
                on_stable()

    def flush(self) -> int:
        """Background flush: one write and one fsync for the buffered
        records together with those a pending tick has written."""
        self._require_open()
        flushed = self._persist_buffer()
        self._sync()
        self._count_flush(flushed)
        return flushed

    # -- crash / recovery -----------------------------------------------------

    def crash(self) -> int:
        """Process death: the buffer (never written) is lost, and so
        are the completions of a pending tick; the file handle closes.
        The file is untouched — written records survive in it, so they
        count as stable here too: that is the state a restarted process
        will reload."""
        self._stabilise(self._written)
        self._written.clear()
        self._forces.clear()
        lost = super().crash()
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        return lost

    def reopen(self) -> None:
        super().reopen()
        self._fh = open(self._path, "ab")

    # -- garbage collection ----------------------------------------------------

    def garbage_collect(self, txn_id: str) -> int:
        collected = super().garbage_collect(txn_id)
        if collected:
            self._stale = True
        return collected

    def compact(self) -> None:
        """Atomically rewrite a stale file from the surviving stable records.

        The surviving batch is serialized by the same
        :func:`encode_records` helper as the persist path and written
        as ONE blob — a compaction is one buffered write + one fsync
        regardless of how many records survive or how many transactions
        were collected since the last one. The rename makes it
        all-or-nothing: a crash anywhere inside leaves the whole old
        or the whole new file.
        """
        if not self._stale:
            return
        # The rewrite is made from the stable records: sync the written
        # ones first or it would drop them.
        self._sync()
        if self._fh is not None:
            self._fh.close()
        blob = encode_records(self.stable_records(), self._codec)
        if self._codec == "binary":
            blob = WAL_MAGIC + blob
        with open(self._tmp_path, "wb") as tmp:
            tmp.write(blob)
            tmp.flush()
            if self._fsync:
                os.fsync(tmp.fileno())
        os.replace(self._tmp_path, self._path)
        if self._fsync:
            # Make the rename itself durable.
            dir_fd = os.open(self._path.parent, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        if self._fh is not None:
            self._fh = open(self._path, "ab")
        self._stale = False

    def close(self) -> None:
        """Release the file handle (end of process, not a crash).
        Written records are synced first; the completions of a pending
        tick are dropped, and the tick leaves the closed file alone."""
        self._forces.clear()
        if self._fh is not None:
            self._sync()
            self._fh.close()
            self._fh = None

    def __repr__(self) -> str:
        return (
            f"FileStableLog(site={self._site_id!r}, path={str(self._path)!r}, "
            f"stable={self.stable_record_count}, written={len(self._written)}, "
            f"buffered={len(self._buffer)}, codec={self._codec!r})"
        )

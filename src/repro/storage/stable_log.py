"""Write-ahead stable log with force semantics and crash truncation.

A :class:`StableLog` models one site's log device:

* ``append`` puts a record in a *volatile* buffer;
* ``force`` flushes the buffer to the stable portion and blocks the
  caller (conceptually) until it is durable — we count forces because
  they are the dominant cost the presumed protocols compete on;
* ``crash`` discards the volatile buffer: non-forced records are lost,
  exactly the window the paper's adversarial scenarios exploit;
* ``garbage_collect`` logically removes a terminated transaction's
  records once an END record (or a protocol presumption) covers them.

Stable records are indexed by transaction, so reading or collecting
one transaction's records costs the same however many the log holds.

The log also records ``log.append`` / ``log.force`` trace events so the
figure-flow experiments can regenerate the paper's diagrams.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterable, Optional

from repro.errors import LogClosedError, StorageError
from repro.sim.kernel import Simulator
from repro.storage.log_records import LogRecord, RecordType


class StableLog:
    """One site's write-ahead log."""

    def __init__(self, sim: Simulator, site_id: str) -> None:
        self._sim = sim
        self._site_id = site_id
        # Stable records in LSN (insertion) order, keyed by identity so
        # one record is removable without scanning, and the same records
        # per transaction. Both hold exactly the uncollected records.
        self._stable: dict[int, LogRecord] = {}
        self._by_txn: defaultdict[str, list[LogRecord]] = defaultdict(list)
        self._buffer: list[LogRecord] = []
        self._next_lsn = 1
        self._open = True
        # Cost counters.
        self.force_count = 0
        self.append_count = 0
        self.flush_count = 0
        self.gc_record_count = 0

    # -- status -------------------------------------------------------------

    @property
    def site_id(self) -> str:
        return self._site_id

    @property
    def is_open(self) -> bool:
        return self._open

    @property
    def decides_at_stability(self) -> bool:
        """Whether a coordinator's decision exists only once its forced
        record is stable.

        True only for the replicated decision log, whose record is a
        proposal until a quorum accepts it (and may come back flipped).
        Every other log holds the decision record from the moment it is
        appended, so the coordinator decides before it asks for the
        force, however late the force completes.
        """
        return False

    @property
    def stable_record_count(self) -> int:
        """Records that have reached stable storage (crash-survivors).

        ``stable_record_count + buffered_record_count`` is the total
        record population; :meth:`force`/:meth:`flush` move records from
        the buffered side to the stable side, :meth:`crash` discards the
        buffered side, and :meth:`garbage_collect` shrinks the stable
        side only.
        """
        return len(self._stable)

    @property
    def buffered_record_count(self) -> int:
        """Records still in the volatile buffer — exactly what a crash
        at this instant would lose."""
        return len(self._buffer)

    # -- writing ------------------------------------------------------------

    def append(self, record: LogRecord) -> LogRecord:
        """Append ``record`` to the volatile buffer (non-forced write)."""
        self._require_open()
        record.lsn = self._next_lsn
        self._next_lsn += 1
        self._buffer.append(record)
        self.append_count += 1
        self._sim.record(
            self._site_id,
            "log",
            "append",
            type=record.type.value,
            txn=record.txn_id,
            lsn=record.lsn,
        )
        return record

    def force(self) -> None:
        """Synchronously flush the volatile buffer to stable storage.

        Every invocation is a *protocol cost*: ``force_count`` counts
        the write barrier itself, so it is incremented (and a
        ``log.force`` trace event recorded, with ``flushed=0``) even
        when the buffer happens to be empty — the caller still paid for
        the device round trip. Contrast :meth:`flush`, which models free
        background I/O and is a strict no-op (no counter, no trace) on
        an empty buffer. After a force ``buffered_record_count`` is 0
        and every previously buffered record counts toward
        ``stable_record_count``.
        """
        self._require_open()
        self._count_force(self._stabilise_buffer())

    def force_append(self, record: LogRecord) -> LogRecord:
        """Append ``record`` and immediately force the log."""
        self.append(record)
        self.force()
        return record

    def force_append_async(
        self,
        record: LogRecord,
        on_stable: Optional[Callable[[], None]] = None,
    ) -> LogRecord:
        """Append ``record`` and request a force; notify when stable.

        The base log performs the force synchronously, so ``on_stable``
        (when given) runs before this method returns and the call is
        behaviourally identical to :meth:`force_append`. A deferring
        log instead runs ``on_stable`` later, once the record is stable
        by its own definition (the
        :class:`~repro.storage.file_log.FileStableLog` after the one
        fsync of the current event-loop tick, the
        :class:`~repro.replication.decision_log.ReplicatedDecisionLog`
        once a quorum holds a coordinator record): callers must not act
        on the record's durability (send a vote, a decision, an ack)
        before the callback fires. Completions of one log run
        in the order their forces were requested.
        """
        self.append(record)
        self.force()
        if on_stable is not None:
            on_stable()
        return record

    def flush(self) -> int:
        """Background flush: buffered records become stable.

        Unlike :meth:`force`, a flush is not a protocol cost — it
        models the log buffer being written out as a side effect of
        unrelated activity ("lazily"), so it is counted separately:
        ``flush_count`` is incremented (and a ``log.flush`` trace event
        recorded) only when at least one record actually moved from the
        buffer to stable storage. An empty-buffer flush is free and
        leaves no trace, unlike an empty-buffer :meth:`force`.

        Returns:
            The number of records flushed.
        """
        self._require_open()
        flushed = self._stabilise_buffer()
        self._count_flush(flushed)
        return flushed

    # -- crash / recovery -----------------------------------------------------

    def crash(self) -> int:
        """Simulate a site crash: the volatile buffer is lost.

        Returns:
            The number of records that were lost.
        """
        lost = len(self._buffer)
        self._buffer.clear()
        self._open = False
        self._sim.record(self._site_id, "log", "crash", lost_records=lost)
        return lost

    def reopen(self) -> None:
        """Re-open the log after a crash (recovery reads the stable part)."""
        if self._open:
            raise StorageError(f"log of {self._site_id!r} is already open")
        self._open = True
        self._sim.record(self._site_id, "log", "reopen")

    # -- reading ------------------------------------------------------------

    def stable_records(self) -> tuple[LogRecord, ...]:
        """Records guaranteed to survive a crash, in LSN order."""
        return tuple(self._stable.values())

    def records_for(self, txn_id: str) -> tuple[LogRecord, ...]:
        """Stable records belonging to ``txn_id``, in LSN order."""
        return tuple(self._by_txn.get(txn_id, ()))

    def has_record(self, txn_id: str, record_type: RecordType) -> bool:
        """True if a stable record of the given type exists for the txn."""
        return any(r.type == record_type for r in self._by_txn.get(txn_id, ()))

    def last_record(
        self, txn_id: str, record_type: Optional[RecordType] = None
    ) -> Optional[LogRecord]:
        """Latest stable record for the txn (optionally of one type)."""
        for record in reversed(self._by_txn.get(txn_id, ())):
            if record_type is None or record.type == record_type:
                return record
        return None

    def transactions(self) -> set[str]:
        """Ids of all transactions with at least one stable record."""
        return {txn_id for txn_id in self._by_txn if txn_id}

    def uncollected_transactions(self) -> set[str]:
        """Transactions whose records are still occupying the stable log."""
        return self.transactions()

    # -- garbage collection ----------------------------------------------------

    def garbage_collect(self, txn_id: str) -> int:
        """Remove every stable record of ``txn_id``.

        The caller (the protocol layer) is responsible for invoking this
        only when the protocol's rules allow it — typically after an END
        record was written, or when a presumption covers the outcome.

        Returns:
            The number of records collected.
        """
        records = self._by_txn.pop(txn_id, ())
        for record in records:
            del self._stable[id(record)]
        collected = len(records)
        if collected:
            self.gc_record_count += collected
            self._sim.record(
                self._site_id, "log", "gc", txn=txn_id, collected=collected
            )
        return collected

    def compact(self) -> None:
        """Release the space of collected records on the durable medium.

        The end of a GC sweep (:meth:`repro.mdbs.site.Site.flush_and_gc`).
        The in-memory log released them in :meth:`garbage_collect`.
        """

    # -- internals --------------------------------------------------------------

    def _stabilise(self, records: Iterable[LogRecord]) -> None:
        for record in records:
            record.forced = True
            self._stable[id(record)] = record
            self._by_txn[record.txn_id].append(record)

    def _count_force(self, flushed: int) -> None:
        """Account for one force: its counter and its trace event."""
        self.force_count += 1
        self._sim.record(self._site_id, "log", "force", flushed=flushed)

    def _count_flush(self, flushed: int) -> None:
        """Account for a flush that moved ``flushed`` records (free if 0)."""
        if flushed:
            self.flush_count += 1
            self._sim.record(self._site_id, "log", "flush", flushed=flushed)

    def _stabilise_buffer(self) -> int:
        """Move the volatile buffer to the stable side; how many moved."""
        moved = len(self._buffer)
        self._stabilise(self._buffer)
        self._buffer.clear()
        return moved

    def _require_open(self) -> None:
        if not self._open:
            raise LogClosedError(
                f"log of {self._site_id!r} is closed (site crashed)"
            )

    def __repr__(self) -> str:
        return (
            f"StableLog(site={self._site_id!r}, stable={len(self._stable)}, "
            f"buffered={len(self._buffer)}, forces={self.force_count})"
        )


def count_forced(records: Iterable[LogRecord]) -> int:
    """Number of records in ``records`` that reached stable storage."""
    return sum(1 for r in records if r.forced)

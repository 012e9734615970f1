"""Local transaction manager: one per site.

The local TM executes subtransactions against the site's KV store under
strict 2PL, producing undo/redo records in the site's stable log. It
exposes exactly the operations the commit protocols need:

* ``prepare`` — force the log up to and including a PREPARED record,
  entering the in-doubt window (the transaction can then neither commit
  nor abort unilaterally);
* ``commit`` / ``abort`` — enforce a final decision, writing the
  decision record with the forcing discipline the protocol dictates;
* ``forget`` — garbage collect the transaction's records.

Lock conflicts use a no-wait policy by default: a denied lock surfaces
as :class:`~repro.errors.LockError`, which the MDBS layer turns into a
unilateral abort (a "No" vote) — giving workloads a natural source of
aborted transactions, which the presumed protocols treat differently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import SiteDownError, TransactionError
from repro.db.kv import KVStore
from repro.db.locks import LockManager, LockMode
from repro.sim.kernel import Simulator
from repro.storage.log_records import (
    LogRecord,
    RecordType,
    decision_record,
    prepared_record,
    update_record,
)
from repro.storage.stable_log import StableLog


class TxnStatus(enum.Enum):
    """Life-cycle states of a local (sub)transaction."""

    ACTIVE = "active"
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class LocalTransaction:
    """Volatile bookkeeping for one subtransaction at one site."""

    txn_id: str
    coordinator: str = ""
    status: TxnStatus = TxnStatus.ACTIVE
    # (key, before-image, after-image), in execution order.
    updates: list[tuple[str, Any, Any]] = field(default_factory=list)
    # True while the after-images are applied to the volatile store.
    updates_in_store: bool = True
    decision_logged: bool = False
    # True once the decision record is on stable storage (or no record
    # is required: logless sites, unforced "lazy" decisions are never
    # marked). Gates actions that presume durability, e.g. re-sending
    # an ACK for a duplicate decision message.
    decision_stable: bool = False


class LocalTransactionManager:
    """Executes and terminates subtransactions at a single site."""

    def __init__(
        self,
        sim: Simulator,
        site_id: str,
        log: StableLog,
        store: KVStore,
        locks: Optional[LockManager] = None,
        force_updates: bool = False,
        logless: bool = False,
    ) -> None:
        self._sim = sim
        self._site_id = site_id
        # Every force goes through ``force_append_async``, and whatever
        # presumes the record durable runs in its completion: at once
        # on the in-memory log, after the tick's fsync on a file log.
        self._log = log
        self._store = store
        self._locks = locks if locks is not None else LockManager()
        # IYV sites force every update record as it is written (the
        # voting phase they skip would otherwise have forced them).
        self._force_updates = force_updates
        # CL sites write nothing locally: their redo records live at
        # the coordinator, pulled back through CL_RECOVER on restart.
        self._logless = logless
        self._txns: dict[str, LocalTransaction] = {}
        self._up = True

    # -- status -------------------------------------------------------------

    @property
    def site_id(self) -> str:
        return self._site_id

    @property
    def locks(self) -> LockManager:
        return self._locks

    @property
    def is_up(self) -> bool:
        return self._up

    def transaction(self, txn_id: str) -> Optional[LocalTransaction]:
        return self._txns.get(txn_id)

    def active_transactions(self) -> list[str]:
        return [t.txn_id for t in self._txns.values() if t.status is TxnStatus.ACTIVE]

    def in_doubt_transactions(self) -> list[str]:
        return [
            t.txn_id for t in self._txns.values() if t.status is TxnStatus.PREPARED
        ]

    # -- execution ------------------------------------------------------------

    def begin(self, txn_id: str, coordinator: str = "") -> LocalTransaction:
        """Start a subtransaction at this site."""
        self._require_up()
        if txn_id in self._txns:
            raise TransactionError(f"txn {txn_id!r} already exists at {self._site_id!r}")
        txn = LocalTransaction(txn_id=txn_id, coordinator=coordinator)
        self._txns[txn_id] = txn
        self._sim.record(self._site_id, "db", "begin", txn=txn_id)
        return txn

    def read(self, txn_id: str, key: str) -> Any:
        """Read ``key`` under a shared lock (no-wait)."""
        self._require_up()
        txn = self._require_active(txn_id)
        self._locks.acquire(txn.txn_id, key, LockMode.SHARED, no_wait=True)
        return self._store.read(key)

    def write(self, txn_id: str, key: str, value: Any) -> None:
        """Write ``key`` under an exclusive lock, logging undo/redo."""
        self._require_up()
        txn = self._require_active(txn_id)
        self._locks.acquire(txn.txn_id, key, LockMode.EXCLUSIVE, no_wait=True)
        before = self._store.write(key, value)
        txn.updates.append((key, before, value))
        if not self._logless:
            record = update_record(txn_id, key, before, value)
            if self._force_updates:
                # Nothing is sent on its stability: the coordinator
                # counts an implicitly prepared site's Yes unasked.
                self._log.force_append_async(record)
            else:
                self._log.append(record)
        self._sim.record(self._site_id, "db", "write", txn=txn_id, key=key)

    # -- termination -----------------------------------------------------------

    def is_read_only(self, txn_id: str) -> bool:
        """True if the transaction exists and has performed no writes."""
        txn = self._txns.get(txn_id)
        return txn is not None and not txn.updates

    def finish_read_only(self, txn_id: str) -> None:
        """Terminate a read-only subtransaction locally (no logging).

        Used by the read-only optimization: the participant votes READ,
        releases its locks immediately and forgets the transaction — a
        read-only subtransaction is consistent with either outcome, so
        no decision, record or acknowledgement is needed.
        """
        self._require_up()
        txn = self._txns.get(txn_id)
        if txn is None:
            return
        if txn.updates:
            raise TransactionError(
                f"txn {txn_id!r} wrote {len(txn.updates)} keys; it is not "
                f"read-only"
            )
        txn.status = TxnStatus.COMMITTED
        self._release(txn)
        del self._txns[txn_id]
        self._sim.record(self._site_id, "db", "read_only_done", txn=txn_id)

    def prepare(
        self,
        txn_id: str,
        on_stable: Optional[Callable[[], None]] = None,
    ) -> bool:
        """Enter the prepared (in-doubt) state; True on success.

        Forces the log so the PREPARED record *and every update record
        before it* are durable — the write-ahead rule participants rely
        on to redo after a crash. The transaction is PREPARED from the
        request on; ``db.prepared`` is traced once the record is
        stable.

        Args:
            on_stable: invoked once the PREPARED record is stable — the
                point at which a vote may be sent. It runs before this
                method returns on a synchronous log or a logless site,
                after the fsync of the current tick on a file log, and
                not at all if the transaction was aborted in between (a
                crash drops the completion with the log's buffer).
        """
        self._require_up()
        txn = self._txns.get(txn_id)
        if txn is None or txn.status is not TxnStatus.ACTIVE:
            return False
        txn.status = TxnStatus.PREPARED

        def stable() -> None:
            if txn.status is not TxnStatus.PREPARED:
                return  # aborted while the force was pending
            self._sim.record(self._site_id, "db", "prepared", txn=txn_id)
            if on_stable is not None:
                on_stable()

        if self._logless:
            stable()
        else:
            self._log.force_append_async(
                prepared_record(txn_id, txn.coordinator), stable
            )
        return True

    def commit(
        self,
        txn_id: str,
        force_decision: bool,
        on_stable: Optional[Callable[[], None]] = None,
    ) -> None:
        """Enforce a commit decision.

        Args:
            force_decision: whether the protocol requires the commit
                record to be force-written (PrN/PrA participants: yes;
                PrC participants: no).
            on_stable: invoked once the decision record is as durable as
                the protocol demands — the point at which an ACK may be
                sent. A lazy record needs no wait, so it runs before
                this method returns; a forced one runs it after the
                force completes (at once on a synchronous log, after
                the tick's fsync on a file log). The decision is
                enforced (store, locks, status) from the request on;
                ``db.commit`` is traced when ``on_stable`` runs.
        """
        self._require_up()
        txn = self._txns.get(txn_id)
        if txn is None:
            # Footnote 5 of the paper: no memory of the transaction means
            # it was already enforced and forgotten; nothing to do.
            if on_stable is not None:
                on_stable()
            return
        if txn.status is TxnStatus.COMMITTED:
            if on_stable is not None:
                on_stable()
            return
        if txn.status is TxnStatus.ABORTED:
            raise TransactionError(
                f"txn {txn_id!r} already aborted at {self._site_id!r}; "
                f"cannot commit"
            )
        if not txn.updates_in_store:
            # Post-recovery redo: re-apply after-images.
            for key, __, after in txn.updates:
                self._store.write(key, after)
            txn.updates_in_store = True
        txn.status = TxnStatus.COMMITTED
        self._release(txn)
        self._log_decision(txn, "commit", force_decision, on_stable)

    def abort(
        self,
        txn_id: str,
        force_decision: bool,
        on_stable: Optional[Callable[[], None]] = None,
    ) -> None:
        """Enforce an abort decision, undoing any applied updates.

        ``on_stable`` follows the same contract as :meth:`commit`.
        """
        self._require_up()
        txn = self._txns.get(txn_id)
        if txn is None:
            if on_stable is not None:
                on_stable()
            return
        if txn.status is TxnStatus.ABORTED:
            if on_stable is not None:
                on_stable()
            return
        if txn.status is TxnStatus.COMMITTED:
            raise TransactionError(
                f"txn {txn_id!r} already committed at {self._site_id!r}; "
                f"cannot abort"
            )
        if txn.updates_in_store:
            for key, before, __ in reversed(txn.updates):
                if before is None:
                    self._store.delete(key)
                else:
                    self._store.write(key, before)
            txn.updates_in_store = False
        txn.status = TxnStatus.ABORTED
        self._release(txn)
        self._log_decision(txn, "abort", force_decision, on_stable)

    def committed_snapshot(self) -> dict[str, Any]:
        """Current store state with all *live* transactions undone.

        This is the state a fuzzy checkpoint may persist: effects of
        active and prepared transactions are rolled back via their
        before-images (their redo lives in the log), so garbage
        collecting a terminated transaction's records after
        checkpointing this state can never lose committed data.
        """
        state = self._store.snapshot()
        for txn in self._txns.values():
            if txn.status not in (TxnStatus.ACTIVE, TxnStatus.PREPARED):
                continue
            if not txn.updates_in_store:
                continue
            for key, before, __ in reversed(txn.updates):
                if before is None:
                    state.pop(key, None)
                else:
                    state[key] = before
        return state

    def checkpoint(self) -> None:
        """Persist the committed snapshot as the durable store state."""
        self._store.checkpoint(self.committed_snapshot())

    def drop_volatile(self, txn_id: str) -> None:
        """Drop a *terminated* transaction's volatile entry only.

        Log records are left in place — the participant engine GCs them
        once the decision record is stable.
        """
        txn = self._txns.get(txn_id)
        if txn is not None and txn.status in (
            TxnStatus.COMMITTED,
            TxnStatus.ABORTED,
        ):
            del self._txns[txn_id]

    def apply_redo(self, txn_id: str, updates: list[tuple[str, Any, Any]]) -> None:
        """Install a pulled redo set for a committed transaction (CL).

        Used by log-less (coordinator-log) sites during restart: the
        after-images arrive from the coordinator's log and are applied
        directly — this *is* the local enforcement of the commit, so it
        is traced as one.
        """
        self._require_up()
        for key, __, after in updates:
            self._store.write(key, after)
        self._sim.record(self._site_id, "db", "commit", txn=txn_id, redo=True)

    def forget(self, txn_id: str) -> None:
        """Drop volatile state and garbage collect the txn's log records."""
        self._require_up()
        txn = self._txns.pop(txn_id, None)
        if txn is not None and txn.status in (TxnStatus.ACTIVE, TxnStatus.PREPARED):
            raise TransactionError(
                f"cannot forget txn {txn_id!r} in state {txn.status.value!r}"
            )
        self._log.garbage_collect(txn_id)

    # -- crash / recovery ---------------------------------------------------------

    def crash(self) -> None:
        """Lose all volatile state (store, locks, txn table)."""
        self._up = False
        self._store.crash()
        self._locks.clear()
        self._txns.clear()

    def restart_empty(self) -> None:
        """Come back up; recovery (``repro.db.recovery``) repopulates us."""
        self._up = True
        self._store.restart()

    def adopt_in_doubt(
        self,
        txn_id: str,
        coordinator: str,
        updates: list[tuple[str, Any, Any]],
    ) -> LocalTransaction:
        """Re-install an in-doubt transaction found in the log at restart.

        The transaction's after-images are *not* in the recovered store
        (recovery only redoes committed work), so ``updates_in_store``
        is False; its exclusive locks are re-acquired to protect the
        in-doubt data.
        """
        self._require_up()
        txn = LocalTransaction(
            txn_id=txn_id,
            coordinator=coordinator,
            status=TxnStatus.PREPARED,
            updates=list(updates),
            updates_in_store=False,
        )
        self._txns[txn_id] = txn
        for key, __, __unused in updates:
            self._locks.acquire(txn_id, key, LockMode.EXCLUSIVE, no_wait=True)
        self._sim.record(self._site_id, "db", "readopt_in_doubt", txn=txn_id)
        return txn

    # -- internals ----------------------------------------------------------------

    def _log_decision(
        self,
        txn: LocalTransaction,
        outcome: str,
        force_decision: bool,
        on_stable: Optional[Callable[[], None]],
    ) -> None:
        """Write the decision record with the protocol's discipline;
        once it is as durable as that demands, mark it stable (unless
        lazy), trace the enforcement and run ``on_stable``. Logless
        sites need no record."""
        txn.decision_logged = True

        def enforced() -> None:
            self._sim.record(self._site_id, "db", outcome, txn=txn.txn_id)
            if on_stable is not None:
                on_stable()

        def stable() -> None:
            txn.decision_stable = True
            enforced()

        if self._logless:
            stable()
            return
        record = decision_record(txn.txn_id, outcome)
        if force_decision:
            self._log.force_append_async(record, stable)
        else:
            self._log.append(record)
            enforced()

    def _release(self, txn: LocalTransaction) -> None:
        for callback in self._locks.release_all(txn.txn_id):
            self._sim.schedule(0.0, callback, label="lock-grant")

    def _require_up(self) -> None:
        if not self._up:
            raise SiteDownError(f"site {self._site_id!r} is down")

    def _require_active(self, txn_id: str) -> LocalTransaction:
        txn = self._txns.get(txn_id)
        if txn is None:
            raise TransactionError(f"unknown txn {txn_id!r} at {self._site_id!r}")
        if txn.status is not TxnStatus.ACTIVE:
            raise TransactionError(
                f"txn {txn_id!r} is {txn.status.value}, not active"
            )
        return txn

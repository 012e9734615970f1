"""Local (single-site) crash recovery.

Restart analysis follows the textbook redo/no-undo discipline our
engine's write path establishes:

* updates are durable (forced) no later than the PREPARED record;
* the recovered working state is the durable snapshot plus the redo of
  every transaction with a stable COMMIT record;
* transactions with a stable PREPARED record but no stable decision are
  *in doubt*: their updates are withheld, their locks re-acquired, and
  the commit protocol layer later resolves them (by inquiry or by the
  coordinator re-sending the decision);
* transactions with only UPDATE records (no PREPARED) were active at
  the crash and are implicitly aborted — the paper's "hidden
  presumption" at work locally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.db.kv import KVStore
from repro.db.local_tm import LocalTransactionManager
from repro.storage.log_records import RecordType
from repro.storage.stable_log import StableLog


@dataclass
class LocalRecoveryReport:
    """Outcome of analyzing one site's stable log at restart."""

    committed: set[str] = field(default_factory=set)
    aborted: set[str] = field(default_factory=set)
    in_doubt: dict[str, dict[str, Any]] = field(default_factory=dict)
    implicitly_aborted: set[str] = field(default_factory=set)
    recovered_state: dict[str, Any] = field(default_factory=dict)

    @property
    def in_doubt_count(self) -> int:
        return len(self.in_doubt)


def analyze_log(log: StableLog, durable_state: dict[str, Any]) -> LocalRecoveryReport:
    """Classify logged transactions and compute the redo state.

    Args:
        log: the site's stable log (only stable records are visible).
        durable_state: the KV snapshot as of the last checkpoint.

    Returns:
        A :class:`LocalRecoveryReport`; ``recovered_state`` is the
        working state to install, reflecting committed work only.
    """
    report = LocalRecoveryReport()
    updates: dict[str, list[tuple[str, Any, Any]]] = {}
    # Keyed by PREPARED records in LSN order; iterating it (not a set)
    # keeps in-doubt re-adoption order independent of string hashing.
    coordinators: dict[str, str] = {}

    for record in log.stable_records():
        txn_id = record.txn_id
        if record.type is RecordType.UPDATE:
            updates.setdefault(txn_id, []).append(
                (record.get("key"), record.get("before"), record.get("after"))
            )
        elif record.type is RecordType.PREPARED:
            coordinators[txn_id] = record.get("coordinator", "")
        elif record.type is RecordType.COMMIT:
            # Coordinator-side decision records (role "coordinator") are
            # handled by coordinator recovery, not local redo.
            if record.get("by", "participant") == "participant":
                report.committed.add(txn_id)
        elif record.type is RecordType.ABORT:
            if record.get("by", "participant") == "participant":
                report.aborted.add(txn_id)

    for txn_id, coordinator in coordinators.items():
        if txn_id in report.committed or txn_id in report.aborted:
            continue
        report.in_doubt[txn_id] = {
            "coordinator": coordinator,
            "updates": updates.get(txn_id, []),
        }

    for txn_id in updates:
        if (
            txn_id not in coordinators
            and txn_id not in report.committed
            and txn_id not in report.aborted
        ):
            report.implicitly_aborted.add(txn_id)

    # Redo pass: apply after-images of committed transactions in LSN order.
    state = dict(durable_state)
    for record in log.stable_records():
        if (
            record.type is RecordType.UPDATE
            and record.txn_id in report.committed
        ):
            state[record.get("key")] = record.get("after")
    report.recovered_state = state
    return report


def recover_engine(
    tm: LocalTransactionManager,
    log: StableLog,
    store: KVStore,
) -> LocalRecoveryReport:
    """Bring a crashed engine back up: restart, redo, re-adopt in-doubts."""
    report = analyze_log(log, store.durable_snapshot())
    tm.restart_empty()
    store.load_recovered(report.recovered_state)
    for txn_id, info in report.in_doubt.items():
        tm.adopt_in_doubt(txn_id, info["coordinator"], info["updates"])
    return report

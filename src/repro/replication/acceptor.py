"""The Paxos acceptor hosted alongside a participant engine.

One :class:`AcceptorEngine` holds per-transaction ballot state — the
paper-facing view is one Paxos instance per transaction, all sharing
the site's WAL. Every promise/accept is *forced* to the log before the
reply leaves (the acceptor-side force-before-send invariant: a reply
the proposer counts toward a majority must survive the acceptor's
crash), and recovery rebuilds the volatile table from the stable ACCEPT
records alone.

State accounting: acceptor state is durable protocol *metadata*, not a
protocol-table entry — it does not appear in
``Site.retained_transactions()`` (an acceptor is never blocked on it),
but its ACCEPT records do occupy the log and therefore show up in
``uncollected_log_transactions()`` until the leader's PX_FORGET
releases them, which keeps the operational-correctness checker honest
about replication's storage footprint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.net.message import Message
from repro.net.network import Network
from repro.replication.config import ReplicationConfig
from repro.replication.messages import (
    PX_1B,
    PX_2B,
    PX_FORGET,
    PX_REGISTER_ACK,
    PX_STATUS,
    ballot_key,
)
from repro.sim.kernel import Simulator
from repro.storage.log_records import LogRecord, RecordType
from repro.storage.stable_log import StableLog


def accept_record(
    txn_id: str,
    phase: str,
    ballot: Optional[list] = None,
    value: Optional[str] = None,
    participants: Optional[list[str]] = None,
    protocols: Optional[dict[str, str]] = None,
) -> LogRecord:
    """Build an acceptor-side ACCEPT record.

    ``phase`` is ``"register"`` (the replicated initiation),
    ``"promise"`` (phase 1b) or ``"accept"`` (phase 2b).
    """
    payload: dict[str, Any] = {"phase": phase}
    if ballot is not None:
        payload["ballot"] = list(ballot)
    if value is not None:
        payload["value"] = value
    if participants is not None:
        payload["participants"] = list(participants)
    if protocols is not None:
        payload["protocols"] = dict(protocols)
    return LogRecord(RecordType.ACCEPT, txn_id, payload)


@dataclass
class AcceptorTxn:
    """One transaction's Paxos-instance state at this acceptor."""

    participants: list[str] = field(default_factory=list)
    protocols: dict[str, str] = field(default_factory=dict)
    registered: bool = False
    register_stable: bool = False
    promised: Optional[list] = None
    accepted_ballot: Optional[list] = None
    accepted_value: Optional[str] = None
    accept_stable: bool = False


class AcceptorEngine:
    """Per-transaction Paxos acceptor over the site's stable log."""

    def __init__(
        self,
        sim: Simulator,
        site_id: str,
        log: StableLog,
        network: Network,
        config: ReplicationConfig,
    ) -> None:
        self._sim = sim
        self._site_id = site_id
        self._log = log
        self._network = network
        self._config = config
        self._txns: dict[str, AcceptorTxn] = {}
        self._epoch = 0
        #: Transactions released by PX_FORGET since the last GC sweep.
        self._released = 0

    @property
    def transactions(self) -> dict[str, AcceptorTxn]:
        return self._txns

    # -- proposer-facing handlers ------------------------------------------------

    def on_register(self, message: Message) -> None:
        """Force the registration, then ack (replicated initiation)."""
        txn_id = message.txn_id
        rid = message.get("rid")
        state = self._txns.setdefault(txn_id, AcceptorTxn())
        if state.registered:
            if state.register_stable:
                self._reply(message.sender, PX_REGISTER_ACK, txn_id, {"rid": rid})
            # else: the original force is still in flight; its callback
            # acks, and the proposer's retry covers message loss.
            return
        state.registered = True
        state.participants = list(message.get("participants") or [])
        state.protocols = dict(message.get("protocols") or {})
        record = accept_record(
            txn_id,
            "register",
            participants=state.participants,
            protocols=state.protocols,
        )
        epoch = self._epoch

        def stable() -> None:
            if epoch != self._epoch:
                return
            held = self._txns.get(txn_id)
            if held is not None:
                held.register_stable = True
            self._reply(message.sender, PX_REGISTER_ACK, txn_id, {"rid": rid})

        self._log.force_append_async(record, stable)

    def on_2a(self, message: Message) -> None:
        """Phase 2a: accept the proposed decision unless promised higher."""
        txn_id = message.txn_id
        rid = message.get("rid")
        ballot = list(message.get("ballot"))
        value = message.get("value")
        state = self._txns.setdefault(txn_id, AcceptorTxn())
        if not state.participants and message.get("participants"):
            # A proposer completing a transaction this acceptor never
            # saw registered (it was in the minority): adopt the
            # registration info carried on the 2a.
            state.participants = list(message.get("participants") or [])
            state.protocols = dict(message.get("protocols") or {})
        if state.promised is not None and ballot_key(state.promised) > ballot_key(
            ballot
        ):
            self._reply(
                message.sender,
                PX_2B,
                txn_id,
                {"rid": rid, "ok": False, "promised": list(state.promised)},
            )
            return
        if (
            state.accepted_ballot == ballot
            and state.accepted_value == value
        ):
            if state.accept_stable:
                self._reply(
                    message.sender,
                    PX_2B,
                    txn_id,
                    {"rid": rid, "ballot": ballot},
                )
            return
        state.promised = ballot
        state.accepted_ballot = ballot
        state.accepted_value = value
        state.accept_stable = False
        record = accept_record(
            txn_id,
            "accept",
            ballot=ballot,
            value=value,
            participants=state.participants,
            protocols=state.protocols,
        )
        epoch = self._epoch

        def stable() -> None:
            if epoch != self._epoch:
                return
            held = self._txns.get(txn_id)
            if held is not None and held.accepted_ballot == ballot:
                held.accept_stable = True
            self._reply(
                message.sender, PX_2B, txn_id, {"rid": rid, "ballot": ballot}
            )

        self._log.force_append_async(record, stable)

    def on_1a(self, message: Message) -> None:
        """Bulk phase 1a: promise the ballot over every in-scope txn.

        The reply carries, per transaction, the registration info and
        any previously accepted (ballot, value) — everything a takeover
        needs to complete or presume. A single transaction promised to
        a *higher* ballot nacks the whole sweep (the proposer bumps and
        retries); per-transaction promises are forced as one batch with
        one log force.
        """
        rid = message.get("rid")
        ballot = list(message.get("ballot"))
        scope = message.get("txns")
        in_scope = {
            txn_id: state
            for txn_id, state in sorted(self._txns.items())
            if scope is None or txn_id in scope
        }
        # Instances the proposer knows but this acceptor has never seen
        # (scoped retries and the leader's local initiation-only txns)
        # are promised too, so a stale ballot-0 fast path can no longer
        # slip in under the sweep.
        for txn_id in list(scope or []) + list(message.get("extra") or []):
            if txn_id not in in_scope:
                in_scope[txn_id] = self._txns.setdefault(txn_id, AcceptorTxn())
        for state in in_scope.values():
            if state.promised is not None and ballot_key(
                state.promised
            ) > ballot_key(ballot):
                self._reply(
                    message.sender,
                    PX_1B,
                    "",
                    {"rid": rid, "ok": False, "promised": list(state.promised)},
                )
                return
        to_force = []
        for txn_id, state in in_scope.items():
            if state.promised != ballot:
                state.promised = ballot
                to_force.append(accept_record(txn_id, "promise", ballot=ballot))
        reply_txns = {
            txn_id: {
                "participants": list(state.participants),
                "protocols": dict(state.protocols),
                "accepted_ballot": (
                    list(state.accepted_ballot)
                    if state.accepted_ballot is not None
                    else None
                ),
                "accepted_value": state.accepted_value,
            }
            for txn_id, state in in_scope.items()
        }
        payload = {"rid": rid, "ballot": ballot, "txns": reply_txns}
        if not to_force:
            self._reply(message.sender, PX_1B, "", payload)
            return
        for record in to_force[:-1]:
            self._log.append(record)
        epoch = self._epoch

        def stable() -> None:
            if epoch != self._epoch:
                return
            self._reply(message.sender, PX_1B, "", payload)

        # One force covers the whole batch: everything appended before
        # the forced record becomes stable with it.
        self._log.force_append_async(to_force[-1], stable)

    def on_forget(self, message: Message) -> None:
        """The leader is done with these transactions: drop and GC."""
        for txn_id in message.get("txns") or []:
            if txn_id in self._txns:
                del self._txns[txn_id]
                self._log.garbage_collect(txn_id)
                self._released += 1
        self._log.compact()

    # -- lifecycle ---------------------------------------------------------------

    def crash(self) -> None:
        """Lose the volatile mirror; the ACCEPT records persist."""
        self._epoch += 1
        self._txns.clear()

    def recover(self) -> int:
        """Rebuild acceptor state from the stable ACCEPT records."""
        self._txns.clear()
        for record in self._log.stable_records():
            if record.type is not RecordType.ACCEPT:
                continue
            state = self._txns.setdefault(record.txn_id, AcceptorTxn())
            phase = record.get("phase")
            if phase == "register":
                state.registered = True
                state.register_stable = True
                state.participants = list(record.get("participants") or [])
                state.protocols = dict(record.get("protocols") or {})
            elif phase == "promise":
                state.promised = list(record.get("ballot"))
            elif phase == "accept":
                ballot = list(record.get("ballot"))
                state.promised = ballot
                state.accepted_ballot = ballot
                state.accepted_value = record.get("value")
                state.accept_stable = True
                if record.get("participants"):
                    state.participants = list(record.get("participants"))
                if record.get("protocols"):
                    state.protocols = dict(record.get("protocols"))
        self._sim.record(
            self._site_id,
            "recovery",
            "acceptor_done",
            instances=len(self._txns),
        )
        return len(self._txns)

    def collect_garbage(self) -> int:
        """GC sweep hook: poll the leader for still-held transactions.

        Returns the number of transactions released (by PX_FORGET)
        since the last sweep, so ``finalize`` keeps sweeping until the
        acceptor has drained.
        """
        if self._txns:
            self._network.send(
                Message(
                    PX_STATUS,
                    self._site_id,
                    self._config.leader,
                    "",
                    {"txns": sorted(self._txns)},
                )
            )
        released = self._released
        self._released = 0
        return released

    def _reply(
        self, receiver: str, kind: str, txn_id: str, payload: dict[str, Any]
    ) -> None:
        self._network.send(
            Message(kind, self._site_id, receiver, txn_id, payload)
        )


__all__ = ["AcceptorEngine", "AcceptorTxn", "accept_record"]

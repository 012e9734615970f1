"""Generic participant engine.

Drives the participant side of PrN, PrA and PrC — which differ only in
the :class:`~repro.protocols.base.ParticipantSpec` forcing/ack table —
on top of the site's local transaction manager:

* ``PREPARE`` → force the prepared record and vote Yes, or vote No if
  the subtransaction already aborted (or never existed) at this site;
* ``COMMIT``/``ABORT`` (a decision or an inquiry reply — participants
  treat them identically) → enforce via the local TM with the spec's
  forcing discipline, acknowledge if the spec says so, then forget;
* a prepared participant that waits too long sends ``INQUIRY`` to its
  coordinator and retries until an answer arrives (the paper's
  timeout-driven recovery); on the live runtimes the coordinator's
  lost connection fires the active timers and its restored one the
  inquiry timers early;
* footnote 5: a decision for a transaction this site has no memory of
  is acknowledged blindly — it must have been enforced and forgotten.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.events import Outcome
from repro.errors import TransactionError
from repro.db.local_tm import LocalTransactionManager, TxnStatus
from repro.net.message import Message
from repro.net.network import Network
from repro.protocols.base import (
    ACK,
    CL_CHECKPOINT,
    CL_RECOVER,
    INQUIRY,
    ParticipantSpec,
    TimeoutConfig,
    VOTE_NO,
    VOTE_READ,
    VOTE_YES,
    disarm,
    outcome_of_kind,
)
from repro.sim.kernel import Simulator, Timer
from repro.storage.log_records import RecordType, prepared_record
from repro.storage.protocol_table import ProtocolTable
from repro.storage.stable_log import StableLog


class ParticipantEntry:
    """Protocol-table entry for one subtransaction at a participant."""

    __slots__ = ("txn_id", "coordinator", "inquiry_timer", "active_timer", "epoch")

    def __init__(self, txn_id: str, coordinator: str, epoch: int) -> None:
        self.txn_id = txn_id
        self.coordinator = coordinator
        self.inquiry_timer: Optional[Timer] = None
        self.active_timer: Optional[Timer] = None
        self.epoch = epoch

    def cancel_timers(self) -> None:
        for timer in (self.inquiry_timer, self.active_timer):
            if timer is not None:
                timer.cancel()


class ParticipantEngine:
    """Commit-protocol participant for one site."""

    def __init__(
        self,
        sim: Simulator,
        site_id: str,
        spec: ParticipantSpec,
        tm: LocalTransactionManager,
        log: StableLog,
        network: Network,
        timeouts: Optional[TimeoutConfig] = None,
        read_only_optimization: bool = True,
    ) -> None:
        self._sim = sim
        self._site_id = site_id
        self._spec = spec
        self._tm = tm
        self._log = log
        self._network = network
        self._timeouts = timeouts if timeouts is not None else TimeoutConfig()
        self._read_only_optimization = read_only_optimization
        self.table = ProtocolTable(sim, site_id, role="participant")
        self._gc_pending: dict[str, Optional[RecordType]] = {}
        self._epoch = 0
        # Counters used by the experiments.
        self.inquiries_sent = 0
        self.blind_acks = 0
        self.decision_conflicts = 0
        self.read_votes = 0

    @property
    def spec(self) -> ParticipantSpec:
        return self._spec

    @property
    def protocol(self) -> str:
        return self._spec.name

    @property
    def gc_pending(self) -> dict[str, Optional[RecordType]]:
        return dict(self._gc_pending)

    # -- local work --------------------------------------------------------

    def begin_work(self, txn_id: str, coordinator: str) -> None:
        """Register an executing subtransaction with its coordinator."""
        self._tm.begin(txn_id, coordinator)
        entry = ParticipantEntry(txn_id, coordinator, self._epoch)
        self.table.insert(txn_id, entry)
        if self._spec.implicitly_prepared:
            # IYV: executing work *is* the promise. Force the prepared
            # record up front (updates are forced per operation), so a
            # crash leaves the subtransaction in doubt, never lost.
            # Nothing is sent on its stability, so no callback is
            # needed.
            self._log.force_append_async(prepared_record(txn_id, coordinator))
            self._sim.record(
                self._site_id, "db", "implicitly_prepared", txn=txn_id
            )
        # For explicit voters: a participant that never sees a PREPARE
        # (lost message, or an abort it was excluded from) unilaterally
        # aborts when the timer fires — it has made no promise yet. An
        # implicitly prepared participant instead starts inquiring.
        entry.active_timer = self._sim.set_timer(
            self._timeouts.active_timeout,
            self._guarded(txn_id, self._on_active_timeout),
            label=f"active-timeout {txn_id}",
        )

    def unilateral_abort(self, txn_id: str) -> None:
        """Abort a not-yet-prepared subtransaction locally.

        Used both for execution failures (lock denials) and for the
        active timeout. The coordinator learns of it through a No vote
        when (if) it asks us to prepare. Implicitly prepared (IYV)
        participants have already promised and must not call this; the
        MDBS layer routes their execution failures to a coordinator-side
        abort instead.
        """
        if self._spec.implicitly_prepared:
            raise TransactionError(
                f"site {self._site_id!r} runs {self._spec.name}: an "
                f"implicitly prepared participant cannot abort unilaterally"
            )
        txn = self._tm.transaction(txn_id)
        if txn is None or txn.status is not TxnStatus.ACTIVE:
            return
        self._tm.abort(txn_id, force_decision=False)
        entry = self.table.get(txn_id)
        if entry is not None:
            entry.cancel_timers()
        self._forget(txn_id, Outcome.ABORT)

    # -- message handlers ------------------------------------------------------

    def on_prepare(self, message: Message) -> None:
        """Vote on a PREPARE request."""
        txn_id = message.txn_id
        coordinator = message.sender
        txn = self._tm.transaction(txn_id)
        if txn is None or txn.status is not TxnStatus.ACTIVE:
            # Unilaterally aborted (or never executed) here: vote No.
            self._send(VOTE_NO, coordinator, txn_id)
            return
        if self._read_only_optimization and self._tm.is_read_only(txn_id):
            # Read-only optimization: vote READ, release everything and
            # drop out — no prepared force, no decision, no ack.
            entry = self.table.get(txn_id)
            if entry is not None:
                entry.cancel_timers()
            self._tm.finish_read_only(txn_id)
            self.table.delete(txn_id)
            self.read_votes += 1
            self._send(VOTE_READ, coordinator, txn_id)
            return
        entry = self.table.get(txn_id)
        if entry is None:
            entry = ParticipantEntry(txn_id, coordinator, self._epoch)
            self.table.insert(txn_id, entry)
        entry.coordinator = coordinator
        if entry.active_timer is not None:
            entry.active_timer.cancel()
        # Force-before-send: the Yes vote goes out from the prepared
        # force's completion. The guard drops the vote if the
        # transaction is gone by then (crash, or an abort that arrived
        # first).
        if not self._tm.prepare(
            txn_id, on_stable=self._guarded(txn_id, self._cast_yes_vote)
        ):
            self._send(VOTE_NO, coordinator, txn_id)

    def _cast_yes_vote(self, entry: ParticipantEntry) -> None:
        """Prepared record is stable: send VOTE_YES and start inquiring."""
        txn = self._tm.transaction(entry.txn_id)
        if txn is None or txn.status is not TxnStatus.PREPARED:
            return
        if self._spec.logless:
            # Coordinator log: piggyback the redo records on the vote;
            # the coordinator's decision force makes them durable.
            payload = [[k, b, a] for k, b, a in txn.updates]
            self._send(VOTE_YES, entry.coordinator, entry.txn_id, updates=payload)
        else:
            self._send(VOTE_YES, entry.coordinator, entry.txn_id)
        entry.inquiry_timer = self._sim.set_timer(
            self._timeouts.inquiry_timeout,
            self._guarded(entry.txn_id, self._on_inquiry_timeout),
            label=f"inquiry-timeout {entry.txn_id}",
        )

    def on_decision(self, message: Message) -> None:
        """Enforce a COMMIT/ABORT decision (or inquiry reply)."""
        txn_id = message.txn_id
        outcome = outcome_of_kind(message.kind)
        handling = self._spec.handling(outcome)
        txn = self._tm.transaction(txn_id)
        if txn is None:
            # Footnote 5: no memory means already enforced and
            # forgotten — just (re-)acknowledge if the protocol acks.
            if handling.acknowledge:
                self.blind_acks += 1
                if self._spec.logless:
                    # A log-less site that lost a prepared subtransaction
                    # enforces by oblivion: an abort needs no local work
                    # (the volatile updates died with the crash) and a
                    # commit's redo arrives via CL_REDO. Record the
                    # enforcement so the run history is complete.
                    self._sim.record(
                        self._site_id,
                        "db",
                        outcome.value,
                        txn=txn_id,
                        blind=True,
                    )
                self._send(ACK, message.sender, txn_id, decision=outcome.value)
            return
        if txn.status in (TxnStatus.COMMITTED, TxnStatus.ABORTED):
            already = (
                Outcome.COMMIT if txn.status is TxnStatus.COMMITTED else Outcome.ABORT
            )
            if already is not outcome:
                # A contradicting decision reached an already-enforced
                # site: record it; the atomicity checker surfaces it.
                self.decision_conflicts += 1
                self._sim.record(
                    self._site_id,
                    "protocol",
                    "decision_conflict",
                    txn=txn_id,
                    enforced=already.value,
                    received=outcome.value,
                )
                return
            if handling.acknowledge and txn.decision_stable:
                # Re-ack only once the decision record is stable (an
                # early re-ack could let the coordinator forget a
                # decision a crash is about to un-enforce). Every
                # acking spec forces its decision record or is logless,
                # so a stable flag is guaranteed to arrive.
                self._send(ACK, message.sender, txn_id, decision=outcome.value)
            return
        entry = self.table.get(txn_id)
        sender = message.sender
        epoch = self._epoch

        def finish() -> None:
            # Decision record is as durable as the spec demands: ack
            # (force-before-send) and forget. Dropped on crash via the
            # epoch guard.
            if epoch != self._epoch:
                return
            if handling.acknowledge:
                self._send(ACK, sender, txn_id, decision=outcome.value)
            self._forget(txn_id, outcome)

        try:
            if outcome is Outcome.COMMIT:
                self._tm.commit(
                    txn_id,
                    force_decision=handling.force_record,
                    on_stable=finish,
                )
            else:
                self._tm.abort(
                    txn_id,
                    force_decision=handling.force_record,
                    on_stable=finish,
                )
        except TransactionError:
            self.decision_conflicts += 1
            return
        if entry is not None:
            entry.cancel_timers()

    # -- coordinator-log support ---------------------------------------------------

    def on_cl_redo(self, message: Message) -> None:
        """Install redo state pulled from a coordinator (CL recovery).

        Each entry is a committed transaction this site enforced (or
        should have enforced) before it crashed; applying the
        after-images *is* the enforcement, and the coordinator may
        still be waiting for the commit ack, so one is sent per entry.
        """
        for item in message.get("txns", []):
            txn_id = item["txn"]
            updates = [tuple(u) for u in item["updates"]]
            self._tm.apply_redo(txn_id, updates)
            self._send(ACK, message.sender, txn_id, decision="commit")

    def request_cl_recovery(self, coordinators: list[str]) -> None:
        """Ask every coordinator for this site's redo state (restart)."""
        for coordinator in coordinators:
            self._send(CL_RECOVER, coordinator, "")

    def announce_checkpoint(self, coordinators: list[str]) -> None:
        """Tell the coordinators a local checkpoint completed.

        A checkpoint makes every previously enforced commit durable
        here, which is what licenses the coordinators to garbage
        collect the redo records they retained for this site.
        """
        for coordinator in coordinators:
            self._send(CL_CHECKPOINT, coordinator, "")

    # -- connection events ---------------------------------------------------------

    def peer_down(self, peer: str) -> None:
        """Coordinator ``peer``'s connection closed: fire the active
        timer of each subtransaction it coordinates. Before preparing, a
        participant may always abort (an implicitly prepared one
        inquires instead)."""
        for entry in self._coordinated_by(peer):
            if disarm(entry.active_timer):
                self._on_active_timeout(entry, peer)

    def peer_up(self, peer: str) -> None:
        """Coordinator ``peer`` is reachable again: fire the inquiry
        timer of each subtransaction in doubt about its decision."""
        for entry in self._coordinated_by(peer):
            if disarm(entry.inquiry_timer):
                self._on_inquiry_timeout(entry)

    def _coordinated_by(self, coordinator: str) -> list[ParticipantEntry]:
        return [
            entry
            for entry in self.table.entries().values()
            if entry.epoch == self._epoch and entry.coordinator == coordinator
        ]

    # -- crash / recovery ----------------------------------------------------------

    def crash(self) -> None:
        """Lose all volatile participant state."""
        self._epoch += 1
        for entry in self.table.entries().values():
            entry.cancel_timers()
        self.table.clear_volatile()

    def recover(self, in_doubt: dict[str, str]) -> None:
        """Resume protocol duty for re-adopted in-doubt transactions.

        Args:
            in_doubt: txn id → coordinator id, from local log analysis.
        """
        for txn_id, coordinator in sorted(in_doubt.items()):
            entry = ParticipantEntry(txn_id, coordinator, self._epoch)
            self.table.insert(txn_id, entry)
            self._send_inquiry(entry)

    def requeue_decided_gc(
        self,
        committed: set[str],
        aborted: set[str],
        implicitly_aborted: set[str] = frozenset(),
    ) -> None:
        """Re-queue decided transactions found in the log at restart.

        ``_gc_pending`` is volatile: a crash between forgetting a
        decided transaction and the GC sweep would otherwise strand its
        records in the log forever (a freshly booted process starts
        with an empty queue — only the simulator's in-place
        ``recover()`` happened to keep the old dict alive). Restart
        analysis already proves the decision record is stable, which is
        exactly the cover the sweep waits for; if the coordinator is
        still owed an ack it will resend the decision and get a blind
        re-ack (footnote 5), so forgetting here is safe.

        ``implicitly_aborted`` shapes (UPDATE records, no PREPARED —
        active at the crash, aborted by the local hidden presumption)
        never get a decision record: a later duplicate decision from
        the coordinator is blind-acked without logging. Redo only ever
        replays *committed* transactions' updates, and this transaction
        can never become committed, so its records collect with no
        cover at all.
        """
        if self._spec.logless:
            return
        for txn_id in sorted(committed):
            self._gc_pending.setdefault(txn_id, RecordType.COMMIT)
        for txn_id in sorted(aborted):
            self._gc_pending.setdefault(txn_id, RecordType.ABORT)
        for txn_id in sorted(implicitly_aborted):
            self._gc_pending.setdefault(txn_id, None)

    # -- garbage collection ----------------------------------------------------------

    def collect_garbage(self) -> int:
        """GC records of forgotten txns whose decision record is stable."""
        collected = 0
        for txn_id, cover in list(self._gc_pending.items()):
            if cover is not None and not self._cover_is_stable(txn_id, cover):
                continue
            self._log.garbage_collect(txn_id)
            del self._gc_pending[txn_id]
            collected += 1
        return collected

    def _cover_is_stable(self, txn_id: str, cover: RecordType) -> bool:
        for record in self._log.records_for(txn_id):
            if record.type is cover and record.get("by", "participant") == "participant":
                return True
        return False

    # -- internals -------------------------------------------------------------------

    def _forget(self, txn_id: str, outcome: Outcome) -> None:
        """Forget the transaction; queue its records for GC.

        GC must wait until the decision record is stable — collecting
        the prepared/update records while the (possibly non-forced)
        decision record is still in the log buffer would lose a
        committed transaction across a crash.
        """
        self.table.delete(txn_id)
        txn = self._tm.transaction(txn_id)
        if txn is not None and not self._spec.logless:
            cover = (
                RecordType.COMMIT if outcome is Outcome.COMMIT else RecordType.ABORT
            )
            self._gc_pending[txn_id] = cover
        # Volatile TM state can go now; log records go via the GC sweep.
        self._tm.drop_volatile(txn_id)

    def _on_active_timeout(
        self, entry: ParticipantEntry, peer: Optional[str] = None
    ) -> None:
        """``peer``: the coordinator whose lost connection fired the
        timer early, or ``None`` when the timer itself fired."""
        txn = self._tm.transaction(entry.txn_id)
        if txn is None:
            return
        early = {} if peer is None else {"peer": peer}
        self._sim.record(
            self._site_id, "protocol", "active_timeout", txn=entry.txn_id, **early
        )
        if self._spec.implicitly_prepared:
            # IYV: the decision is late; start inquiring instead of
            # aborting — the promise has already been made.
            if txn.status is TxnStatus.ACTIVE:
                self._send_inquiry(entry)
            return
        self.unilateral_abort(entry.txn_id)

    def _on_inquiry_timeout(self, entry: ParticipantEntry) -> None:
        txn = self._tm.transaction(entry.txn_id)
        if txn is None:
            return
        in_doubt = txn.status is TxnStatus.PREPARED or (
            self._spec.implicitly_prepared and txn.status is TxnStatus.ACTIVE
        )
        if not in_doubt:
            return
        self._send_inquiry(entry)

    def _send_inquiry(self, entry: ParticipantEntry) -> None:
        self.inquiries_sent += 1
        self._send(INQUIRY, entry.coordinator, entry.txn_id)
        entry.inquiry_timer = self._sim.set_timer(
            self._timeouts.inquiry_retry,
            self._guarded(entry.txn_id, self._on_inquiry_timeout),
            label=f"inquiry-retry {entry.txn_id}",
        )

    def _send(self, kind: str, receiver: str, txn_id: str, **payload) -> None:
        self._network.send(
            Message(kind, self._site_id, receiver, txn_id, dict(payload))
        )

    def _guarded(
        self, txn_id: str, handler: Callable[[ParticipantEntry], None]
    ) -> Callable[[], None]:
        epoch = self._epoch

        def fire() -> None:
            if epoch != self._epoch:
                return
            entry = self.table.get(txn_id)
            if entry is None or entry.epoch != epoch:
                return
            handler(entry)

        return fire

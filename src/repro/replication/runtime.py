"""Per-site facade wiring the replication pieces into a ``Site``.

One :class:`SiteReplication` instance lives on every site the
:class:`~repro.replication.config.ReplicationConfig` involves:

* on the **leader**: binds the :class:`ReplicatedDecisionLog` to the
  coordinator engine, heartbeats the acceptors, answers PX_STATUS
  polls (the acceptor-state GC protocol), and replaces the engine's
  restart recovery with a quorum sweep — local decision/END shapes are
  replayed through the unmodified engine, but *initiation-only* shapes
  are **not** presumed aborted locally (the quorum may know better:
  a takeover might have committed them).
* on an **acceptor**: hosts the :class:`AcceptorEngine` and the
  :class:`FailoverWatcher`, and can itself become a proposer (takeover)
  that completes in-flight transactions through its own coordinator
  engine.

Proposer plumbing shared by both roles: rid allocation, the pending
:class:`QuorumCall` registry, and reply routing.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional

from repro.core.events import Outcome
from repro.net.message import Message
from repro.net.network import Network
from repro.protocols.base import DECISION_KINDS
from repro.protocols.recovery import (
    CoordinatorLogSummary,
    summarize_coordinator_log,
)
from repro.replication.acceptor import AcceptorEngine
from repro.replication.config import ReplicationConfig
from repro.replication.failover import DecisionCompleter, FailoverWatcher
from repro.replication.messages import (
    PX_1A,
    PX_1B,
    PX_2A,
    PX_2B,
    PX_FORGET,
    PX_PING,
    PX_REGISTER,
    PX_REGISTER_ACK,
    PX_STATUS,
)
from repro.replication.quorum import QuorumCall
from repro.sim.kernel import Simulator
from repro.storage.log_records import RecordType, decision_record


class SiteReplication:
    """Everything replication adds to one site."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        config: ReplicationConfig,
        site,
    ) -> None:
        self._sim = sim
        self._network = network
        self._config = config
        self._site = site
        self._site_id = site.site_id
        self._is_leader = site.site_id == config.leader
        self._is_acceptor = site.site_id in config.acceptors
        self._rids = itertools.count(1)
        self._calls: dict[int, QuorumCall] = {}
        self._completer: Optional[DecisionCompleter] = None
        self._recovering = False
        self._held_inquiries: list[Message] = []
        self._epoch = 0
        self._hb_timer = None
        self.acceptor: Optional[AcceptorEngine] = None
        self.watcher: Optional[FailoverWatcher] = None
        if self._is_acceptor:
            self.acceptor = AcceptorEngine(
                sim, site.site_id, site.log, network, config
            )
            self.watcher = FailoverWatcher(sim, site.site_id, config, self)
        if self._is_leader:
            site.log.bind(self, site.coordinator)
            self._arm_heartbeat()

    @property
    def is_leader(self) -> bool:
        return self._is_leader

    @property
    def is_acceptor(self) -> bool:
        return self._is_acceptor

    # -- proposer plumbing -------------------------------------------------------

    def call(
        self,
        kind: str,
        txn_id: str,
        payload: dict[str, Any],
        on_majority: Callable[[dict[str, dict]], None],
        on_reject: Optional[Callable[[str, dict], None]] = None,
        label: str = "",
    ) -> QuorumCall:
        """Start one majority round over the acceptor group."""
        return QuorumCall(
            self._sim,
            self._network,
            self._site_id,
            self._config,
            self._calls,
            next(self._rids),
            kind,
            txn_id,
            payload,
            on_majority,
            on_reject,
            label,
        ).start()

    # -- message dispatch --------------------------------------------------------

    def on_message(self, message: Message) -> None:
        kind = message.kind
        if kind == PX_PING:
            if self.watcher is not None:
                self.watcher.on_ping()
            return
        if kind in (PX_REGISTER, PX_2A, PX_1A):
            if self.watcher is not None:
                self.watcher.on_proposer_traffic()
            if self.acceptor is None:
                return
            if kind == PX_REGISTER:
                self.acceptor.on_register(message)
            elif kind == PX_2A:
                self.acceptor.on_2a(message)
            else:
                self.acceptor.on_1a(message)
            return
        if kind == PX_FORGET:
            if self.acceptor is not None:
                self.acceptor.on_forget(message)
            return
        if kind == PX_STATUS:
            self._on_status(message)
            return
        if kind in (PX_REGISTER_ACK, PX_2B, PX_1B):
            call = self._calls.get(message.get("rid"))
            if call is not None:
                call.on_reply(message)
            return

    def _on_status(self, message: Message) -> None:
        """Acceptor-state GC: release what the leader no longer tracks.

        Deferred while a recovery sweep runs — a transaction may be
        absent from the table only because the sweep has not completed
        it yet, and forgetting its acceptor state would erase exactly
        the evidence the sweep needs.
        """
        if not self._is_leader or self._recovering:
            return
        engine = self._site.coordinator
        if engine is None:
            return
        done = [
            txn_id
            for txn_id in message.get("txns") or []
            if engine.table.get(txn_id) is None
        ]
        if done:
            self._network.send(
                Message(
                    PX_FORGET,
                    self._site_id,
                    message.sender,
                    "",
                    {"txns": done},
                )
            )

    # -- leader heartbeat --------------------------------------------------------

    def _arm_heartbeat(self) -> None:
        self._hb_timer = self._sim.set_timer(
            self._config.heartbeat_interval,
            self._heartbeat,
            label=f"px-ping {self._site_id}",
        )

    def _heartbeat(self) -> None:
        for acceptor in self._config.acceptors:
            self._network.send(
                Message(PX_PING, self._site_id, acceptor, "", {})
            )
        self._arm_heartbeat()

    # -- takeover / leader recovery ----------------------------------------------

    def start_takeover(self, on_done: Callable[[int], None]) -> None:
        """This acceptor elects itself and sweeps the quorum."""
        if self._completer is not None:
            self._completer.cancel()
        self._completer = DecisionCompleter(
            self._sim,
            self._site_id,
            self._config,
            self,
            ballot_n=1 + self._config.rank(self._site_id),
            skip=self._locally_complete,
            on_txn=self._complete_txn,
            on_done=lambda n: self._takeover_done(n, on_done),
        )
        self._completer.start()

    def _takeover_done(self, completed: int, on_done: Callable[[int], None]) -> None:
        self._completer = None
        on_done(completed)

    def recover_leader(self) -> None:
        """Replicated replacement for ``CoordinatorEngine.recover``.

        Local decision/END log shapes replay through the engine as
        before. Initiation-only shapes are *not* presumed aborted —
        a takeover may have decided them — and instead join the quorum
        sweep, which also surfaces transactions only the acceptors
        remember (registration reached a quorum, the local force's
        context was lost with the crash).
        """
        engine = self._site.coordinator
        assert engine is not None
        pending: dict[str, dict] = {}
        analyzed = 0
        for summary in summarize_coordinator_log(self._site.log):
            analyzed += 1
            if summary.has_end or summary.decision is not None:
                engine._recovery_action(summary)
            else:
                pending[summary.txn_id] = {
                    "participants": list(summary.participants),
                    "protocols": dict(summary.initiation_protocols),
                }
        self._recovering = True
        self._sim.record(
            self._site_id,
            "recovery",
            "replicated_sweep",
            analyzed=analyzed,
            local_pending=len(pending),
        )
        if self._completer is not None:
            self._completer.cancel()
        self._completer = DecisionCompleter(
            self._sim,
            self._site_id,
            self._config,
            self,
            ballot_n=1,
            extra=pending,
            skip=self._locally_complete,
            on_txn=self._complete_txn,
            on_done=self._leader_sweep_done,
        )
        self._completer.start()

    def defer_inquiry(self, message: Message) -> bool:
        """True if this INQUIRY (or late VOTE_YES) must wait for the
        recovery sweep.

        The engine answers an inquiry about an unknown transaction by
        the *inquirer's* presumption, and a Yes about one the same way.
        That is sound only once the sweep
        has proven the quorum holds no chosen value for it — before
        that, "unknown" may just mean the crash erased the local
        context, and a presumed-commit participant told "commit" while
        the sweep resolves the instance to the default abort diverges
        the enforced outcomes. Transactions the engine still has in its
        table answer from real state and pass straight through; the
        rest are held and redelivered when the sweep lands.
        """
        engine = self._site.coordinator
        if not self._recovering or engine is None:
            return False
        if engine.table.get(message.txn_id) is not None:
            return False
        self._held_inquiries.append(message)
        self._sim.record(
            self._site_id,
            "replication",
            "inquiry_deferred",
            txn=message.txn_id,
            inquirer=message.sender,
            kind=message.kind,
        )
        return True

    def _leader_sweep_done(self, completed: int) -> None:
        self._recovering = False
        self._completer = None
        self._sim.record(
            self._site_id,
            "recovery",
            "replicated_sweep_done",
            completed=completed,
        )
        held, self._held_inquiries = self._held_inquiries, []
        for message in held:
            self._site.deliver(message)

    def _locally_complete(self, txn_id: str) -> bool:
        engine = self._site.coordinator
        if engine is not None and engine.table.get(txn_id) is not None:
            return True
        for record in self._site.log.records_for(txn_id):
            if record.type is RecordType.END:
                return True
            if record.is_decision and record.get("by") == "coordinator":
                return True
        return False

    def _complete_txn(self, txn_id: str, value: str, info: dict) -> None:
        """A value is chosen at quorum: force it locally, then re-enter
        the engine's decision phase (notification, acks, END, GC)."""
        engine = self._site.coordinator
        if engine is None or self._locally_complete(txn_id):
            return
        outcome = Outcome.COMMIT if value == "commit" else Outcome.ABORT
        participants = list(info.get("participants") or [])
        protocols = dict(info.get("protocols") or {})
        policy = (
            engine.selector.select(protocols)
            if protocols
            else engine.selector.by_name("PrN")
        )
        record = decision_record(
            txn_id, value, participants=participants, role="coordinator"
        )
        # The leader's log is the replicating wrapper; takeover and
        # recovery decisions are already chosen at quorum, so they are
        # forced straight into the underlying log.
        log = getattr(self._site.log, "inner", self._site.log)
        epoch = self._epoch

        def stable() -> None:
            if epoch != self._epoch:
                return
            if engine.table.get(txn_id) is not None:
                return
            summary = CoordinatorLogSummary(
                txn_id=txn_id,
                has_initiation=False,
                initiation_protocols=dict(protocols),
                decision=outcome,
                has_end=False,
                participants=participants,
            )
            engine._reinitiate(summary, policy, outcome)
            if not self._is_leader:
                # §4.2 sends the recovered decision only to the
                # participants whose ack is expected; the rest are
                # presumption-covered and *inquire* — but their inquiry
                # channel is the dead leader. A takeover therefore
                # pushes the decision to them too (duplicate decisions
                # are enforced-once / blind-acked, so this is safe).
                ackers = {
                    p
                    for p in participants
                    if p in protocols
                    and policy.ack_expected(protocols[p], outcome)
                }
                for participant in participants:
                    if participant not in ackers:
                        engine._send(
                            DECISION_KINDS[outcome], participant, txn_id
                        )

        log.force_append_async(record, stable)

    # -- lifecycle ---------------------------------------------------------------

    def crash(self) -> None:
        self._epoch += 1
        for call in list(self._calls.values()):
            call.cancel()
        self._calls.clear()
        if self._completer is not None:
            self._completer.cancel()
            self._completer = None
        self._recovering = False
        self._held_inquiries.clear()
        if self._hb_timer is not None:
            self._hb_timer.cancel()
            self._hb_timer = None
        if self.acceptor is not None:
            self.acceptor.crash()
        if self.watcher is not None:
            self.watcher.crash()

    def recover(self) -> None:
        """Restart: acceptor state first (from disk), then roles."""
        if self.acceptor is not None:
            self.acceptor.recover()
        if self.watcher is not None:
            self.watcher.recover()
        engine = self._site.coordinator
        if self._is_leader:
            self._arm_heartbeat()
            if engine is not None:
                self.recover_leader()
        elif engine is not None:
            engine.recover()

    def collect_garbage(self) -> int:
        """GC sweep hook for ``Site.flush_and_gc``."""
        if self.acceptor is not None:
            return self.acceptor.collect_garbage()
        return 0

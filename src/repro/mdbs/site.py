"""A database site: log + store + local TM + commit-protocol engines.

A :class:`Site` bundles everything that lives at one node of the MDBS:

* a stable log and a KV store with a local transaction manager,
* a participant engine speaking the site's native 2PC variant,
* optionally a coordinator engine (any site may coordinate global
  transactions) with a fixed or dynamic protocol selector,
* crash/recovery orchestration tying all of the above together.

Message dispatch: the network delivers every message addressed to the
site to :meth:`deliver`, which routes by message kind — votes, acks and
inquiries to the coordinator engine; prepares and decisions to the
participant engine. A live transport also reports a peer's lost or
restored connection (:meth:`peer_down`/:meth:`peer_up`), and both
engines then fire the timers waiting on that peer early.
"""

from __future__ import annotations

from typing import Optional

from repro.db.kv import KVStore
from repro.db.local_tm import LocalTransactionManager
from repro.db.recovery import LocalRecoveryReport, recover_engine
from repro.errors import ProtocolError, SiteDownError
from repro.net.message import Message
from repro.net.network import Network
from repro.protocols.base import (
    ABORT,
    ACK,
    CL_CHECKPOINT,
    CL_RECOVER,
    CL_REDO,
    COMMIT,
    INQUIRY,
    PREPARE,
    TimeoutConfig,
    VOTE_NO,
    VOTE_READ,
    VOTE_YES,
    participant_spec,
)
from repro.protocols.coordinator import CoordinatorEngine
from repro.protocols.participant import ParticipantEngine
from repro.protocols.registry import PolicySelector
from repro.replication import (
    REPLICATION_KINDS,
    ReplicatedDecisionLog,
    ReplicatedSelector,
    ReplicationConfig,
    SiteReplication,
)
from repro.sim.kernel import Simulator
from repro.storage.pcp import CommitProtocolDirectory
from repro.storage.stable_log import StableLog


class Site:
    """One node of the simulated multidatabase system."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        pcp: CommitProtocolDirectory,
        site_id: str,
        protocol: str,
        selector: Optional[PolicySelector] = None,
        timeouts: Optional[TimeoutConfig] = None,
        read_only_optimization: bool = True,
        log: Optional[StableLog] = None,
        store: Optional[KVStore] = None,
        replication: Optional[ReplicationConfig] = None,
    ) -> None:
        """``log`` / ``store`` inject alternative storage backends (the
        live runtime passes file-backed ones); by default the site gets
        the in-memory log and a fresh KV store. ``replication`` (when
        it involves this site) wraps the leader's log in the replicating
        decision log, wraps the selector so every transaction registers
        with the quorum, and attaches the per-site replication facade."""
        self._sim = sim
        self._network = network
        self._pcp = pcp
        self._site_id = site_id
        self._protocol = protocol
        self._up = True
        self.crash_count = 0
        if replication is not None and not replication.involves(site_id):
            replication = None

        spec = participant_spec(protocol)
        self.log = log if log is not None else StableLog(sim, site_id)
        if replication is not None and site_id == replication.leader:
            self.log = ReplicatedDecisionLog(
                self.log, sim, site_id, network, replication
            )
        if replication is not None and selector is not None:
            selector = ReplicatedSelector(selector)
        self.store = store if store is not None else KVStore()
        self.tm = LocalTransactionManager(
            sim,
            site_id,
            self.log,
            self.store,
            force_updates=spec.forces_each_update,
            logless=spec.logless,
        )
        self.participant = ParticipantEngine(
            sim,
            site_id,
            spec,
            self.tm,
            self.log,
            network,
            timeouts,
            read_only_optimization=read_only_optimization,
        )
        self.coordinator: Optional[CoordinatorEngine] = None
        if selector is not None:
            self.coordinator = CoordinatorEngine(
                sim, site_id, self.log, network, pcp, selector, timeouts
            )
        self.replication: Optional[SiteReplication] = None
        if replication is not None:
            self.replication = SiteReplication(sim, network, replication, self)
        network.register(
            site_id,
            self.deliver,
            is_up=lambda: self._up,
            peer_down=self.peer_down,
            peer_up=self.peer_up,
        )

    # -- identity / status ------------------------------------------------------

    @property
    def site_id(self) -> str:
        return self._site_id

    @property
    def protocol(self) -> str:
        """The 2PC variant this site employs as a participant."""
        return self._protocol

    @property
    def is_up(self) -> bool:
        return self._up

    # -- message dispatch ----------------------------------------------------------

    def deliver(self, message: Message) -> None:
        """Route one delivered message to the right engine."""
        if not self._up:  # defensive; the network already checks liveness
            return
        kind = message.kind
        if kind == PREPARE:
            self.participant.on_prepare(message)
        elif kind in (COMMIT, ABORT):
            self.participant.on_decision(message)
        elif kind in (VOTE_YES, VOTE_NO, VOTE_READ):
            if kind == VOTE_YES and self._deferred(message):
                return
            self._require_coordinator().on_vote(message)
        elif kind == ACK:
            self._require_coordinator().on_ack(message)
        elif kind == INQUIRY:
            if self._deferred(message):
                return
            self._require_coordinator().on_inquiry(message)
        elif kind == CL_RECOVER:
            self._require_coordinator().on_cl_recover(message)
        elif kind == CL_CHECKPOINT:
            self._require_coordinator().on_cl_checkpoint(message)
        elif kind == CL_REDO:
            self.participant.on_cl_redo(message)
        elif kind in REPLICATION_KINDS:
            if self.replication is None:
                raise ProtocolError(
                    f"site {self._site_id!r} is outside the replication "
                    f"group but received {kind!r}"
                )
            self.replication.on_message(message)
        else:
            raise ProtocolError(
                f"site {self._site_id!r} received unknown message kind {kind!r}"
            )

    # -- connection events (live runtimes only) -----------------------------------

    def peer_down(self, peer: str) -> None:
        """``peer``'s connection closed: fire now every timer that
        waits on it to fail (its votes, its PREPAREs)."""
        if not self._up:
            return
        self._sim.record(self._site_id, "site", "peer_down", peer=peer)
        if self.coordinator is not None:
            self.coordinator.peer_down(peer)
        self.participant.peer_down(peer)

    def peer_up(self, peer: str) -> None:
        """``peer`` accepts connections again: send it now what the
        resend and inquiry timers would send it later."""
        if not self._up:
            return
        self._sim.record(self._site_id, "site", "peer_up", peer=peer)
        if self.coordinator is not None:
            self.coordinator.peer_up(peer)
        self.participant.peer_up(peer)

    def _deferred(self, message: Message) -> bool:
        """Held until a restarted replicated leader's sweep lands (a
        late Yes is answered like an inquiry, so it waits like one)."""
        return self.replication is not None and self.replication.defer_inquiry(
            message
        )

    def _require_coordinator(self) -> CoordinatorEngine:
        if self.coordinator is None:
            raise ProtocolError(
                f"site {self._site_id!r} has no coordinator engine but "
                f"received coordinator-bound traffic"
            )
        return self.coordinator

    # -- crash / recovery ----------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop: all volatile state is lost, the log closes."""
        if not self._up:
            return
        self._up = False
        self.crash_count += 1
        self._sim.record(self._site_id, "site", "crash")
        self.log.crash()
        self.tm.crash()
        self.participant.crash()
        if self.coordinator is not None:
            self.coordinator.crash()
        if self.replication is not None:
            self.replication.crash()

    def recover(self) -> LocalRecoveryReport:
        """Restart: local redo, re-adopt in-doubts, coordinator recovery."""
        if self._up:
            raise SiteDownError(f"site {self._site_id!r} is not down")
        self._up = True
        self._sim.record(self._site_id, "site", "recover")
        self.log.reopen()
        return self._run_recovery()

    def cold_recover(self) -> LocalRecoveryReport:
        """Boot-time recovery for a freshly constructed site.

        The live runtime's restart story: the old process died, a new
        one starts with an *open* log already holding the stable records
        read back from disk (and a durable store snapshot), but with no
        volatile state at all. Runs the same analysis/redo/re-adoption
        sequence as :meth:`recover` without the reopen step — the
        in-simulator behaviour of :meth:`recover` is untouched.
        """
        if not self._up:
            raise SiteDownError(f"site {self._site_id!r} is down")
        self._sim.record(self._site_id, "site", "recover")
        return self._run_recovery()

    def _run_recovery(self) -> LocalRecoveryReport:
        report = recover_engine(self.tm, self.log, self.store)
        in_doubt = {
            txn_id: info["coordinator"]
            for txn_id, info in report.in_doubt.items()
        }
        self.participant.recover(in_doubt)
        self.participant.requeue_decided_gc(
            report.committed, report.aborted, report.implicitly_aborted
        )
        if self.participant.spec.logless:
            # Coordinator-log site: nothing local to analyze — pull the
            # redo state back from the coordinators.
            self.participant.request_cl_recovery(self._pcp.coordinators())
        if self.replication is not None:
            # Acceptor state rebuilds from its ACCEPT records; a leader
            # recovers its coordinator role through the quorum sweep
            # instead of the local-log-only presumption path.
            self.replication.recover()
        elif self.coordinator is not None:
            self.coordinator.recover()
        return report

    # -- operational-correctness views (SiteView protocol) ---------------------------

    def retained_transactions(self) -> set[str]:
        """Transactions still occupying this site's protocol tables."""
        retained = set(self.participant.table.entries())
        if self.coordinator is not None:
            retained |= set(self.coordinator.table.entries())
        retained |= set(self.tm.active_transactions())
        retained |= set(self.tm.in_doubt_transactions())
        return retained

    def uncollected_log_transactions(self) -> set[str]:
        """Transactions with stable records still occupying the log."""
        return self.log.transactions()

    def flush_and_gc(self) -> int:
        """Background flush + checkpoint + GC sweep.

        Models "eventually": the log buffer is flushed, the store is
        checkpointed (committed state becomes durable — the write-ahead
        discipline that makes collecting a committed transaction's redo
        records safe), and then the GC sweep collects every forgotten
        transaction whose cover record is stable. The sweep ends with
        the log's one compaction, however many transactions it collected.

        Returns:
            Number of transactions whose records were collected.
        """
        if not self._up:
            return 0
        self.log.flush()
        self.tm.checkpoint()
        if self.participant.spec.logless:
            # The checkpoint made pulled/enforced commits durable here;
            # the coordinators may now release our redo records.
            self.participant.announce_checkpoint(self._pcp.coordinators())
        collected = self.participant.collect_garbage()
        if self.coordinator is not None:
            collected += self.coordinator.collect_garbage()
        if self.replication is not None:
            collected += self.replication.collect_garbage()
        self.log.compact()
        return collected

    def __repr__(self) -> str:
        state = "up" if self._up else "down"
        roles = "P+C" if self.coordinator is not None else "P"
        return f"Site({self._site_id!r}, {self._protocol}, {roles}, {state})"

"""Generic coordinator engine.

One engine drives every :class:`~repro.protocols.base.CoordinatorPolicy`
(PrN, PrA, PrC, PrAny, U2PC, C2PC): the policy supplies the protocol-
specific knobs, the engine supplies the machinery — voting phase,
decision phase, acknowledgement bookkeeping, timeouts and resends,
inquiry handling, crash recovery (§4.2 of the paper) and log garbage
collection.

Key behavioural points taken from the paper:

* The decision record (when one is written) is **forced before any
  decision message is sent**, so recovery can never resend a decision
  different from one a participant already received.
* On abort, acknowledgements are expected from *all* participants whose
  protocol acks aborts — even participants whose Yes vote was lost. A
  participant with no memory of the transaction acknowledges blindly
  (footnote 5), which is what makes this terminate.
* A transaction is forgotten (deleted from the protocol table — the
  ``DeletePT`` event of Definition 2) only when every expected ack has
  arrived and the end record, if the policy writes one, is appended.
* Inquiries about forgotten transactions are answered from the
  policy's presumption — for PrAny, the presumption of the *inquiring*
  participant's protocol.
* A Yes vote that arrives after the decision is an inquiry in all but
  name: its sender is prepared and in doubt. It is answered like one
  unless the decision phase already covers the sender.
* On the live runtimes a peer's lost connection fires the vote timer
  of each transaction awaiting its vote, and its restored connection
  gets the decisions it has not acked — early, with every timer kept
  as the backstop.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from repro.core.events import Outcome
from repro.net.message import Message
from repro.net.network import Network
from repro.protocols.base import (
    ABORT,
    CL_REDO,
    COMMIT,
    DECISION_KINDS,
    PREPARE,
    VOTE_YES,
    TimeoutConfig,
    disarm,
    outcome_of_kind,
    participant_spec,
)
from repro.protocols.recovery import CoordinatorLogSummary, summarize_coordinator_log
from repro.protocols.registry import PolicySelector
from repro.sim.kernel import Simulator, Timer
from repro.storage.log_records import (
    RecordType,
    decision_record,
    end_record,
    initiation_record,
    update_record,
)
from repro.storage.pcp import CommitProtocolDirectory
from repro.storage.protocol_table import ProtocolTable
from repro.storage.stable_log import StableLog


class CoordinatorState(enum.Enum):
    """Phases of commit processing at the coordinator."""

    VOTING = "voting"
    DECIDED = "decided"


@dataclass
class CoordinatorEntry:
    """Protocol-table entry for one transaction being coordinated."""

    txn_id: str
    policy_name: str
    policy: object  # CoordinatorPolicy; kept loose to avoid import cycle
    participants: list[str]
    protocols: dict[str, str]
    state: CoordinatorState = CoordinatorState.VOTING
    yes_votes: set[str] = field(default_factory=set)
    read_only: set[str] = field(default_factory=set)
    abort_override: bool = False
    decision: Optional[Outcome] = None
    # True once the decision is as durable as the policy demands (the
    # forced decision record is stable, or no force was required). The
    # force-before-send invariant: no decision message — including an
    # inquiry response — leaves while this is False.
    decision_stable: bool = False
    acks_pending: set[str] = field(default_factory=set)
    vote_timer: Optional[Timer] = None
    resend_timer: Optional[Timer] = None
    epoch: int = 0

    def cancel_timers(self) -> None:
        for timer in (self.vote_timer, self.resend_timer):
            if timer is not None:
                timer.cancel()


class CoordinatorEngine:
    """Commit-processing coordinator for one site."""

    def __init__(
        self,
        sim: Simulator,
        site_id: str,
        log: StableLog,
        network: Network,
        pcp: CommitProtocolDirectory,
        selector: PolicySelector,
        timeouts: Optional[TimeoutConfig] = None,
    ) -> None:
        self._sim = sim
        self._site_id = site_id
        self._log = log
        self._network = network
        self._pcp = pcp
        self._selector = selector
        self._timeouts = timeouts if timeouts is not None else TimeoutConfig()
        self.table = ProtocolTable(sim, site_id, role="coordinator")
        # txn -> record type whose stability licenses GC (None: nothing).
        self._gc_pending: dict[str, Optional[RecordType]] = {}
        # Coordinator-log retention: txn -> CL sites that have not yet
        # checkpointed the txn's redo; GC is blocked while non-empty.
        self._cl_retained: dict[str, set[str]] = {}
        self._epoch = 0
        # Counters used by the experiments.
        self.decisions_made = 0
        self.presumed_responses = 0

    # -- public API --------------------------------------------------------

    @property
    def selector(self) -> PolicySelector:
        return self._selector

    @property
    def gc_pending(self) -> dict[str, Optional[RecordType]]:
        return dict(self._gc_pending)

    def begin_commit(
        self,
        txn_id: str,
        participants: list[str],
        abort_override: bool = False,
    ) -> None:
        """Start commit processing: select a protocol, log, send prepares.

        Args:
            abort_override: decide abort even if every participant votes
                Yes — models a coordinator-side abort reason (operator
                abort, global constraint violation), which is how the
                paper's abort-case figures arise with all participants
                prepared.
        """
        participants = list(participants)
        protocols = self._pcp.protocols_of(participants)
        self._pcp.activate(participants)
        policy = self._selector.select(protocols)
        self._sim.record(
            self._site_id,
            "protocol",
            "select",
            txn=txn_id,
            protocol=policy.name,
            participants=len(participants),
        )
        entry = CoordinatorEntry(
            txn_id=txn_id,
            policy_name=policy.name,
            policy=policy,
            participants=participants,
            protocols=protocols,
            abort_override=abort_override,
            epoch=self._epoch,
        )
        self.table.insert(txn_id, entry)
        if policy.writes_initiation():
            # The initiation record must be stable before any PREPARE is
            # sent (a PrC/PrAny coordinator that crashes without it
            # would wrongly presume commit when a prepared participant
            # inquires), so voting starts from the force's completion —
            # at once on the in-memory log, after the tick's fsync on a
            # file log, at quorum on a replicated decision log.
            record = initiation_record(
                txn_id,
                participants,
                protocols if policy.initiation_includes_protocols() else None,
            )
            self._log.force_append_async(
                record, self._guarded(txn_id, self._start_voting)
            )
            return
        self._start_voting(entry)

    def _start_voting(self, entry: CoordinatorEntry) -> None:
        """Send PREPAREs and arm the vote timer (initiation is stable)."""
        # Implicitly prepared participants (IYV) cast no explicit vote:
        # having executed the work *is* the Yes vote, so they are
        # pre-counted and receive no PREPARE message.
        for participant in entry.participants:
            if participant_spec(entry.protocols[participant]).implicitly_prepared:
                entry.yes_votes.add(participant)
            else:
                self._send(PREPARE, participant, entry.txn_id)
        if self._votes_complete(entry):
            self._decide_from_votes(entry)
            return
        entry.vote_timer = self._sim.set_timer(
            self._timeouts.vote_timeout,
            self._guarded(entry.txn_id, self._on_vote_timeout),
            label=f"vote-timeout {entry.txn_id}",
        )

    # -- message handlers ------------------------------------------------------

    def on_vote(self, message: Message) -> None:
        """Handle VOTE_YES / VOTE_NO / VOTE_READ."""
        entry = self._live_entry(message.txn_id)
        if entry is None or entry.state is not CoordinatorState.VOTING:
            if message.kind == VOTE_YES:
                self._on_late_yes(message, entry)
            return
        if message.kind == "VOTE_NO":
            self._decide(entry, Outcome.ABORT)
            return
        piggybacked = message.get("updates")
        if piggybacked:
            # Coordinator log: the participant's redo records ride on
            # the Yes vote; they stabilize with the decision force.
            for key, before, after in piggybacked:
                record = update_record(message.txn_id, key, before, after)
                record.payload["site"] = message.sender
                self._log.append(record)
        if message.kind == "VOTE_READ":
            # Read-only optimization: the participant dropped out; it
            # needs no decision and will send no ack.
            entry.read_only.add(message.sender)
        else:
            entry.yes_votes.add(message.sender)
        if self._votes_complete(entry):
            self._decide_from_votes(entry)

    def _on_late_yes(
        self, message: Message, entry: Optional[CoordinatorEntry]
    ) -> None:
        """A Yes for a transaction already decided (or forgotten).

        Typically a No overtook it: the abort went to the counted Yes
        voters and the expected ackers only, so a presumed-abort sender
        would sit prepared until its inquiry timer fired. Answer it now,
        the way :meth:`on_inquiry` would — but only if nothing else
        will, since a duplicate decision costs a message and an ack.
        """
        sender = message.sender
        if entry is not None:
            if not entry.decision_stable:
                # The decision phase has not sent anything yet:
                # _complete_decision sends the abort to every yes-voter.
                entry.yes_votes.add(sender)
                return
            if sender in entry.yes_votes or sender in entry.acks_pending:
                return
            entry.yes_votes.add(sender)
        else:
            protocol = self._pcp.protocol_of(sender)
            policy = self._selector.select({sender: protocol})
            if policy.ack_expected(protocol, Outcome.ABORT):
                # The coordinator forgot only after this sender's ack,
                # so it already holds the decision.
                return
        self._answer(message.txn_id, sender, entry)

    def _votes_complete(self, entry: CoordinatorEntry) -> bool:
        return entry.yes_votes | entry.read_only == set(entry.participants)

    def _decide_from_votes(self, entry: CoordinatorEntry) -> None:
        outcome = Outcome.ABORT if entry.abort_override else Outcome.COMMIT
        self._decide(entry, outcome)

    def on_ack(self, message: Message) -> None:
        """Handle an ACK; ignores protocol-violating or stale acks."""
        entry = self._live_entry(message.txn_id)
        if entry is None or entry.state is not CoordinatorState.DECIDED:
            return
        if message.sender not in entry.acks_pending:
            # "The coordinator will not consider this message since this
            # message is a violation of its protocol" (§2) — or simply a
            # duplicate.
            return
        entry.acks_pending.discard(message.sender)
        if not entry.acks_pending:
            self._finish(entry)

    def on_inquiry(self, message: Message) -> None:
        """Handle an INQUIRY from a participant (paper §4.2)."""
        txn_id = message.txn_id
        inquirer = message.sender
        self._sim.record(
            self._site_id, "protocol", "inquiry", txn=txn_id, inquirer=inquirer
        )
        entry = self._live_entry(txn_id)
        if entry is not None:
            if entry.decision is None or not entry.decision_stable:
                # Still in the voting phase — or decided but the forced
                # decision record is not yet stable at a quorum
                # (force-before-send applies to inquiry responses
                # too): the participant stays blocked and will inquire
                # again.
                return
        self._answer(txn_id, inquirer, entry)

    def _answer(
        self, txn_id: str, participant: str, entry: Optional[CoordinatorEntry]
    ) -> None:
        """Tell an in-doubt participant the stable decision, or — the
        transaction forgotten — the policy's presumption for its
        protocol."""
        if entry is not None:
            assert entry.decision is not None
            self._respond(txn_id, participant, entry.decision, presumed=False)
            return
        protocol = self._pcp.protocol_of(participant)
        policy = self._selector.select({participant: protocol})
        self.presumed_responses += 1
        self._respond(
            txn_id, participant, policy.respond_unknown(protocol), presumed=True
        )

    # -- connection events -------------------------------------------------------------

    def peer_down(self, peer: str) -> None:
        """``peer``'s connection closed: fire the vote timer of every
        transaction still waiting for its vote. Before deciding, a
        coordinator may always abort."""
        for entry in self._current_entries():
            if (
                entry.state is CoordinatorState.VOTING
                and peer in entry.participants
                and peer not in entry.yes_votes
                and peer not in entry.read_only
                and disarm(entry.vote_timer)
            ):
                self._on_vote_timeout(entry, peer)

    def peer_up(self, peer: str) -> None:
        """``peer`` is reachable again: send it now each stable decision
        it has not acked. The resend timer stays armed for the others."""
        for entry in self._current_entries():
            if (
                entry.state is CoordinatorState.DECIDED
                and entry.decision_stable
                and peer in entry.acks_pending
            ):
                assert entry.decision is not None
                self._send(DECISION_KINDS[entry.decision], peer, entry.txn_id)

    def _current_entries(self) -> list[CoordinatorEntry]:
        return [
            entry
            for entry in self.table.entries().values()
            if entry.epoch == self._epoch
        ]

    # -- coordinator-log support -----------------------------------------------------

    def on_cl_recover(self, message: Message) -> None:
        """Answer a restarted CL site's pull for its redo state.

        Scans the stable log for update records tagged with the
        requesting site whose transaction has a committed decision, and
        ships them back in one CL_REDO message.
        """
        site = message.sender
        committed: set[str] = set()
        updates_by_txn: dict[str, list[list]] = {}
        for record in self._log.stable_records():
            if record.type is RecordType.UPDATE and record.get("site") == site:
                updates_by_txn.setdefault(record.txn_id, []).append(
                    [record.get("key"), record.get("before"), record.get("after")]
                )
            elif (
                record.type is RecordType.COMMIT
                and record.get("by") == "coordinator"
            ):
                committed.add(record.txn_id)
        redo = [
            {"txn": txn_id, "updates": updates}
            for txn_id, updates in sorted(updates_by_txn.items())
            if txn_id in committed
        ]
        self._sim.record(
            self._site_id, "protocol", "cl_redo", to=site, txns=len(redo)
        )
        self._network.send(
            Message(CL_REDO, self._site_id, site, "", {"txns": redo})
        )

    def on_cl_checkpoint(self, message: Message) -> None:
        """A CL site checkpointed: release its retained redo records."""
        site = message.sender
        for txn_id in list(self._cl_retained):
            self._cl_retained[txn_id].discard(site)
            if not self._cl_retained[txn_id]:
                del self._cl_retained[txn_id]

    # -- crash / recovery ----------------------------------------------------------

    def crash(self) -> None:
        """Lose all volatile coordinator state."""
        self._epoch += 1
        for entry in self.table.entries().values():
            entry.cancel_timers()
        self.table.clear_volatile()
        self._cl_retained.clear()
        self._pcp.crash()

    def recover(self) -> list[str]:
        """Rebuild the protocol table from the stable log (§4.2).

        Returns:
            Transaction ids whose decision phase was re-initiated.
        """
        reinitiated: list[str] = []
        summaries = summarize_coordinator_log(self._log)
        for summary in summaries:
            action = self._recovery_action(summary)
            if action is not None:
                reinitiated.append(summary.txn_id)
        # Conservatively re-retain coordinator-log redo records: the
        # volatile checkpoint bookkeeping was lost, so every committed
        # txn with site-tagged updates is held until the next
        # CL_CHECKPOINT from the owning site arrives.
        committed = {
            r.txn_id
            for r in self._log.stable_records()
            if r.type is RecordType.COMMIT and r.get("by") == "coordinator"
        }
        for record in self._log.stable_records():
            if (
                record.type is RecordType.UPDATE
                and record.get("site")
                and record.txn_id in committed
            ):
                self._cl_retained.setdefault(record.txn_id, set()).add(
                    record.get("site")
                )
        self._sim.record(
            self._site_id,
            "recovery",
            "coordinator_done",
            analyzed=len(summaries),
            reinitiated=len(reinitiated),
        )
        return reinitiated

    def _recovery_action(self, summary: CoordinatorLogSummary) -> Optional[str]:
        txn_id = summary.txn_id
        if summary.has_end:
            # Fully terminated; its records can be collected.
            self._gc_pending[txn_id] = RecordType.END
            return None
        policy = self._policy_for_recovery(summary)
        if summary.decision is not None:
            outcome = summary.decision
            if not policy.writes_end(outcome):
                # e.g. PrC commit: the forced decision record completes
                # the protocol; nothing to resend.
                self._gc_pending[txn_id] = policy.gc_cover(outcome)
                return None
            return self._reinitiate(summary, policy, outcome)
        if summary.has_initiation:
            # Initiation without decision: abort, per PrC / PrAny rules.
            return self._reinitiate(summary, policy, Outcome.ABORT)
        return None

    def _policy_for_recovery(self, summary: CoordinatorLogSummary):
        """Reconstruct the policy used for a logged transaction (§4.2).

        The classification is by record shape: an initiation record with
        recorded protocols means PrAny was used; one without means PrC;
        a decision record without an initiation record means PrN or PrA
        (an abort can only be PrN, since PrA never logs aborts; for a
        commit the two behave identically during recovery). Fixed-policy
        coordinators map every shape back to their own policy.
        """
        if summary.has_initiation:
            name = "PrAny" if summary.initiation_protocols else "PrC"
        elif summary.decision is Outcome.ABORT:
            name = "PrN"
        else:
            name = "PrA"
        return self._selector.by_name(name)

    def _reinitiate(self, summary: CoordinatorLogSummary, policy, outcome: Outcome):
        """Re-enter the decision phase for a recovered transaction."""
        txn_id = summary.txn_id
        participants = summary.participants
        protocols = summary.initiation_protocols or {
            p: self._pcp.protocol_of(p) for p in participants if self._pcp.knows(p)
        }
        # Recovery sends the decision only to the participants whose ack
        # is expected (§4.2: not to PrA participants on abort, not to
        # PrC participants on commit) — the rest are covered by their
        # own presumption and will inquire if in doubt.
        ackers = {
            p
            for p in participants
            if p in protocols and policy.ack_expected(protocols[p], outcome)
        }
        self._sim.record(
            self._site_id,
            "protocol",
            "decide",
            txn=txn_id,
            decision=outcome.value,
            recovered=True,
        )
        entry = CoordinatorEntry(
            txn_id=txn_id,
            policy_name=policy.name,
            policy=policy,
            participants=participants,
            protocols=dict(protocols),
            state=CoordinatorState.DECIDED,
            decision=outcome,
            # Recovery replays a decision read from (or covered by) the
            # stable log, so it is durable by construction.
            decision_stable=True,
            acks_pending=set(ackers),
            epoch=self._epoch,
        )
        self.table.insert(txn_id, entry)
        if not ackers:
            self._finish(entry)
            return txn_id
        for participant in sorted(ackers):
            self._send(DECISION_KINDS[outcome], participant, txn_id)
        entry.resend_timer = self._sim.set_timer(
            self._timeouts.resend_interval,
            self._guarded(txn_id, self._on_resend_timeout),
            label=f"resend {txn_id}",
        )
        return txn_id

    # -- garbage collection ----------------------------------------------------------

    def collect_garbage(self) -> int:
        """GC log records of forgotten txns whose cover record is stable.

        Returns:
            Number of transactions whose records were collected.
        """
        collected = 0
        for txn_id, cover in list(self._gc_pending.items()):
            if cover is not None and not self._cover_is_stable(txn_id, cover):
                continue
            if self._cl_retained.get(txn_id):
                # Coordinator-log redo still owed to a log-less site
                # that has not checkpointed: hold everything.
                continue
            self._log.garbage_collect(txn_id)
            del self._gc_pending[txn_id]
            collected += 1
        return collected

    def _cover_is_stable(self, txn_id: str, cover: RecordType) -> bool:
        for record in self._log.records_for(txn_id):
            if record.type is not cover:
                continue
            if record.type in (RecordType.COMMIT, RecordType.ABORT):
                if record.get("by") != "coordinator":
                    continue
            return True
        return False

    # -- internals -------------------------------------------------------------------

    def _decide(self, entry: CoordinatorEntry, outcome: Outcome) -> None:
        """Fix the outcome and run the decision phase (normal processing)."""
        entry.state = CoordinatorState.DECIDED
        entry.decision = outcome
        entry.cancel_timers()
        self.decisions_made += 1
        # Read-only participants dropped out at the vote; the decision
        # phase concerns only the updaters.
        updaters = [p for p in entry.participants if p not in entry.read_only]
        policy = entry.policy
        # On a replicated decision log the decision does not exist
        # until its record is stable at a quorum: a crash before the
        # quorum must leave no evidence of it, so the decide trace is
        # emitted from the stability callback instead of here. Any
        # other log holds the record once it is appended, however late
        # its force completes, so the decision exists now.
        defer_decide = (
            bool(updaters)
            and policy.forces_decision_record(outcome)
            and self._log.decides_at_stability
        )
        if not defer_decide:
            self._sim.record(
                self._site_id,
                "protocol",
                "decide",
                txn=entry.txn_id,
                decision=outcome.value,
                read_only=len(entry.read_only),
            )
        if not updaters:
            # Every participant was read-only: the transaction is over
            # with no decision phase at all (the read-only optimization
            # in full effect). No decision record is needed — there is
            # nothing to redo anywhere.
            self._finish(entry)
            return
        if policy.forces_decision_record(outcome):
            # Force-before-send: the decision messages go out from the
            # force's completion callback — at once on the in-memory
            # log, after the tick's fsync on a file log, at quorum on a
            # replicated decision log.
            self._log.force_append_async(
                decision_record(
                    entry.txn_id,
                    outcome.value,
                    participants=updaters,
                    role="coordinator",
                ),
                self._guarded(
                    entry.txn_id,
                    self._stable_decide if defer_decide
                    else self._complete_decision,
                ),
            )
            return
        self._complete_decision(entry)

    def _stable_decide(self, entry: CoordinatorEntry) -> None:
        """Decide-at-stability path (a replicated decision log): the
        decision record just became stable at a quorum, so the decision
        now officially exists — record it, then run the decision
        phase."""
        assert entry.decision is not None
        self._sim.record(
            self._site_id,
            "protocol",
            "decide",
            txn=entry.txn_id,
            decision=entry.decision.value,
            read_only=len(entry.read_only),
        )
        self._complete_decision(entry)

    def _complete_decision(self, entry: CoordinatorEntry) -> None:
        """Decision durable (or no force required): send it out."""
        assert entry.decision is not None
        outcome = entry.decision
        policy = entry.policy
        entry.decision_stable = True
        updaters = [p for p in entry.participants if p not in entry.read_only]
        # Acks are expected from every updater whose protocol acks this
        # decision — even one whose Yes vote was lost (it will blind-ack
        # if it never heard of the transaction, footnote 5).
        entry.acks_pending = {
            p
            for p in updaters
            if policy.ack_expected(entry.protocols[p], outcome)
        }
        if outcome is Outcome.COMMIT:
            targets = set(updaters)
        else:
            # Abort goes to the yes-voters (the prepared participants
            # that need releasing) plus anyone whose ack we must have.
            targets = set(entry.yes_votes) | entry.acks_pending
        for participant in sorted(targets):
            self._send(DECISION_KINDS[outcome], participant, entry.txn_id)
        if not entry.acks_pending:
            self._finish(entry)
            return
        entry.resend_timer = self._sim.set_timer(
            self._timeouts.resend_interval,
            self._guarded(entry.txn_id, self._on_resend_timeout),
            label=f"resend {entry.txn_id}",
        )

    def _finish(self, entry: CoordinatorEntry) -> None:
        """All expected acks received: end record, forget, queue GC."""
        assert entry.decision is not None
        policy = entry.policy
        entry.cancel_timers()
        all_read_only = entry.read_only == set(entry.participants)
        if all_read_only:
            # Nothing was decided or logged beyond a possible initiation
            # record; cover it with an end record and forget.
            if policy.writes_initiation():
                self._log.append(end_record(entry.txn_id))
                self._gc_pending[entry.txn_id] = RecordType.END
            self.table.delete(entry.txn_id)
            self._pcp.deactivate(
                p for p in entry.participants if not self._still_active(p)
            )
            return
        wrote_anything = (
            policy.writes_initiation()
            or policy.forces_decision_record(entry.decision)
        )
        if policy.writes_end(entry.decision):
            self._log.append(end_record(entry.txn_id))
            self._gc_pending[entry.txn_id] = RecordType.END
        elif wrote_anything:
            self._gc_pending[entry.txn_id] = policy.gc_cover(entry.decision)
        if entry.decision is Outcome.COMMIT:
            # Coordinator-log retention: committed redo records stay in
            # our log until every log-less participant checkpoints.
            cl_sites = {
                p
                for p, protocol in entry.protocols.items()
                if participant_spec(protocol).logless
            }
            if cl_sites:
                self._cl_retained[entry.txn_id] = cl_sites
        self.table.delete(entry.txn_id)  # the DeletePT event
        self._pcp.deactivate(
            p for p in entry.participants if not self._still_active(p)
        )

    def _still_active(self, participant: str) -> bool:
        return any(
            participant in e.participants for e in self.table.entries().values()
        )

    def _on_vote_timeout(
        self, entry: CoordinatorEntry, peer: Optional[str] = None
    ) -> None:
        """``peer``: the participant whose lost connection fired the
        timer early, or ``None`` when the timer itself fired."""
        if entry.state is CoordinatorState.VOTING:
            early = {} if peer is None else {"peer": peer}
            self._sim.record(
                self._site_id, "protocol", "vote_timeout", txn=entry.txn_id, **early
            )
            self._decide(entry, Outcome.ABORT)

    def _on_resend_timeout(self, entry: CoordinatorEntry) -> None:
        if entry.state is not CoordinatorState.DECIDED or not entry.acks_pending:
            return
        assert entry.decision is not None
        for participant in sorted(entry.acks_pending):
            self._send(DECISION_KINDS[entry.decision], participant, entry.txn_id)
        entry.resend_timer = self._sim.set_timer(
            self._timeouts.resend_interval,
            self._guarded(entry.txn_id, self._on_resend_timeout),
            label=f"resend {entry.txn_id}",
        )

    def _respond(
        self, txn_id: str, inquirer: str, outcome: Outcome, presumed: bool
    ) -> None:
        self._sim.record(
            self._site_id,
            "protocol",
            "respond",
            txn=txn_id,
            to=inquirer,
            decision=outcome.value,
            presumed=presumed,
        )
        self._send(DECISION_KINDS[outcome], inquirer, txn_id)

    def _send(self, kind: str, receiver: str, txn_id: str) -> None:
        self._network.send(
            Message(
                kind,
                self._site_id,
                receiver,
                txn_id,
                {"coordinator": self._site_id},
            )
        )

    def _live_entry(self, txn_id: str) -> Optional[CoordinatorEntry]:
        entry = self.table.get(txn_id)
        if entry is None or entry.epoch != self._epoch:
            return None
        return entry

    def _guarded(
        self, txn_id: str, handler: Callable[[CoordinatorEntry], None]
    ) -> Callable[[], None]:
        """Wrap a timer callback so it no-ops after crash/forget."""
        epoch = self._epoch

        def fire() -> None:
            if epoch != self._epoch:
                return
            entry = self.table.get(txn_id)
            if entry is None or entry.epoch != epoch:
                return
            handler(entry)

        return fire

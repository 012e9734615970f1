"""Common vocabulary and policy interface for the 2PC family.

Two kinds of objects live here:

* :class:`ParticipantSpec` — the participant-side behaviour of PrN, PrA
  and PrC, which differs only in whether a final decision's record is
  *forced* and whether the decision is *acknowledged*:

  ============  =====================  =====================
  protocol      on commit              on abort
  ============  =====================  =====================
  PrN           force record, ack      force record, ack
  PrA           force record, ack      lazy record, no ack
  PrC           lazy record, no ack    force record, ack
  ============  =====================  =====================

* :class:`CoordinatorPolicy` — the coordinator-side knobs a generic
  coordinator engine (``repro.protocols.coordinator``) consults:
  initiation record or not, decision-record forcing, which participants
  must acknowledge which decision, end-record rules, the garbage-
  collection cover record, and the presumption used to answer
  inquiries about forgotten transactions.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

from repro.core.events import Outcome
from repro.errors import UnknownProtocolError
from repro.sim.kernel import Timer
from repro.storage.log_records import RecordType

# -- message kinds ----------------------------------------------------------

PREPARE = "PREPARE"
VOTE_YES = "VOTE_YES"
VOTE_NO = "VOTE_NO"
#: The read-only optimization's third vote (paper refs [15, 1, 4]): a
#: participant whose subtransaction wrote nothing votes READ, releases
#: its locks and drops out — it needs no decision and sends no ack.
VOTE_READ = "VOTE_READ"
COMMIT = "COMMIT"
ABORT = "ABORT"
ACK = "ACK"
INQUIRY = "INQUIRY"
#: Coordinator-log traffic (paper ref [17]): a log-less participant
#: pulls redo information from its coordinators after a restart, and
#: tells them when a local checkpoint has made pulled state durable.
CL_RECOVER = "CL_RECOVER"
CL_REDO = "CL_REDO"
CL_CHECKPOINT = "CL_CHECKPOINT"

DECISION_KINDS = {Outcome.COMMIT: COMMIT, Outcome.ABORT: ABORT}


def outcome_of_kind(kind: str) -> Outcome:
    """Map a COMMIT/ABORT message kind back to an outcome."""
    if kind == COMMIT:
        return Outcome.COMMIT
    if kind == ABORT:
        return Outcome.ABORT
    raise ValueError(f"message kind {kind!r} is not a decision")


# -- timeouts -----------------------------------------------------------------


@dataclass(frozen=True)
class TimeoutConfig:
    """Timeout settings for commit processing (virtual time units).

    Defaults assume a network latency around one time unit; all values
    are deliberately generous multiples so timeouts fire only on real
    failures, not jitter.
    """

    #: Coordinator: how long to wait for votes before deciding abort.
    vote_timeout: float = 10.0
    #: Coordinator: interval between decision re-sends to non-ackers.
    resend_interval: float = 10.0
    #: Participant: how long to stay prepared before inquiring.
    inquiry_timeout: float = 8.0
    #: Participant: interval between inquiry retries.
    inquiry_retry: float = 10.0
    #: Participant: how long a subtransaction may stay active (no
    #: PREPARE seen) before the participant unilaterally aborts it.
    active_timeout: float = 30.0


#: Timeouts an order of magnitude above the defaults, for runs where a
#: timer must never race the work it guards: wall-clock jitter on the
#: live runtimes, receive-queue backlogs in the simulator.
#: Sim and live twins of a pinned workload share them, so neither side
#: decides by timer what the other decides by message.
RELAXED_TIMEOUTS = TimeoutConfig(
    vote_timeout=120.0,
    resend_interval=60.0,
    inquiry_timeout=90.0,
    inquiry_retry=60.0,
    active_timeout=240.0,
)


def disarm(timer: Optional[Timer]) -> bool:
    """Cancel ``timer`` if it is armed; whether it was. A connection
    event fires a timer's handler early only through this, so the
    handler runs at most once per arming."""
    if timer is None or not timer.active:
        return False
    timer.cancel()
    return True


# -- participant behaviour ----------------------------------------------------


@dataclass(frozen=True)
class DecisionHandling:
    """How a participant treats one kind of final decision."""

    force_record: bool
    acknowledge: bool


@dataclass(frozen=True)
class ParticipantSpec:
    """Participant-side behaviour of one commit-protocol variant.

    Besides the per-decision forcing/ack table shared by the 2PC
    variants, two flags model the implicit-yes-vote family (IYV, the
    paper's ref [3], named in its conclusion as the next integration
    target):

    * ``implicitly_prepared`` — the participant is continuously in the
      prepared state: there is no voting round (the coordinator sends
      no PREPARE and the participant casts no explicit vote), and the
      participant can no longer abort unilaterally once it has executed
      work.
    * ``forces_each_update`` — every update record is forced as the
      operation executes (the price of skipping the prepare force).
    * ``logless`` — the coordinator-log family (CL, the paper's ref
      [17]): the participant writes *nothing* to local stable storage;
      its redo records are piggybacked on the Yes vote and force-logged
      at the coordinator, and restart recovery pulls redo back from the
      coordinators.
    """

    name: str
    on_commit: DecisionHandling
    on_abort: DecisionHandling
    implicitly_prepared: bool = False
    forces_each_update: bool = False
    logless: bool = False

    def handling(self, outcome: Outcome) -> DecisionHandling:
        return self.on_commit if outcome is Outcome.COMMIT else self.on_abort

    def will_ack(self, outcome: Outcome) -> bool:
        """True if this participant acknowledges the given decision."""
        return self.handling(outcome).acknowledge


PARTICIPANT_SPECS: dict[str, ParticipantSpec] = {
    "PrN": ParticipantSpec(
        name="PrN",
        on_commit=DecisionHandling(force_record=True, acknowledge=True),
        on_abort=DecisionHandling(force_record=True, acknowledge=True),
    ),
    "PrA": ParticipantSpec(
        name="PrA",
        on_commit=DecisionHandling(force_record=True, acknowledge=True),
        on_abort=DecisionHandling(force_record=False, acknowledge=False),
    ),
    "PrC": ParticipantSpec(
        name="PrC",
        on_commit=DecisionHandling(force_record=False, acknowledge=False),
        on_abort=DecisionHandling(force_record=True, acknowledge=True),
    ),
    # Implicit yes-vote: decision handling follows PrA (commit forced
    # and acked, abort lazy and silent; abort presumption), but the
    # whole voting phase disappears — participants are continuously
    # prepared, paying a force per update instead.
    "IYV": ParticipantSpec(
        name="IYV",
        on_commit=DecisionHandling(force_record=True, acknowledge=True),
        on_abort=DecisionHandling(force_record=False, acknowledge=False),
        implicitly_prepared=True,
        forces_each_update=True,
    ),
    # Coordinator log: the participant never touches its own stable
    # storage (force_record is meaningless and False); it acknowledges
    # both decisions so the coordinator can track what it has enforced.
    "CL": ParticipantSpec(
        name="CL",
        on_commit=DecisionHandling(force_record=False, acknowledge=True),
        on_abort=DecisionHandling(force_record=False, acknowledge=True),
        logless=True,
    ),
}


def participant_spec(protocol: str) -> ParticipantSpec:
    """The participant behaviour table for ``protocol``.

    Raises:
        UnknownProtocolError: for names outside {PrN, PrA, PrC}.
    """
    try:
        return PARTICIPANT_SPECS[protocol]
    except KeyError:
        raise UnknownProtocolError(
            f"unknown participant protocol {protocol!r}; "
            f"known: {sorted(PARTICIPANT_SPECS)}"
        ) from None


def participant_will_ack(protocol: str, outcome: Outcome) -> bool:
    """Whether a participant running ``protocol`` acks ``outcome``."""
    return participant_spec(protocol).will_ack(outcome)


# -- coordinator policy ---------------------------------------------------------


class CoordinatorPolicy(abc.ABC):
    """Coordinator-side behaviour of one commit protocol.

    A policy is stateless; per-transaction state lives in the
    coordinator engine. One engine instance drives any policy.
    """

    #: Protocol name as it appears in logs, traces and reports.
    name: str = ""

    # -- logging ------------------------------------------------------------

    @abc.abstractmethod
    def writes_initiation(self) -> bool:
        """Force-write an initiation record before the voting phase?"""

    def initiation_includes_protocols(self) -> bool:
        """Record each participant's protocol in the initiation record?

        Only PrAny needs this (§4.1 of the paper).
        """
        return False

    @abc.abstractmethod
    def forces_decision_record(self, outcome: Outcome) -> bool:
        """Force-write a decision record for ``outcome``?

        ``False`` means *no decision record at all* (the presumed
        protocols never write lazy decision records at the coordinator).
        """

    @abc.abstractmethod
    def writes_end(self, outcome: Outcome) -> bool:
        """Write a (non-forced) end record once all expected acks are in?"""

    # -- acknowledgements --------------------------------------------------------

    @abc.abstractmethod
    def ack_expected(self, participant_protocol: str, outcome: Outcome) -> bool:
        """Must the coordinator wait for this participant's ack?"""

    # -- garbage collection ---------------------------------------------------------

    def gc_cover(self, outcome: Outcome) -> Optional[RecordType]:
        """Record type whose stability licenses GC of the txn's records.

        ``None`` means nothing was logged, so there is nothing to cover
        (PrA aborts). The default — an END record — fits every protocol
        that writes one; PrC overrides the commit case (the forced
        COMMIT record logically eliminates the initiation record).
        """
        return RecordType.END if self.writes_end(outcome) else None

    # -- presumption -----------------------------------------------------------------

    @abc.abstractmethod
    def respond_unknown(self, inquirer_protocol: str) -> Outcome:
        """Answer an inquiry about a transaction no longer in the table."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"

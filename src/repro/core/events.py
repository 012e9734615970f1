"""ACTA-style significant events.

The paper expresses its safety criterion in ACTA, a first-order logic
over transaction *significant events* with a precedence relation. We
model the events Definition 2 quantifies over:

* ``DECIDE`` — ``Decide_C(Commit_T)`` / ``Decide_C(Abort_T)``: the
  coordinator fixes the transaction's outcome.
* ``DELETE_PT`` — ``DeletePT_C(T)``: the coordinator deletes T from its
  protocol table (forgets the transaction).
* ``INQUIRY`` — ``INQ_ti``: a participant inquires about its
  subtransaction ti.
* ``RESPOND`` — ``Respond_C(Outcome_ti)``: the coordinator's reply.
* ``ENFORCE`` — a participant enforces a final decision locally (used
  by the atomicity checker; not part of Definition 2 itself).
* ``FORGET_P`` — a participant forgets the transaction (Definition 1,
  item 3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class Outcome(enum.Enum):
    """Final outcome of a transaction."""

    COMMIT = "commit"
    ABORT = "abort"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @classmethod
    def parse(cls, text: str) -> "Outcome":
        outcome = _OUTCOMES.get(text)
        if outcome is None:
            raise ValueError(f"unknown outcome {text!r}")
        return outcome

    @property
    def opposite(self) -> "Outcome":
        return Outcome.ABORT if self is Outcome.COMMIT else Outcome.COMMIT


#: ``Outcome(text)`` is slow, and histories parse one outcome per event.
_OUTCOMES = {outcome.value: outcome for outcome in Outcome}


class EventKind(enum.Enum):
    """Kinds of significant events in a commit-processing history."""

    DECIDE = "decide"
    DELETE_PT = "delete_pt"
    INQUIRY = "inquiry"
    RESPOND = "respond"
    ENFORCE = "enforce"
    FORGET_P = "forget_p"


@dataclass(frozen=True)
class SignificantEvent:
    """One significant event in the history H.

    Attributes:
        kind: which significant event this is.
        txn_id: the (global) transaction T.
        site: the site at which the event occurred — the coordinator for
            DECIDE/DELETE_PT/RESPOND, a participant for the others.
        seq: position in the global total order (the precedence
            relation: ``a`` precedes ``b`` iff ``a.seq < b.seq``).
        time: virtual time, for reporting.
        outcome: COMMIT/ABORT for DECIDE, RESPOND and ENFORCE events.
        peer: for INQUIRY events, the coordinator being asked; for
            RESPOND events, the participant being answered.
    """

    kind: EventKind
    txn_id: str
    site: str
    seq: int
    time: float
    outcome: Optional[Outcome] = None
    peer: str = ""

    def precedes(self, other: "SignificantEvent") -> bool:
        """The ACTA precedence relation (→) over the total order."""
        return self.seq < other.seq

    def __str__(self) -> str:
        out = f"={self.outcome.value}" if self.outcome else ""
        peer = f" peer={self.peer}" if self.peer else ""
        return (
            f"{self.kind.value}{out}({self.txn_id}) @ {self.site} "
            f"[seq={self.seq}, t={self.time:.3f}]{peer}"
        )

"""The history H: significant events extracted from a simulation trace.

A :class:`History` is the executable counterpart of the paper's ACTA
history — the complete record of a run's commit-processing events with
a total precedence order. It is built from a
:class:`~repro.sim.tracing.TraceRecorder` by mapping trace events onto
the significant-event vocabulary of :mod:`repro.core.events`:

========================  ==================================  ===========
trace (category.name)     condition                           event kind
========================  ==================================  ===========
``protocol.decide``       at the coordinator                  DECIDE
``protocol.forget``       ``role == "coordinator"``           DELETE_PT
``protocol.forget``       ``role == "participant"``           FORGET_P
``protocol.inquiry``      recorded by the coordinator         INQUIRY
``protocol.respond``      recorded by the coordinator         RESPOND
``db.commit``/``db.abort``  at any site                       ENFORCE
========================  ==================================  ===========
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.core.events import EventKind, Outcome, SignificantEvent
from repro.sim.tracing import TraceEvent, TraceRecorder


def _decide(event: TraceEvent) -> SignificantEvent:
    details = event.details
    return SignificantEvent(
        EventKind.DECIDE, details.get("txn", ""), event.site, event.seq,
        event.time, Outcome.parse(details["decision"]),
    )


def _forget(event: TraceEvent) -> SignificantEvent:
    details = event.details
    by_coordinator = details.get("role", "coordinator") == "coordinator"
    return SignificantEvent(
        EventKind.DELETE_PT if by_coordinator else EventKind.FORGET_P,
        details.get("txn", ""), event.site, event.seq, event.time,
    )


def _inquiry(event: TraceEvent) -> SignificantEvent:
    details = event.details
    return SignificantEvent(
        EventKind.INQUIRY, details.get("txn", ""), details.get("inquirer", ""),
        event.seq, event.time, peer=event.site,
    )


def _respond(event: TraceEvent) -> SignificantEvent:
    details = event.details
    return SignificantEvent(
        EventKind.RESPOND, details.get("txn", ""), event.site, event.seq,
        event.time, Outcome.parse(details["decision"]), details.get("to", ""),
    )


def _enforce(event: TraceEvent) -> SignificantEvent:
    return SignificantEvent(
        EventKind.ENFORCE, event.details.get("txn", ""), event.site, event.seq,
        event.time, Outcome.parse(event.name),
    )


#: Each trace key of the table above and its significant event; no
#: other trace event is read.
_SIGNIFICANT = {
    ("protocol", "decide"): _decide,
    ("protocol", "forget"): _forget,
    ("protocol", "inquiry"): _inquiry,
    ("protocol", "respond"): _respond,
    ("db", "commit"): _enforce,
    ("db", "abort"): _enforce,
}


class History:
    """An ordered history of significant events for a whole run."""

    def __init__(self, events: Iterable[SignificantEvent]) -> None:
        self._events = sorted(events, key=lambda e: e.seq)
        # Checkers query by (kind), (txn) and (kind, txn) once per
        # transaction per invariant, which made the linear scans in
        # of_kind/events_for the dominant cost of every oracle pass
        # (see the commit-storm profiles in BENCH_sim.json). Build the
        # three indexes once; each holds events in precedence order
        # because _events is already sorted.
        self._by_kind: dict[EventKind, list[SignificantEvent]] = {}
        self._by_txn: dict[str, list[SignificantEvent]] = {}
        self._by_kind_txn: dict[
            tuple[EventKind, str], list[SignificantEvent]
        ] = {}
        for event in self._events:
            self._by_kind.setdefault(event.kind, []).append(event)
            self._by_txn.setdefault(event.txn_id, []).append(event)
            self._by_kind_txn.setdefault(
                (event.kind, event.txn_id), []
            ).append(event)

    @classmethod
    def from_trace(cls, trace: TraceRecorder) -> "History":
        """Extract the significant-event history from a run trace."""
        return cls(
            significant(event)
            for (category, name), significant in _SIGNIFICANT.items()
            for event in trace.iter_select(category, name)
        )

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[SignificantEvent]:
        return iter(self._events)

    # -- queries --------------------------------------------------------------

    def events_for(self, txn_id: str) -> list[SignificantEvent]:
        """All significant events of one transaction, in precedence order."""
        return list(self._by_txn.get(txn_id, ()))

    def of_kind(
        self, kind: EventKind, txn_id: Optional[str] = None
    ) -> list[SignificantEvent]:
        """All events of a kind (optionally restricted to one txn)."""
        if txn_id is None:
            return list(self._by_kind.get(kind, ()))
        return list(self._by_kind_txn.get((kind, txn_id), ()))

    def transactions(self) -> set[str]:
        """Ids of every transaction with at least one significant event."""
        return {txn for txn in self._by_txn if txn}

    def decision(self, txn_id: str, coordinator: Optional[str] = None) -> Optional[Outcome]:
        """The coordinator's (last) decision for ``txn_id``, if any.

        A coordinator may decide more than once across crashes (it
        re-initiates the decision phase with the *same* recorded
        decision); the last DECIDE is authoritative.
        """
        decides = [
            e
            for e in self.of_kind(EventKind.DECIDE, txn_id)
            if coordinator is None or e.site == coordinator
        ]
        return decides[-1].outcome if decides else None

    def coordinator_of(self, txn_id: str) -> Optional[str]:
        """Site that recorded DECIDE events for ``txn_id``, if any."""
        decides = self.of_kind(EventKind.DECIDE, txn_id)
        return decides[0].site if decides else None

    def forget_events(self, txn_id: str) -> list[SignificantEvent]:
        """Coordinator DeletePT events for ``txn_id``."""
        return self.of_kind(EventKind.DELETE_PT, txn_id)

    def inquiries_after_forget(self, txn_id: str) -> list[SignificantEvent]:
        """INQ events that follow the first DeletePT of the transaction."""
        forgets = self.forget_events(txn_id)
        if not forgets:
            return []
        first_forget = forgets[0]
        return [
            e
            for e in self.of_kind(EventKind.INQUIRY, txn_id)
            if first_forget.precedes(e)
        ]

    def response_to(
        self, inquiry: SignificantEvent
    ) -> Optional[SignificantEvent]:
        """The first RESPOND to ``inquiry``'s participant after it."""
        for event in self.of_kind(EventKind.RESPOND, inquiry.txn_id):
            if inquiry.precedes(event) and event.peer == inquiry.site:
                return event
        return None

    def enforcements(self, txn_id: str) -> dict[str, Outcome]:
        """Final enforced outcome per site for ``txn_id``.

        The *last* ENFORCE event per site wins: a volatile enforcement
        wiped out by a crash is superseded by the post-recovery one.
        """
        final: dict[str, Outcome] = {}
        for event in self.of_kind(EventKind.ENFORCE, txn_id):
            assert event.outcome is not None
            final[event.site] = event.outcome
        return final

    def render(self, txn_id: Optional[str] = None) -> str:
        """Readable rendering of the history (optionally one txn)."""
        events = self._events if txn_id is None else self.events_for(txn_id)
        return "\n".join(str(e) for e in events)

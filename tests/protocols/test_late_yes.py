"""A Yes vote that arrives after the decision is answered like an inquiry.

These drive one :class:`CoordinatorEngine` directly, with a network
stub that records what it sends, so each rule of ``on_vote``'s late-Yes
branch is pinned in the state it is about:

* entry held, decision not yet stable: the sender joins ``yes_votes``
  and gets the abort with the others;
* entry held, decision stable: the sender gets the decision now;
* entry forgotten: the sender gets the policy's presumption for its
  protocol — unless the policy heard its abort-ack before forgetting;
* a sender the decision phase already covers gets nothing twice.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.message import Message
from repro.protocols.coordinator import CoordinatorEngine
from repro.protocols.registry import selector_for
from repro.sim.kernel import Simulator
from repro.storage.log_records import LogRecord
from repro.storage.pcp import CommitProtocolDirectory
from repro.storage.stable_log import StableLog

SITES = {"prn": "PrN", "pra": "PrA", "prc": "PrC"}


class SentLog:
    """Network stub: records every message the engine sends."""

    def __init__(self) -> None:
        self.sent: list[Message] = []

    def send(self, message: Message) -> None:
        self.sent.append(message)

    def decisions_to(self, site: str) -> list[str]:
        return [
            m.kind
            for m in self.sent
            if m.receiver == site and m.kind in ("COMMIT", "ABORT")
        ]


class HeldForceLog(StableLog):
    """A log whose forces complete only when :meth:`release` is called
    (the shape of a replicated decision log waiting for its quorum)."""

    def __init__(self, sim: Simulator, site_id: str) -> None:
        super().__init__(sim, site_id)
        self._held: list[Callable[[], None]] = []

    def force_append_async(
        self, record: LogRecord, on_stable: Optional[Callable[[], None]] = None
    ) -> LogRecord:
        self.append(record)
        self.force()
        if on_stable is not None:
            self._held.append(on_stable)
        return record

    def release(self) -> None:
        held, self._held = self._held, []
        for callback in held:
            callback()


def engine(coordinator: str = "dynamic", held_forces: bool = False):
    sim = Simulator(seed=7)
    log = HeldForceLog(sim, "tm") if held_forces else StableLog(sim, "tm")
    network = SentLog()
    pcp = CommitProtocolDirectory()
    for site, protocol in SITES.items():
        pcp.register_site(site, protocol)
    coordinator_engine = CoordinatorEngine(
        sim, "tm", log, network, pcp, selector_for(coordinator)
    )
    return coordinator_engine, network, log, sim


def vote(kind: str, sender: str, txn: str = "t1") -> Message:
    return Message(kind, sender, "tm", txn)


def no_then_late_yes(coordinator_engine, participants, late: str = "pra"):
    """PREPAREs out, the first participant votes No, and only then does
    ``late``'s Yes arrive."""
    coordinator_engine.begin_commit("t1", participants)
    coordinator_engine.on_vote(vote("VOTE_NO", participants[0]))
    coordinator_engine.on_vote(vote("VOTE_YES", late))


class TestEntryHeld:
    def test_decision_not_stable_sender_joins_the_abort(self):
        # U2PC(PrN) forces its abort record and expects no abort-ack
        # from PrA: the late PrA voter is covered by nothing but its
        # Yes, which lands before the decision is stable.
        coordinator_engine, network, log, _ = engine("U2PC(PrN)", held_forces=True)
        no_then_late_yes(coordinator_engine, ["prn", "pra"])
        entry = coordinator_engine.table.get("t1")
        assert not entry.decision_stable
        assert "pra" in entry.yes_votes
        assert network.decisions_to("pra") == []  # force-before-send
        log.release()
        assert network.decisions_to("pra") == ["ABORT"]

    def test_decision_stable_sender_answered_now(self):
        coordinator_engine, network, _, sim = engine()
        no_then_late_yes(coordinator_engine, ["prn", "pra"])
        # PrAny still waits for PrN's abort-ack, so the entry is held.
        assert coordinator_engine.table.get("t1") is not None
        assert network.decisions_to("pra") == ["ABORT"]
        respond = sim.trace.first(category="protocol", name="respond", to="pra")
        assert respond.details["presumed"] is False
        assert coordinator_engine.presumed_responses == 0


class TestEntryForgotten:
    def test_answered_by_the_senders_presumption(self):
        coordinator_engine, network, _, sim = engine()
        coordinator_engine.begin_commit("t1", ["prn", "pra"])
        coordinator_engine.on_vote(vote("VOTE_NO", "prn"))
        coordinator_engine.on_ack(vote("ACK", "prn"))
        assert coordinator_engine.table.get("t1") is None
        coordinator_engine.on_vote(vote("VOTE_YES", "pra"))
        assert network.decisions_to("pra") == ["ABORT"]
        respond = sim.trace.first(category="protocol", name="respond", to="pra")
        assert respond.details["presumed"] is True
        assert coordinator_engine.presumed_responses == 1
        # An answer, not an inquiry: no INQ event enters the history.
        assert sim.trace.first(category="protocol", name="inquiry") is None

    def test_u2pc_prc_answers_pra_with_its_native_commit(self):
        # U2PC(PrC) forgets an abort once PrN has acked and answers
        # unknown transactions with PrC's commit presumption — to a
        # PrA participant that is Theorem 1's wrong answer, and the
        # late-Yes rule must not hide it.
        coordinator_engine, network, _, _ = engine("U2PC(PrC)")
        coordinator_engine.begin_commit("t1", ["prn", "pra"])
        coordinator_engine.on_vote(vote("VOTE_NO", "prn"))
        coordinator_engine.on_ack(vote("ACK", "prn"))
        assert coordinator_engine.table.get("t1") is None
        coordinator_engine.on_vote(vote("VOTE_YES", "pra"))
        assert network.decisions_to("pra") == ["COMMIT"]


class TestSenderAlreadyCovered:
    def test_expected_acker_gets_no_second_abort(self):
        # PrC acks aborts under PrAny: it got the abort at decision
        # time, so its late Yes is not answered again.
        coordinator_engine, network, _, _ = engine()
        no_then_late_yes(coordinator_engine, ["prn", "prc"], late="prc")
        assert network.decisions_to("prc") == ["ABORT"]

    def test_forgotten_after_the_senders_ack_stays_silent(self):
        # The coordinator forgot only after PrC's abort-ack arrived, so
        # PrC already holds the decision.
        coordinator_engine, network, _, _ = engine()
        coordinator_engine.begin_commit("t1", ["prn", "prc"])
        coordinator_engine.on_vote(vote("VOTE_NO", "prn"))
        coordinator_engine.on_ack(vote("ACK", "prn"))
        coordinator_engine.on_ack(vote("ACK", "prc"))
        assert coordinator_engine.table.get("t1") is None
        sent = len(network.sent)
        coordinator_engine.on_vote(vote("VOTE_YES", "prc"))
        assert len(network.sent) == sent

    def test_duplicate_late_yes_answered_once(self):
        coordinator_engine, network, _, _ = engine()
        no_then_late_yes(coordinator_engine, ["prn", "pra"])
        coordinator_engine.on_vote(vote("VOTE_YES", "pra"))
        assert network.decisions_to("pra") == ["ABORT"]

    def test_no_and_read_votes_after_the_decision_stay_ignored(self):
        coordinator_engine, network, _, _ = engine()
        coordinator_engine.begin_commit("t1", ["prn", "pra", "prc"])
        coordinator_engine.on_vote(vote("VOTE_NO", "prn"))
        sent = len(network.sent)
        coordinator_engine.on_vote(vote("VOTE_NO", "prc"))
        coordinator_engine.on_vote(vote("VOTE_READ", "pra"))
        assert len(network.sent) == sent

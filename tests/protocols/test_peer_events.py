"""A lost or restored connection fires the engines' timers early.

The live transport reports a peer *down* when that peer's connection
closes and *up* when it accepts connections again; ``Site.peer_down``
/ ``peer_up`` hand the report to both engines. These tests call the
hooks on simulator-built sites, where nothing else ever calls them, and
pin what each may fire:

* peer down ends the voting phase (by the vote timer's own handler) of
  every transaction still waiting for that peer's vote, and only of
  those with an armed vote timer;
* a peer that already voted Yes or READ fires nothing;
* at a participant, peer down aborts a subtransaction that has not
  prepared — except an implicitly prepared (IYV) one, which inquires;
* peer up resends a decision to that peer only, and re-inquires only
  subtransactions in doubt;
* a crashed site reacts to nothing (the epoch guard).
"""

from __future__ import annotations

import pytest

from repro.mdbs.system import MDBS
from repro.mdbs.transaction import GlobalTransaction, WriteOp, simple_transaction
from repro.net.failures import CrashSchedule
from repro.protocols.base import RELAXED_TIMEOUTS
from repro.protocols.coordinator import CoordinatorState
from repro.workloads.generator import WorkloadSpec, build_mdbs, run_workload
from repro.workloads.mixes import homogeneous, three_way

#: The six coordinator policies, each over a mix it is meant for, and
#: the outcome whose decision at least two participants acknowledge.
CASES = {
    "PrN": ("PrN", homogeneous("PrN", 3), "commit"),
    "PrA": ("PrA", homogeneous("PrA", 3), "commit"),
    "PrC": ("PrC", homogeneous("PrC", 3), "abort"),
    "PrAny": ("dynamic", three_way(3), "commit"),
    "U2PC": ("U2PC(PrC)", three_way(3), "abort"),
    "C2PC": ("C2PC(PrN)", three_way(3), "commit"),
}

#: Before any timer: votes land at 2, decisions at 3 (unit latency).
SETTLED = 20.0


def cluster(case: str) -> tuple[MDBS, list[str]]:
    coordinator, mix, _ = CASES[case]
    mdbs = build_mdbs(mix, coordinator=coordinator, timeouts=RELAXED_TIMEOUTS)
    return mdbs, sorted(site for site in mdbs.sites if site != "tm")


def events(mdbs: MDBS, name: str, **details) -> list:
    return mdbs.sim.trace.select(name=name, **details)


def sent(mdbs: MDBS, kind: str, **details) -> int:
    return len(mdbs.sim.trace.select(category="msg", name="send", kind=kind, **details))


def state_of(mdbs: MDBS, txn: str) -> CoordinatorState:
    entry = mdbs.sites["tm"].coordinator.table.get(txn)
    return entry.state


@pytest.mark.parametrize("case", sorted(CASES))
class TestCoordinatorPeerDown:
    def test_aborts_only_voting_entries_armed_and_awaiting_the_peer(self, case):
        mdbs, (s0, s1, s2) = cluster(case)
        # No PREPARE reaches s1 or s2: t1 and t3 await s2, t2 awaits s1.
        mdbs.network.partition("tm", s1)
        mdbs.network.partition("tm", s2)
        mdbs.submit(simple_transaction("t1", "tm", [s0, s2]))
        mdbs.submit(simple_transaction("t2", "tm", [s0, s1]))
        mdbs.submit(simple_transaction("t3", "tm", [s0, s2]))
        mdbs.run(until=SETTLED)
        tm = mdbs.sites["tm"]
        tm.coordinator.table.get("t3").vote_timer.cancel()  # disarmed

        tm.peer_down(s2)

        assert mdbs.history().decision("t1").value == "abort"
        assert state_of(mdbs, "t2") is CoordinatorState.VOTING
        assert state_of(mdbs, "t3") is CoordinatorState.VOTING
        (early,) = events(mdbs, "vote_timeout")
        assert early.details == {"txn": "t1", "peer": s2}
        assert events(mdbs, "peer_down")[0].details == {"peer": s2}
        # The timer was disarmed: neither a second report nor the
        # timer's own deadline fires t1 again.
        tm.peer_down(s2)
        mdbs.run(until=SETTLED + RELAXED_TIMEOUTS.vote_timeout)
        assert [e.details["txn"] for e in events(mdbs, "vote_timeout")] == [
            "t1", "t2"
        ]

    def test_a_peer_that_voted_yes_or_read_fires_nothing(self, case):
        mdbs, (s0, s1, s2) = cluster(case)
        mdbs.network.partition("tm", s2)
        mdbs.submit(simple_transaction("t1", "tm", [s0, s2]))
        mdbs.submit(
            GlobalTransaction(
                "t2",
                "tm",
                writes={s2: [WriteOp("k@t2", "t2")]},
                reads={s1: ["k"]},
            )
        )
        mdbs.run(until=SETTLED)
        assert events(mdbs, "send", kind="VOTE_YES", txn="t1")
        assert events(mdbs, "send", kind="VOTE_READ", txn="t2")
        before = len(mdbs.sim.trace)

        mdbs.sites["tm"].peer_down(s0)
        mdbs.sites["tm"].peer_down(s1)

        assert state_of(mdbs, "t1") is CoordinatorState.VOTING
        assert state_of(mdbs, "t2") is CoordinatorState.VOTING
        new = list(mdbs.sim.trace)[before:]
        assert [(e.category, e.name) for e in new] == [("site", "peer_down")] * 2


@pytest.mark.parametrize("case", sorted(CASES))
class TestParticipantPeerDown:
    def test_unprepared_subtransactions_of_that_coordinator_abort(self, case):
        mdbs, (s0, s1, _) = cluster(case)
        mdbs.network.partition("tm", s0)  # no PREPARE reaches s0
        mdbs.submit(simple_transaction("t1", "tm", [s0, s1]))
        mdbs.run(until=SETTLED)
        site = mdbs.sites[s0]
        assert site.participant.table.get("t1") is not None

        site.peer_down("elsewhere")
        assert site.participant.table.get("t1") is not None
        site.peer_down("tm")

        assert site.participant.table.get("t1") is None
        (early,) = events(mdbs, "active_timeout")
        assert early.site == s0 and early.details == {"txn": "t1", "peer": "tm"}
        assert events(mdbs, "abort", txn="t1", site=s0)


def test_implicitly_prepared_participant_inquires_instead_of_aborting():
    mdbs = MDBS(timeouts=RELAXED_TIMEOUTS)
    mdbs.add_site("i1", protocol="IYV")
    mdbs.add_site("p2", protocol="PrN")
    mdbs.add_site("tm", protocol="PrN", coordinator="dynamic")
    mdbs.network.partition("tm", "i1")
    mdbs.network.partition("tm", "p2")
    mdbs.submit(simple_transaction("t1", "tm", ["i1", "p2"]))
    mdbs.run(until=SETTLED)

    mdbs.sites["i1"].peer_down("tm")
    mdbs.sites["p2"].peer_down("tm")

    # The IYV site promised at execution: it asks instead of aborting.
    assert mdbs.sites["i1"].participant.table.get("t1") is not None
    assert sent(mdbs, "INQUIRY", txn="t1") == 1
    assert not events(mdbs, "abort", txn="t1", site="i1")
    # The explicit voter had promised nothing yet.
    assert mdbs.sites["p2"].participant.table.get("t1") is None
    # A second report finds the IYV active timer spent.
    mdbs.sites["i1"].peer_down("tm")
    assert sent(mdbs, "INQUIRY", txn="t1") == 1


@pytest.mark.parametrize("case", sorted(CASES))
class TestPeerUp:
    def test_coordinator_resends_the_decision_to_that_peer_only(self, case):
        mdbs, sites = cluster(case)
        outcome = CASES[case][2]
        kind = outcome.upper()
        for site in sites:
            mdbs.network.drop_next("tm", site, kind=kind)
        txn = simple_transaction("t1", "tm", sites)
        txn.coordinator_abort = outcome == "abort"
        mdbs.submit(txn)
        mdbs.run(until=SETTLED)
        entry = mdbs.sites["tm"].coordinator.table.get("t1")
        assert entry.state is CoordinatorState.DECIDED
        assert len(entry.acks_pending) >= 2
        target = sorted(entry.acks_pending)[0]
        before = {site: sent(mdbs, kind, to=site) for site in sites}

        mdbs.sites["tm"].peer_up(target)

        after = {site: sent(mdbs, kind, to=site) for site in sites}
        assert after == {**before, target: before[target] + 1}

    def test_participant_reinquires_only_in_doubt_subtransactions(self, case):
        mdbs, (s0, s1, _) = cluster(case)
        # t2's PREPARE to s0 is lost (s0 stays active, not in doubt);
        # t1's decision to s0 is lost (s0 stays prepared, in doubt).
        mdbs.network.drop_next("tm", s0, kind="PREPARE")
        mdbs.network.drop_next("tm", s0, kind="COMMIT")
        mdbs.submit(simple_transaction("t2", "tm", [s0, s1]))
        mdbs.submit(simple_transaction("t1", "tm", [s0, s1], submit_at=5.0))
        mdbs.run(until=SETTLED)
        site = mdbs.sites[s0]
        assert site.participant.table.get("t2") is not None
        assert sent(mdbs, "INQUIRY") == 0

        site.peer_up("elsewhere")
        assert sent(mdbs, "INQUIRY") == 0
        site.peer_up("tm")

        assert sent(mdbs, "INQUIRY", txn="t1") == 1
        assert sent(mdbs, "INQUIRY", txn="t2") == 0
        assert site.participant.table.get("t2") is not None


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_crashed_site_reacts_to_nothing(case):
    mdbs, (s0, _, s2) = cluster(case)
    mdbs.network.partition("tm", s2)
    mdbs.submit(simple_transaction("t1", "tm", [s0, s2]))
    mdbs.run(until=SETTLED)
    tm, participant = mdbs.sites["tm"], mdbs.sites[s0]
    tm.crash()
    participant.crash()
    before = len(mdbs.sim.trace)

    tm.peer_down(s2)
    participant.peer_up("tm")
    # The engines of a crashed site hold no entry of any epoch.
    tm.coordinator.peer_down(s2)
    participant.participant.peer_up("tm")

    assert len(mdbs.sim.trace) == before


def test_a_simulated_run_never_reaches_the_hooks():
    """The simulator has no connections: crashes end no socket, so its
    counts and traces stay those of the timers alone."""

    def crash_everyone(mdbs, _):
        for index, site in enumerate(sorted(mdbs.sites)):
            mdbs.failures.schedule(CrashSchedule(site, 5.0 + 7 * index, 20.0))

    mdbs, _ = run_workload(
        three_way(3),
        "dynamic",
        WorkloadSpec(n_transactions=40, abort_fraction=0.25, seed=7),
        drain=500.0,
        prepare=crash_everyone,
    )
    assert mdbs.sim.trace.select(category="site", name="crash")
    assert mdbs.sim.trace.select(category="site", name="peer_down") == []
    assert mdbs.sim.trace.select(category="site", name="peer_up") == []

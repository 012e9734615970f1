"""Pinned schedules from explorer-found recovery races.

Both specs below were exported by ``repro explore --replicated 3``
as shrunk counterexamples against earlier code, then fixed; replaying
them must now satisfy every oracle. Unlike ``tests/explore/artifacts``
(which pins *still-violating* witnesses byte-exactly), these pin the
schedule only — the whole point is that the verdict changed.
"""

from repro.explore.adversary import ScenarioSpec
from repro.explore.runner import execute_scenario
from repro.mdbs.topology import Topology
from repro.mdbs.transaction import simple_transaction
from repro.net.message import Message
from repro.workloads.generator import build_mdbs
from repro.workloads.mixes import mixed_pra_prc

# Seed 20 (atomicity): the leader crashes right after sending t0000's
# COMMIT, restarts inside t0001's inquiry-retry window, and its
# recovery sweep is still in flight when both participants' INQUIRYs
# arrive. The unmodified engine answers unknown transactions by the
# *inquirer's* presumption — PrA told abort, PrC told commit — while
# the sweep later resolves the instance to the default abort.
# ``SiteReplication.defer_inquiry`` must hold those inquiries until
# the sweep lands.
INQUIRY_RACE_SPEC = {
    "abort_fraction": 0.0,
    "actions": [
        {
            "delay": 2.0,
            "down_for": 27.418379115238807,
            "point": "coord-after-decision-sent-commit",
            "site": "tm",
            "txn": "t0000",
            "type": "crash_when",
        }
    ],
    "coordinator": "dynamic",
    "horizon": 350.0,
    "hot_keys": 0,
    "inter_arrival": 25.0,
    "latency_high": 1.0,
    "latency_low": 1.0,
    "mix": "PrA+PrC",
    "n_transactions": 2,
    "replicated": 3,
    "seed": 20,
    "settle": 200.0,
}

# Seed 55 (operational): a participant crashes between writing t0001's
# UPDATE record and receiving PREPARE, so restart analysis classifies
# the shape implicitly-aborted — no decision record exists or ever
# will (the coordinator's duplicate ABORT is blind-acked without
# logging). Those records must re-queue for GC with no cover, or they
# strand in the log forever. Reproduces identically with
# ``replicated=0``; the replicated sweep just found it first.
GC_LEAK_SPEC = {
    "abort_fraction": 0.0,
    "actions": [
        {
            "delay": 0.0,
            "down_for": 60.0,
            "point": "part-after-prepared",
            "site": "site0_prc",
            "txn": "t0000",
            "type": "crash_when",
        }
    ],
    "coordinator": "dynamic",
    "horizon": 330.0,
    "hot_keys": 0,
    "inter_arrival": 15.0,
    "latency_high": 1.0,
    "latency_low": 1.0,
    "mix": "all-PrC",
    "n_transactions": 2,
    "replicated": 3,
    "seed": 55,
    "settle": 200.0,
}


def _run(payload):
    spec = ScenarioSpec.from_dict(payload)
    _, outcome = execute_scenario(spec)
    return outcome.verdict


def test_restart_sweep_defers_inquiries():
    verdict = _run(INQUIRY_RACE_SPEC)
    assert verdict.holds, verdict.describe()


def test_restart_sweep_defer_is_observable():
    spec = ScenarioSpec.from_dict(INQUIRY_RACE_SPEC)
    mdbs, outcome = execute_scenario(spec)
    assert outcome.verdict.holds
    deferred = list(
        mdbs.sim.trace.select(category="replication", name="inquiry_deferred")
    )
    assert deferred, "the pinned schedule no longer exercises the deferral"
    swept = [
        e.time
        for e in mdbs.sim.trace.select(
            category="recovery", name="replicated_sweep_done"
        )
    ]
    assert swept and all(e.time <= max(swept) for e in deferred)


def test_implicitly_aborted_records_are_collected():
    verdict = _run(GC_LEAK_SPEC)
    assert verdict.holds, verdict.describe()


def test_gc_leak_is_topology_independent():
    plain = dict(GC_LEAK_SPEC, replicated=0)
    verdict = _run(plain)
    assert verdict.holds, verdict.describe()


def test_restart_sweep_defers_a_late_yes():
    """A late Yes is answered like an inquiry, so it must wait like one.

    The leader dies right after fanning out t1's PREPAREs, so both
    votes are lost. It restarts, and while its quorum sweep is in
    flight a Yes for t1 — unknown to the table until the sweep lands —
    reaches it. Answered at once it would get the sender's presumption;
    held, it is answered from the swept decision.
    """
    mix = mixed_pra_prc()
    mdbs = build_mdbs(
        mix, "dynamic", seed=3, topology=Topology.from_flags(replicated=3)
    )
    pra, prc = sorted(mix.site_protocols())
    mdbs.submit(simple_transaction("t1", "tm", [pra, prc]))
    mdbs.failures.crash_when(
        "tm",
        lambda e: e.matches("msg", "send", site="tm", kind="PREPARE", to=prc),
        down_for=5.0,
    )

    def late_yes_at_sweep(event) -> None:
        if event.matches("recovery", "replicated_sweep", site="tm"):
            mdbs.sim.schedule(
                0.0,
                lambda: mdbs.network.send(Message("VOTE_YES", pra, "tm", "t1")),
            )

    mdbs.sim.trace.subscribe(late_yes_at_sweep)
    mdbs.run(until=400.0)
    mdbs.finalize()
    trace = mdbs.sim.trace
    deferred = trace.first(
        category="replication", name="inquiry_deferred", kind="VOTE_YES"
    )
    assert deferred is not None and deferred.details["inquirer"] == pra
    swept = trace.first(category="recovery", name="replicated_sweep_done")
    assert swept is not None and deferred.seq < swept.seq
    answer = trace.first(category="protocol", name="respond", to=pra, txn="t1")
    assert answer is not None and answer.seq > swept.seq
    assert answer.details["presumed"] is False
    assert answer.details["decision"] == mdbs.history().decision("t1").value
    assert mdbs.check().all_hold

"""The tentpole's empirical claim: replication removes the 2PC block.

The pinned schedule: the coordinator crashes between fanning out
PREPARE and reaching a decision, and stays down. Under the plain
single coordinator the prepared participants are stuck — this is
exactly the blocking window of two-phase commit. Under the replicated
coordinator the same schedule reaches a decision while the leader is
still dead: the rank-0 acceptor's failover sweep completes or presumes
every in-flight transaction from the quorum.

These tests pin the seed and the crash point so the blocked twin and
the nonblocked twin stay byte-reproducible; the explore-level tests
then run the same shapes through the oracle.
"""

from __future__ import annotations

import pytest

from repro.explore.adversary import CrashWhen, ScenarioSpec
from repro.explore.runner import execute_scenario, run_scenario
from repro.mdbs.topology import Topology
from repro.workloads.failure_schedules import coordinator_crash_points
from repro.workloads.generator import (
    WorkloadSpec,
    build_mdbs,
    generate_transactions,
)
from repro.workloads.mixes import three_way

_SEED = 11

_CRASH_POINT = {p.name: p for p in coordinator_crash_points()}[
    "coord-after-prepare-sent"
]


def _twin(replicated: int):
    """One commit-intent transaction; tm dies mid-prepare and stays dead."""
    mix = three_way(3)
    mdbs = build_mdbs(
        mix, "dynamic", seed=_SEED, topology=Topology.from_flags(replicated=replicated)
    )
    workload = WorkloadSpec(
        n_transactions=1,
        abort_fraction=0.0,
        participants_min=3,
        participants_max=3,
        inter_arrival=5.0,
        seed=_SEED,
    )
    for txn in generate_transactions(workload, sorted(mix.site_protocols())):
        mdbs.submit(txn)
    mdbs.failures.crash_when(
        "tm",
        _CRASH_POINT.make_predicate("tm", "t0000"),
        down_for=100_000.0,
        label="leader kill",
    )
    mdbs.run(until=600.0)
    return mdbs


def _decides(mdbs) -> dict[str, list]:
    decided: dict[str, list] = {}
    for event in mdbs.sim.trace.select(category="protocol", name="decide"):
        decided.setdefault(event.details["txn"], []).append(event)
    return decided


class TestLeaderCrashMidPrepare:
    def test_plain_coordinator_blocks(self) -> None:
        """The baseline really exhibits the 2PC blocking window."""
        mdbs = _twin(replicated=0)
        assert not mdbs.sites["tm"].is_up
        assert _decides(mdbs) == {}
        # At least one participant is stuck holding a prepared,
        # undecided transaction — blocked, not merely slow.
        stuck = [
            site_id
            for site_id, site in mdbs.sites.items()
            if site_id != "tm" and "t0000" in site.retained_transactions()
        ]
        assert stuck

    def test_replicated_coordinator_decides(self) -> None:
        """Same seed, same schedule — the quorum unblocks it."""
        mdbs = _twin(replicated=3)
        assert not mdbs.sites["tm"].is_up
        decided = _decides(mdbs)
        assert "t0000" in decided
        # The decision came from an acceptor's takeover sweep, not
        # from some accidental leader revival.
        assert any(e.site.startswith("acc") for e in decided["t0000"])
        failovers = list(
            mdbs.sim.trace.select(category="replication", name="failover")
        )
        assert failovers
        # No participant remains blocked on the decided transaction.
        for site_id, site in mdbs.sites.items():
            if site_id == "tm":
                continue
            assert "t0000" not in site.retained_transactions()

    def test_failover_election_is_deterministic(self) -> None:
        """Rank 0 (sorted acceptor order) fires first, every run."""
        for _ in range(2):
            mdbs = _twin(replicated=3)
            failovers = list(
                mdbs.sim.trace.select(category="replication", name="failover")
            )
            assert failovers[0].site == "acc0"


class TestReplicatedScenarios:
    """The same shapes through the full explore runner and oracle."""

    def _leader_kill_spec(self, down_for: float = 120.0) -> ScenarioSpec:
        return ScenarioSpec(
            seed=_SEED,
            mix="PrN+PrA+PrC",
            coordinator="dynamic",
            n_transactions=4,
            abort_fraction=0.25,
            inter_arrival=15.0,
            topology=Topology.replicated(3),
            actions=(
                CrashWhen(
                    site="tm",
                    point="coord-after-prepare-sent",
                    txn="t0000",
                    down_for=down_for,
                ),
            ),
        )

    def test_leader_crash_then_failover_holds(self) -> None:
        mdbs, outcome = execute_scenario(self._leader_kill_spec())
        assert outcome.crashes_injected >= 1
        assert outcome.holds, outcome.verdict.summary()
        # The failover actually ran inside the scenario window.
        assert list(
            mdbs.sim.trace.select(category="replication", name="failover")
        )

    @pytest.mark.parametrize(
        "point", ["acc-before-register", "acc-before-accept", "acc-after-accept"]
    )
    def test_acceptor_crash_holds(self, point: str) -> None:
        """A minority acceptor crash never blocks or corrupts a run."""
        spec = ScenarioSpec(
            seed=_SEED,
            mix="PrN+PrA+PrC",
            coordinator="dynamic",
            n_transactions=4,
            abort_fraction=0.25,
            inter_arrival=15.0,
            topology=Topology.replicated(3),
            actions=(
                CrashWhen(
                    site="acc1", point=point, txn="t0000", down_for=80.0
                ),
            ),
        )
        outcome = run_scenario(spec)
        assert outcome.holds, outcome.verdict.summary()

    def test_pinned_footprint_is_deterministic(self) -> None:
        spec = self._leader_kill_spec()
        first = run_scenario(spec)
        second = run_scenario(spec)
        assert first.trace_sha256 == second.trace_sha256
        assert first.trace_events == second.trace_events

    def test_spec_roundtrips_replicated(self) -> None:
        spec = self._leader_kill_spec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        # Plain specs stay byte-identical to pre-replication artifacts.
        plain = ScenarioSpec(seed=1, mix="all-PrN", coordinator="PrN")
        assert "replicated" not in plain.to_dict()
